"""action.transport against an independent reference loop, and the
Schreier BFS against one-token transports."""

import pytest
from hypothesis import given, settings, strategies as st

from cubekit import builders
from cubekit.action import (Generators, PartialAction, hyperplane_orbit,
                            reduce_word, transport)
from cubekit.hyperplanes import arrangement
from cubekit.schreier import build_schreier
from test_schreier import punched_actions

FIXTURES = {
    "line": builders.line_shift_action(6),
    "f2": builders.free_group_action(4),
    "grid": builders.grid_shift_action(7),
}


def reference_transport(a, word, key):
    """Carry the representative edge, then the other dual edges, through
    the word; (image key, margin, fail_step) as the search layer reads it."""
    arr = arrangement(a.graph)
    index = {tuple(e): i for i, e in enumerate(a.graph.edges.tolist())}
    cls, side = key
    fd = a.frontier_dist() if a.truncated else None
    best_fail = 0
    for e in arr.class_edges(cls):
        t, h = arr.orientation[e].tolist()
        if side == 0:
            t, h = h, t
        margin = None
        if fd is not None:
            margin = min(fd[t], fd[h])
        ok = True
        done = 0
        for tok in reversed(word):
            mp = a.maps[tok]
            t, h = mp[t], mp[h]
            if t < 0 or h < 0:
                ok = False
                break
            done += 1
            if fd is not None:
                margin = min(margin, fd[t], fd[h])
        if ok:
            # image side read off the side sets, not off edge orientations
            c = arr.edge_class.item(index[(min(t, h), max(t, h))])
            side_of_h = 1 if h in arr.side_vertices(c, 1) else 0
            return (c, side_of_h), margin, None
        best_fail = max(best_fail, done + 1)
    return None, None, best_fail


@st.composite
def transport_cases(draw):
    name = draw(st.sampled_from(sorted(FIXTURES)))
    a = FIXTURES[name]
    tokens = draw(st.lists(st.sampled_from(a.gens.names), max_size=12))
    word = reduce_word(tokens, a.gens)
    n_classes = arrangement(a.graph).n_classes
    key = (draw(st.integers(0, n_classes - 1)), draw(st.integers(0, 1)))
    return a, word, key


def row(res):
    return res.halfspace.key if res.ok else None, res.margin, res.fail_step


@settings(max_examples=300, deadline=None)
@given(transport_cases())
def test_transport_matches_reference(case):
    a, word, key = case
    want = reference_transport(a, word, key)
    hs = arrangement(a.graph).halfspace(*key)
    assert row(a.transport_halfspace(word, hs)) == want
    assert [row(r) for r in transport(a, [word], [hs])] == [want]


@settings(max_examples=150, deadline=None)
@given(punched_actions(), st.data())
def test_one_transport_call_matches_the_reference_row_by_row(case, data):
    # one call over words of mixed lengths (the empty word among them) and
    # halfspaces of several classes, in shuffled order, on maps punched to -1
    a, hs = case
    arr = arrangement(a.graph)
    n = data.draw(st.integers(1, 12))
    words = [(), *(reduce_word(data.draw(st.lists(
        st.sampled_from(a.gens.names), max_size=8)), a.gens)
        for _ in range(n))]
    halves = [hs, *(arr.halfspace(data.draw(st.integers(
        0, arr.n_classes - 1)), data.draw(st.integers(0, 1)))
        for _ in range(n))]
    order = data.draw(st.permutations(range(n + 1)))
    words = [words[i] for i in order]
    halves = [halves[i] for i in order]
    got = transport(a, words, halves)
    assert [row(r) for r in got] == [reference_transport(a, w, h.key)
                                     for w, h in zip(words, halves)]


@pytest.mark.parametrize("name,radius", [("line", 8), ("f2", 5),
                                         ("grid", 6)])
def test_schreier_edges_are_one_token_transports(name, radius):
    a = FIXTURES[name]
    arr = arrangement(a.graph)
    hs = arr.halfspace(0, 1)
    sg = build_schreier(a, hs, radius)
    keys = [(c >> 1, c & 1) for c in sg.code.tolist()]
    index = {k: i for i, k in enumerate(keys)}
    assert len(index) == sg.n
    pairs = [(node, nm) for node in range(sg.n) for nm in a.gens.names]
    images = transport(a, [(a.gens.inv[nm],) for _, nm in pairs],
                       [arr.halfspace(*keys[node]) for node, _ in pairs])
    for (node, nm), res in zip(pairs, images):
        want = -1 if not res.ok or node >= sg.start[radius] \
            else index[res.halfspace.key]
        assert sg.table[a.gens.rank(nm), node] == want


def test_an_image_off_the_edges_raises_like_the_edge_lookup():
    # s sends the edge 0-1 of a path onto the non-edge 0-2: the batched key
    # lookup raises the KeyError that graph.edge_id raises for the pair
    g = builders.path_graph(4)
    arr = arrangement(g)
    a = PartialAction(g, Generators([("s", "S")]),
                      {"s": [0, 2, -1, -1], "S": [-1] * 4})
    key = arr.oriented_edge_key(0, 1)
    with pytest.raises(KeyError) as want:
        g.edge_id(0, 2)
    for run in (lambda: a.transport_halfspace(("s",), arr.halfspace(*key)),
                lambda: hyperplane_orbit(a, arr.halfspace(*key), 1)):
        with pytest.raises(KeyError) as got:
            run()
        assert got.value.args == want.value.args
