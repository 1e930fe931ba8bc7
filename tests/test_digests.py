"""Digests and text emitters against the line-by-line loops they replace.

``MedianGraph.digest`` joins its vertex lines with one ``str.join`` a
block and gathers its edge lines' labels into columns joined by
``median.join_rows``, as ``graph_to_text``, ``action_to_text`` and
``schreier_to_text`` do.  ``PartialAction.digest`` writes each map row from
one byte table of the ids' decimal text, NUL-padded to a fixed width, by a
gather and a compress.  The reference copies below write one f-string or
``str(int)`` per line or map entry, as the emitters did before; every
certificate binds its inputs through these bytes, so they must agree on
every graph and action, errors included.
"""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from cubekit import builders
from cubekit.action import (Generators, PartialAction, action_to_text,
                            word_str)
from cubekit.hyperplanes import arrangement
from cubekit.median import MedianGraph, graph_to_text
from cubekit.schreier import build_schreier, schreier_to_text


def reference_graph_digest(g):
    h = hashlib.sha256()
    labels, step = g.labels, 1 << 16  # lines joined per update
    for lo in range(0, g.n, step):
        h.update("".join([f"v:{lab}\n"
                          for lab in labels[lo:lo + step]]).encode())
    for lo in range(0, g.m, step):
        u, v = g.edges[lo:lo + step].T.tolist()
        h.update("".join([f"e:{labels[a]}|{labels[b]}\n"
                          for a, b in zip(u, v)]).encode())
    return h.hexdigest()


def reference_action_digest(a):
    h = hashlib.sha256()
    h.update(reference_graph_digest(a.graph).encode())
    for x, y in a.gens.pairs:
        h.update(f"g:{x}|{y}\n".encode())
    for nm in a.gens.names:
        h.update(f"m:{nm}:".encode())
        h.update(",".join(map(str, a.maps[nm].tolist())).encode())
        h.update(b"\n")
    h.update(f"b:{a.base}\n".encode())
    return h.hexdigest()


def reference_graph_to_text(g):
    lines = [f"v {lab}" for lab in g.labels]
    u, v = g.edges.T.tolist()
    lines += [f"e {g.labels[a]} {g.labels[b]}" for a, b in zip(u, v)]
    if len(g.frontier):
        labs = " ".join(g.labels[v] for v in sorted(g.frontier.tolist()))
        lines.append(f"# frontier: {labs}")
    return "\n".join(lines) + "\n"


def reference_action_to_text(a):
    g = a.graph
    lines = [f"gen {x} {y}" for x, y in a.gens.pairs]
    lines.append(f"base {g.labels[a.base]}")
    for nm in a.gens.names:
        mp = a.maps[nm].tolist()
        lines.extend(f"map {nm} {g.labels[v]} {g.labels[w]}"
                     for v, w in enumerate(mp) if w >= 0)
    return "\n".join(lines) + "\n"


def reference_schreier_to_text(sg):
    labels = [word_str(w) for w in sg.witnesses()]
    lines = [f"v {lab}" for lab in labels]
    seen = set()
    for col in sg.table.tolist():
        for u in range(sg.n):
            v = col[u]
            if v < 0 or v == u:
                continue
            e = (u, v) if u < v else (v, u)
            if e not in seen:
                seen.add(e)
                lines.append(f"e {labels[e[0]]} {labels[e[1]]}")
    frontier = [u for u in range(sg.n) if -1 in sg.table[:, u].tolist()]
    if frontier:
        lines.append("# frontier: " +
                     " ".join(labels[v] for v in frontier))
    return "\n".join(lines) + "\n"


def outcome(f, x):
    """f(x), or the type of the exception it raised."""
    try:
        return f(x)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


def assert_graph_agrees(g):
    assert g.digest() == reference_graph_digest(g)
    assert graph_to_text(g) == reference_graph_to_text(g)


def assert_action_agrees(a):
    assert a.digest() == reference_action_digest(a)
    assert outcome(action_to_text, a) == outcome(reference_action_to_text, a)


LABEL = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                max_size=5)
GENERATORS = [Generators([("a", "A"), ("b", "B")]),
              Generators([("s", "s"), ("t", "T")]),  # "s" named twice
              Generators([("gén", "GÉN")]),
              Generators([])]


@st.composite
def graphs(draw):
    """A connected graph: a random tree plus extra edges, its edges in any
    order and orientation, with distinct labels that may be long, non-ASCII
    or hold the separators the emitters write."""
    n = draw(st.integers(1, 30))
    labels = draw(st.lists(LABEL, min_size=n, max_size=n, unique=True))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 2:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {(u, v) for u, v in draw(st.lists(pair, max_size=n))
                  if u < v}
    edges = [e[::-1] if draw(st.booleans()) else e
             for e in draw(st.permutations(sorted(edges)))]
    frontier = draw(st.sets(st.integers(0, n - 1), max_size=3))
    return MedianGraph(n, edges, labels, frontier)


@st.composite
def actions(draw):
    """An action whose maps hold -1 entries, entries below -1 (clipped to
    -1) and past the last vertex (clipped to n)."""
    g = draw(graphs())
    gens = draw(st.sampled_from(GENERATORS))
    image = st.integers(-3, g.n + 2)
    maps = {nm: draw(st.lists(image, min_size=g.n, max_size=g.n))
            for nm in gens.names}
    return PartialAction(g, gens, maps, base=draw(st.integers(0, g.n - 1)))


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_graph_digest_and_text_match_reference(g):
    assert_graph_agrees(g)


@settings(max_examples=150, deadline=None)
@given(actions())
def test_action_digest_and_text_match_reference(a):
    assert_action_agrees(a)


def test_edge_cases_match_reference():
    # no vertex; one vertex and no edge; an out-of-range image clipped to
    # n, which the digest writes as str(n) and the text cannot label; the
    # twice named self-inverse generator
    assert_graph_agrees(MedianGraph(0, []))
    g = MedianGraph(1, [], ["ß→ü"])
    assert_graph_agrees(g)
    a = PartialAction(g, GENERATORS[1], {"s": [5], "t": [-1], "T": [0]})
    assert a.maps["s"].tolist() == [1]
    assert_action_agrees(a)
    assert outcome(action_to_text, a) is IndexError
    g2 = builders.path_graph(2)
    a2 = PartialAction(g2, GENERATORS[1],
                       {"s": [1, 0], "t": [1, -1], "T": [-1, 0]})
    assert action_to_text(a2).count("map s ") == 4
    assert_action_agrees(a2)


def test_block_boundary_matches_reference():
    # 70,000 vertex lines and 69,999 edge lines cross the 65,536-row block
    g = builders.path_graph(70_000)
    assert_graph_agrees(g)
    v = np.arange(g.n)
    shift = {"t": np.where(v + 1 < g.n, v + 1, -1), "T": v - 1}
    assert_action_agrees(PartialAction(g, Generators([("t", "T")]), shift))


def test_action_digest_matches_reference_at_every_digit_width():
    # n on each side of every width of the id table, the empty graph too;
    # the maps reach every id from -1 to n: s reverses, t reaches the
    # out-of-range n and T clips -2 to -1
    for n in (0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10_000):
        v = np.arange(n)
        a = PartialAction(builders.path_graph(n), GENERATORS[1],
                          {"s": n - 1 - v, "t": v + 1, "T": v - 2})
        ids = set(a.table[:, :n].ravel().tolist())
        assert ids == (set(range(-1, n + 1)) if n else set())
        assert a.digest() == reference_action_digest(a)


def test_schreier_text_matches_reference():
    # a tree ball, grid walls (nodes with self-loops and repeated edges)
    # and a reflection named twice as a self-inverse generator
    g = builders.path_graph(6)
    v = np.arange(6)
    mirror = PartialAction(g, GENERATORS[1], {
        "s": 5 - v, "t": np.where(v < 5, v + 1, -1), "T": v - 1})
    cases = [(builders.free_group_action(3), (0, 1, 2, 3)),
             (builders.grid_shift_action(5), (1, 3)),
             (mirror, (4,))]
    for a, radii in cases:
        arr = arrangement(a.graph)
        for c in range(0, arr.n_classes, 3):
            for r in radii:
                sg = build_schreier(a, arr.halfspace(c, c % 2), r)
                assert schreier_to_text(sg) == reference_schreier_to_text(sg)


def test_pinned_action_digests():
    # recorded from the line-by-line loops
    assert builders.free_group_action(4).digest() == \
        "d9f328d5f3cf7cc2700d404da8d80baeeaa7b4dc0da788fa977dafc7ded3aff5"
    assert builders.grid_shift_action(6).digest() == \
        "2ce92db5d0de10d8661ad5d8060eaa3edcc6679b5ffd16056fb1cc8febf34ca6"
