"""The halfspace searches, all fed by ``action.walk_layers``, against
reference copies of the word loops each of them used to run on its own,
and the quadruple refinement they feed."""

import pytest
from hypothesis import given, settings, strategies as st

from cubekit import builders
from cubekit.action import (ActionError, Generators, OrbitResult,
                            PartialAction, SearchResult, _results,
                            action_to_text, find_double_skewer, find_flipping,
                            first_image, hyperplane_orbit,
                            proper_subhalfspace, reduce_word, reduced_words,
                            stabilizer_words, transport, walk_layers)
from cubekit.cli import run
from cubekit.hyperplanes import (arrangement, halfspace_leq, product_graph,
                                 strongly_separated)
from cubekit.median import graph_to_text
from cubekit.schottky import (SchottkyError, SearchBudgetExhausted,
                              _find_ss_nested, _refine_quadruple,
                              build_quadruple)
from test_schreier import punched_actions, reference_carry_class

FIXTURES = {
    "line": builders.line_shift_action(6),
    "f2": builders.free_group_action(4),
    "grid": builders.grid_shift_action(7),
}


# -- reference loops ------------------------------------------------------

def reference_orbit(a, hs, L):
    seen = {}
    images = []
    truncated = False
    for w in reduced_words(a.gens, L):
        res = a.transport_halfspace(w, hs)
        if not res.ok:
            truncated = True
            continue
        if res.halfspace.key not in seen:
            seen[res.halfspace.key] = w
            images.append((res.halfspace, w))
    return OrbitResult(images, truncated)


def reference_stabilizer(a, hs, L):
    out = []
    for w in reduced_words(a.gens, L):
        res = a.transport_halfspace(w, hs)
        if res.ok and res.halfspace.key == hs.key:
            out.append(w)
    return out


def reference_search(a, hs, L, accept, min_len=1):
    truncated = False
    for w in reduced_words(a.gens, L, min_len=min_len):
        res = a.transport_halfspace(w, hs)
        if not res.ok:
            truncated = True
            continue
        if accept(res.halfspace):
            return SearchResult(w, res.halfspace, res.margin, truncated)
    return SearchResult(None, truncated=truncated)


def reference_flipping(a, hs, L):
    comp = hs.complement
    return reference_search(a, hs, L,
                            lambda img: proper_subhalfspace(a, comp, img))


def reference_double_skewer(a, k_hs, h_hs, L):
    return reference_search(a, h_hs, L,
                            lambda img: proper_subhalfspace(a, img, k_hs))


def reference_refine(a, quad, L):
    """The refinement of ``schottky._refine_quadruple`` as separate loops:
    orbit images of the quadruple (at most 41 candidates), the first
    strongly separated nested pair, then each member's first image (None
    where the budget has none)."""
    cands = list(quad)
    for hs in quad:
        for w in reduced_words(a.gens, min(L, 3), min_len=1):
            res = a.transport_halfspace(w, hs)
            if res.ok:
                cands.append(res.halfspace)
            if len(cands) > 40:
                break
    inner = next((x for x in cands for y in cands
                  if x.key != y.key and halfspace_leq(x, y)
                  and strongly_separated(x.hyperplane, y.hyperplane)), None)
    if inner is None:
        return None
    out = []
    for hj in quad:
        cand = None
        for w in reduced_words(a.gens, L):
            res = a.transport_halfspace(w, inner)
            if res.ok and halfspace_leq(res.halfspace, hj):
                cand = res.halfspace
                break
        out.append(cand)
    return inner, tuple(out)


def walked(a, hs, L, min_len=0):
    """(word, transport) for every row of ``walk_layers``, in search
    order."""
    return [row for lay in walk_layers(a, hs, L, min_len)
            for row in zip(lay.words(range(len(lay.code))),
                           _results(hs.arr, lay.code, lay.margin, lay.fail))]


# -- the four public consumers --------------------------------------------

@st.composite
def search_cases(draw):
    name = draw(st.sampled_from(sorted(FIXTURES)))
    a = FIXTURES[name]
    arr = arrangement(a.graph)
    h = arr.halfspace(draw(st.integers(0, arr.n_classes - 1)),
                      draw(st.integers(0, 1)))
    inside = [arr.halfspace(c, s) for c in range(arr.n_classes)
              for s in (0, 1)
              if (c, s) == h.key or halfspace_leq(arr.halfspace(c, s), h)]
    k = draw(st.sampled_from(inside))
    L = draw(st.integers(0, 6 if name == "line" else 3))
    return a, h, k, L


@settings(max_examples=200, deadline=None)
@given(search_cases())
def test_searches_match_reference_loops(case):
    a, h, k, L = case
    assert hyperplane_orbit(a, h, L) == reference_orbit(a, h, L)
    assert stabilizer_words(a, h, L) == reference_stabilizer(a, h, L)
    assert find_flipping(a, h, L) == reference_flipping(a, h, L)
    assert find_double_skewer(a, k, h, L) == \
        reference_double_skewer(a, k, h, L)


def test_walk_pairs_each_reduced_word_with_its_transport():
    a = FIXTURES["grid"]
    hs = arrangement(a.graph).halfspace(3, 1)
    got = walked(a, hs, 3, min_len=2)
    words = list(reduced_words(a.gens, 3, min_len=2))
    assert [w for w, _ in got] == words
    assert [res for _, res in got] == transport(a, words, [hs] * len(words))
    assert any(not res.ok for _, res in got)


def identity_action(pairs) -> PartialAction:
    """The alphabet ``pairs`` acting trivially on one edge."""
    gens = Generators(pairs)
    return PartialAction(builders.path_graph(2), gens,
                         {nm: [0, 1] for nm in gens.names})


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([("a", "A"), ("b", "B"), ("s", "s"),
                                 ("t", "t")]), min_size=1, max_size=3,
                unique=True),
       st.data())
def test_walk_spells_the_reduced_words(pairs, data):
    a = identity_action(pairs)
    hs = arrangement(a.graph).halfspace(0, 0)
    L = data.draw(st.integers(0, 5))
    min_len = data.draw(st.integers(0, L))
    assert [w for w, _ in walked(a, hs, L, min_len)] == \
        list(reduced_words(a.gens, L, min_len))


def test_walk_spells_a_self_inverse_name_twice():
    # Generators lists a self-inverse name twice, so a word holding it
    # comes more than once, in the walk as in reduced_words
    a = identity_action([("s", "s"), ("t", "T")])
    assert a.gens.names == ("s", "s", "t", "T")
    words = [w for w, _ in walked(a, arrangement(a.graph).halfspace(0, 0), 2)]
    assert words[:5] == [(), ("s",), ("s",), ("t",), ("T",)]
    assert len(words) == 15 and len(set(words)) == 10


@st.composite
def walk_cases(draw):
    """A fixture action, or a copy with some generator maps punched
    undefined at random vertices, so that carried edges leave the domain in
    the middle of words; a halfspace, L <= 5 and min_len <= 2."""
    a = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))]
    holes = draw(st.lists(st.tuples(st.sampled_from(a.gens.names),
                                    st.integers(0, a.graph.n - 1)),
                          max_size=8))
    if holes:
        maps = {nm: list(mp) for nm, mp in a.maps.items()}
        for nm, v in holes:
            maps[nm][v] = -1
        a = PartialAction(a.graph, a.gens, maps, a.base)
    arr = arrangement(a.graph)
    hs = arr.halfspace(draw(st.integers(0, arr.n_classes - 1)),
                       draw(st.integers(0, 1)))
    return a, hs, draw(st.integers(0, 5)), draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(walk_cases())
def test_memoised_walk_matches_per_word_transports(case):
    a, hs, L, min_len = case

    def row(w, res):
        return (w, res.halfspace.key if res.ok else None, res.margin,
                res.fail_step)

    words = list(reduced_words(a.gens, L, min_len))
    assert [row(w, res) for w, res in walked(a, hs, L, min_len)] == \
        [row(w, res) for w, res in zip(words, transport(a, words,
                                                       [hs] * len(words)))]


# -- the batched walk against the scalar loops it replaced ------------------
# (reference_carry_class and punched_actions live in test_schreier)

def reference_scalar_transport(a, key, word):
    arr = arrangement(a.graph)
    fd = a.frontier_dist() if a.truncated else None
    pos, t, h, margin, fail = reference_carry_class(
        arr, a.maps, fd, *key, word, int(arr.class_start[key[0]]))
    return (None if pos is None else arr.oriented_edge_key(t, h),
            margin, fail)


def reference_walk(a, hs, L, min_len=0):
    """The dict-memoised word walk that the layer walk replaced, as rows
    (word, image key, margin, fail_step)."""
    arr = hs.arr
    fd = a.frontier_dist() if a.truncated else None
    cls, side = hs.key
    prev, cur, cur_len = {}, {}, -1
    rows = []
    for w in reduced_words(a.gens, L, min_len):
        if len(w) != cur_len:
            prev, cur, cur_len = cur, {}, len(w)
        st = prev.get(w[1:])
        if st is None:
            st = reference_carry_class(arr, a.maps, fd, cls, side, w,
                                       int(arr.class_start[cls]))
        elif st[0] is not None:
            st = reference_carry_class(arr, a.maps, fd, cls, side, w, st[0],
                                       st[1:4])
        if cur_len < L:
            cur[w] = st
        pos, t, h, margin, fail = st
        rows.append((w, None if pos is None else arr.oriented_edge_key(t, h),
                     margin, fail))
    return rows


@settings(max_examples=150, deadline=None)
@given(punched_actions(), st.integers(0, 5), st.integers(0, 2))
def test_layer_walk_equals_the_scalar_walk(case, L, min_len):
    a, hs = case

    def row(w, res):
        return (w, res.halfspace.key if res.ok else None, res.margin,
                res.fail_step)

    assert [row(w, res) for w, res in walked(a, hs, L, min_len)] == \
        reference_walk(a, hs, L, min_len)


@settings(max_examples=150, deadline=None)
@given(punched_actions(), st.data())
def test_transport_equals_the_scalar_step(case, data):
    a, hs = case
    word = reduce_word(data.draw(st.lists(st.sampled_from(a.gens.names),
                                          max_size=10)), a.gens)
    res = a.transport_halfspace(word, hs)
    assert (res.halfspace.key if res.ok else None, res.margin,
            res.fail_step) == reference_scalar_transport(a, hs.key, word)


def test_first_image_asks_accept_once_per_image_key_up_to_the_hit():
    a = FIXTURES["grid"]
    hs = arrangement(a.graph).halfspace(3, 1)
    seen = []   # images of |w| = 1..4 in order of first occurrence
    for w in reduced_words(a.gens, 4, min_len=1):
        res = a.transport_halfspace(w, hs)
        if res.ok and res.halfspace not in seen:
            seen.append(res.halfspace)
    asked = []
    miss = first_image(a, hs, 4, lambda img: asked.append(img) and False)
    assert not miss.found and asked == seen
    asked.clear()
    hit = first_image(a, hs, 4, lambda img: asked.append(img) or
                      img == seen[4])
    assert hit == reference_search(a, hs, 4, lambda img: img == seen[4])
    assert asked == seen[:5]


def test_truncated_flag_and_first_witness_on_a_truncated_grid():
    # On the 7x7 grid the wall between x=2 and x=3 stays in the ball under
    # every word of length <= 2 and leaves it under xxx; y fixes it, so the
    # orbit reaches the wall itself by (), y, Y, yy, ... and keeps ().
    a = FIXTURES["grid"]
    arr = arrangement(a.graph)
    idx = a.graph.label_index
    wall = arr.halfspace_of_oriented_edge(idx["2,3"], idx["3,3"])
    inner = arr.halfspace_of_oriented_edge(idx["3,3"], idx["4,3"])
    for L, truncated in ((2, False), (3, True)):
        orb = hyperplane_orbit(a, wall, L)
        assert orb.truncated is truncated
        assert orb.images[0] == (wall, ())
        assert find_flipping(a, wall, L) == SearchResult(None,
                                                          truncated=truncated)
        assert find_double_skewer(a, inner, wall, L) == \
            SearchResult(None, truncated=truncated)
    assert stabilizer_words(a, wall, 2) == [(), ("y",), ("Y",), ("y", "y"),
                                            ("Y", "Y")]
    with pytest.raises(ActionError):
        find_double_skewer(a, wall.complement, wall, 2)


# -- quadruple refinement -------------------------------------------------

def test_refine_quadruple_matches_reference_on_the_tree():
    a = FIXTURES["f2"]
    arr = arrangement(a.graph)
    idx = a.graph.label_index
    side = lambda u, v: arr.halfspace_of_oriented_edge(idx[u], idx[v])
    quads = [(side("1", "a"), side("1", "A"), side("1", "b"),
              side("1", "B")),
             (side("a", "aa"), side("a", "ab"), side("A", "Ab"),
              side("b", "ba")),
             (side("a", "1"), side("a", "aa"), side("a", "ab"),
              side("a", "aB"))]
    outcomes = set()
    for quad in quads:
        for L in range(5):
            ref = reference_refine(a, quad, L)
            if ref is None:
                assert _find_ss_nested(a, quad, L) is None
                with pytest.raises(SearchBudgetExhausted):
                    _refine_quadruple(a, quad, L)
                outcomes.add("no pair")
                continue
            inner, want = ref
            assert _find_ss_nested(a, quad, L) == inner
            if None in want:
                with pytest.raises(SchottkyError, match="could not transport"):
                    _refine_quadruple(a, quad, L)
                outcomes.add("no image")
            else:
                assert _refine_quadruple(a, quad, L) == want
                outcomes.add("refined")
    assert outcomes == {"no pair", "no image", "refined"}


def tree_times_edge_action() -> PartialAction:
    """F2 acting on the tree coordinate of (radius-4 ball) x (one edge).
    The edge's hyperplane crosses every other one, so no two hyperplanes
    are strongly separated and no quadruple can be refined."""
    ball = builders.free_group_ball(4)
    f2 = builders.free_group_action(4)
    g = product_graph(ball, builders.path_graph(2))
    idx = g.label_index
    maps = {nm: [-1] * g.n for nm in f2.gens.names}
    for lab, v in idx.items():
        t, i = lab.split(",")
        for nm in f2.gens.names:
            j = f2.maps[nm][ball.label_index[t]]
            if j >= 0:
                maps[nm][v] = idx[f"{ball.labels[j]},{i}"]
    return PartialAction(g, f2.gens, maps, base=idx["1,0"])


REFINE_FAILED = ("refinement failed: no strongly separated nested pair "
                 "within budget")


def test_refinement_without_strongly_separated_pair_is_inconclusive(
        tmp_path, capsys):
    a = tree_times_edge_action()
    assert a.validate().valid
    arr = arrangement(a.graph)
    idx = a.graph.label_index
    side = lambda u, v: arr.halfspace_of_oriented_edge(idx[u + ",0"],
                                                       idx[v + ",0"])
    triple = (side("1", "b"), side("1", "a"), side("1", "A"))
    with pytest.raises(SearchBudgetExhausted) as exc:
        build_quadruple(a, triple, 3)
    assert str(exc.value) == REFINE_FAILED
    gpath, apath = tmp_path / "tx.graph", tmp_path / "tx.action"
    gpath.write_text(graph_to_text(a.graph))
    apath.write_text(action_to_text(a))
    assert run(["quadruple", str(gpath), str(apath), "--triple",
                " ".join(map(repr, triple)), "-L", "3"]) == 3
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"inconclusive: {REFINE_FAILED}\n"
