import hashlib
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sageev_reference as ref
from cubekit import builders
from cubekit.hyperplanes import arrangement
from cubekit.median import graph_to_text
from cubekit.sageev import (MAX_WALLS, Wallspace, WallspaceError,
                            build_dual, parse_wallspace, roundtrip_check,
                            wallspace_of_graph, wallspace_to_text)

CROSSING = """\
p 00
p 01
p 10
p 11
w 0: 00 01 | 10 11
w 1: 00 10 | 01 11
"""


def test_parse_and_render_roundtrip():
    w = parse_wallspace(CROSSING)
    assert w.n == 4 and w.k == 2
    assert np.array_equal(parse_wallspace(wallspace_to_text(w)).walls,
                          w.walls)
    assert wallspace_to_text(w) == CROSSING


def test_wall_canonicalization():
    # either side may be given; the row is True on the side without point 0
    assert Wallspace(list("abcd"), [[0, 0, 1, 1]]).walls.tolist() == \
        Wallspace(list("abcd"), [[1, 1, 0, 0]]).walls.tolist() == \
        [[False, False, True, True]]


def test_invalid_wallspaces_rejected():
    with pytest.raises(WallspaceError, match="^wall 0: empty side$"):
        Wallspace(["a", "b"], [[1, 1]])
    with pytest.raises(WallspaceError, match="^wall 0: not a bipartition$"):
        parse_wallspace("p a\np b\np c\nw 0: a | b\n")  # misses c
    w = [1, 0, 0]
    with pytest.raises(WallspaceError, match="^wall 1: duplicate$"):
        Wallspace(["a", "b", "c"], [w, w])
    # walls are checked in order: a duplicate before a bad wall comes first
    with pytest.raises(WallspaceError, match="^wall 1: duplicate$"):
        parse_wallspace("p a\np b\np c\nw 0: a | b c\nw 1: c b | a\n"
                        "w 2: a | b\n")


def test_three_pairwise_crossing_walls_give_q3():
    # ground of 8 points = corners of a cube, walls = coordinate splits;
    # every orientation is consistent, so the dual is Q3
    pts = [format(i, "03b") for i in range(8)]
    walls = [[(i >> b) & 1 for i in range(8)] for b in range(3)]
    dual = build_dual(Wallspace(pts, walls))
    q3 = builders.hypercube(3)
    assert (dual.n, dual.m) == (q3.n, q3.m)
    assert sorted(dual.labels) == sorted(q3.labels)


def test_three_facing_walls_give_star():
    # walls {i} | rest for i = 0,1,2: picking two singleton sides is
    # inconsistent, leaving exactly 4 orientations -> K_{1,3}
    walls = [[j == i for j in range(4)] for i in range(3)]
    dual = build_dual(Wallspace(list("wxyz"), walls))
    assert dual.n == 4 and dual.m == 3
    degs = sorted(len(dual.neighbours(v)) for v in range(dual.n))
    assert degs == [1, 1, 1, 3]


def test_wall_capacity_limit():
    pts = list(range(30))
    walls = [[j == i for j in pts] for i in range(25)]
    with pytest.raises(WallspaceError):
        build_dual(Wallspace([str(p) for p in pts], walls))


def test_roundtrip_on_fixture_corpus():
    rng = random.Random(17)
    corpus = [builders.hypercube(2), builders.hypercube(3),
              builders.path_graph(5), builders.star(4),
              builders.grid_graph(3, 3), builders.free_group_ball(2),
              builders.random_tree(12, rng)]
    corpus += [builders.random_product(rng)[0] for _ in range(5)]
    for g in corpus:
        res = roundtrip_check(g)
        assert res.ok, res.reason
        # the isomorphism must be a genuine graph isomorphism
        iso = res.iso
        assert len(set(iso.values())) == g.n


def test_wallspace_of_graph_walls_are_halfspaces():
    g = builders.path_graph(4)
    w = wallspace_of_graph(g)
    assert w.k == 3
    assert {frozenset(np.flatnonzero(row == s).tolist())
            for row in w.walls for s in (0, 1)} == \
        {frozenset(s) for s in ({0}, {1, 2, 3}, {0, 1}, {2, 3},
                                {0, 1, 2}, {3})}


def wall_corpus():
    """Grids up to 6×6, Q1–Q5, F2 balls of radius 0–4, random products and
    random trees of up to 25 vertices, in a fixed order."""
    rng = random.Random(30)
    corpus = [builders.grid_graph(w, h) for w in range(1, 7)
              for h in range(w, 7)]
    corpus += [builders.hypercube(n) for n in range(1, 6)]
    corpus += [builders.free_group_ball(r) for r in range(5)]
    corpus += [builders.random_product(rng)[0] for _ in range(12)]
    corpus += [builders.random_tree(rng.randrange(2, 26), rng)
               for _ in range(12)]
    return corpus


# SHA-256 of the corpus's wallspace texts, joined in corpus order,
# computed when each wall still read both of its sides, so how a wall is
# read cannot change a byte of the text
WALLSPACE_TEXT_SHA256 = \
    "3cc73293556cd650d7a93baf0655101fe157766c620696e34b143c18a5ab2f25"


def test_wallspace_texts_of_the_corpus_are_pinned():
    texts = "".join(wallspace_to_text(wallspace_of_graph(g))
                    for g in wall_corpus())
    assert hashlib.sha256(texts.encode()).hexdigest() == \
        WALLSPACE_TEXT_SHA256


def nx_graph(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges.tolist())
    return out


def test_each_wall_is_split_by_its_class_as_networkx_components():
    # deleting a class's edges leaves two components: the one of vertex 0
    # is the wall's False side, the other its True side
    for g in wall_corpus():
        arr, cut = arrangement(g), nx_graph(g)
        walls = wallspace_of_graph(g).walls
        assert len(walls) == arr.n_classes
        for c, wall in enumerate(walls):
            edges = g.edges[arr.class_edges(c)].tolist()
            cut.remove_edges_from(edges)
            near = nx.node_connected_component(cut, 0)
            assert set(np.flatnonzero(~wall).tolist()) == near
            assert set(np.flatnonzero(wall).tolist()) == \
                set(range(g.n)) - near
            assert nx.number_connected_components(cut) == 2
            cut.add_edges_from(edges)


def test_roundtrip_isomorphism_agrees_with_networkx():
    # iso maps every edge of g onto an edge of the dual, one to one, and
    # networkx finds the two graphs isomorphic on its own
    small = [g for g in wall_corpus()
             if arrangement(g).n_classes <= MAX_WALLS]
    assert len(small) == 53  # all but the F2 balls of radius 3 and 4
    for g in small:
        res = roundtrip_check(g)
        dual = build_dual(wallspace_of_graph(g))
        assert res.ok and sorted(res.iso) == list(range(g.n))
        assert sorted(res.iso.values()) == list(range(dual.n))
        assert {frozenset((res.iso[u], res.iso[v]))
                for u, v in g.edges.tolist()} == \
            {frozenset(e) for e in dual.edges.tolist()}
        assert nx.is_isomorphic(nx_graph(g), nx_graph(dual))


# -- properties against the reference (tests/sageev_reference.py) ----------

def outcome(build):
    try:
        return build()
    except (WallspaceError, ref.WallspaceError) as e:
        return f"error: {e}"


def reference_rows(w):
    """The reference's walls as rows, True on side b."""
    return [[x in wall.b for x in range(w.n)] for wall in w.walls]


@st.composite
def wall_rows(draw):
    """k <= 10 rows over n <= 12 points: distinct walls, drawn as integers,
    and at times one more row that is constant (an empty side) or repeats
    or complements another."""
    n = draw(st.integers(1, 12))
    full = (1 << n) - 1
    codes = draw(st.lists(st.integers(1, max(full - 1, 1)), max_size=10,
                          unique_by=lambda c: min(c, full ^ c)))
    codes = [c for c in codes if c != full]  # n = 1 has no wall
    extra = draw(st.sampled_from([None, None, 0, full, "repeat", "flip"]))
    if extra is not None and (codes or extra in (0, full)):
        c = extra if extra in (0, full) else draw(st.sampled_from(codes))
        codes.insert(draw(st.integers(0, len(codes))),
                     full ^ c if extra == "flip" else c)
    return n, [[(c >> x) & 1 == 1 for x in range(n)] for c in codes]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wall_rows())
def test_dual_of_random_rows_matches_the_reference(drawn):
    n, rows = drawn
    labels = [f"q{x}" for x in range(n)]
    walls = [ref.Wall.of([x for x in range(n) if not r[x]],
                         [x for x in range(n) if r[x]]) for r in rows]
    ours = outcome(lambda: graph_to_text(build_dual(Wallspace(labels, rows))))
    theirs = outcome(lambda: graph_to_text(
        ref.build_dual(ref.Wallspace(labels, walls))))
    assert ours == theirs


EDITS = ("delete", "repeat", "swap", "unknown", "flip")


@st.composite
def edited_wallspace_texts(draw):
    """The text of :func:`wall_rows`, its points in a drawn order, with one
    wall line edited: a label deleted, repeated, swapped for another
    point's, or replaced by an unknown one, or the two sides swapped."""
    n, rows = draw(wall_rows())
    labels = [f"q{x}" for x in range(n)]
    order = draw(st.permutations(range(n)))
    lines = [f"p {labels[x]}" for x in order]
    walls = [[[labels[x] for x in order if r[x] == s] for s in (0, 1)]
             for r in rows]
    if walls:
        i, edit = draw(st.integers(0, len(walls) - 1)), draw(
            st.sampled_from(EDITS))
        sides = walls[i]
        s = draw(st.integers(0, 1))
        if edit == "flip":
            sides.reverse()
        elif sides[s]:
            t = draw(st.integers(0, len(sides[s]) - 1))
            if edit == "delete":
                del sides[s][t]
            elif edit == "repeat":
                side = sides[draw(st.integers(0, 1))]
                side.insert(draw(st.integers(0, len(side))), sides[s][t])
            elif edit == "swap":
                sides[s][t] = draw(st.sampled_from(labels))
            else:
                sides[s][t] = "zz"
    lines += [f"w {i}: {' '.join(l)} | {' '.join(r)}"
              for i, (l, r) in enumerate(walls)]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(edited_wallspace_texts())
def test_parse_of_edited_texts_matches_the_reference(text):
    def ours():
        w = parse_wallspace(text)
        return w.labels, w.walls.tolist()

    def theirs():
        w = ref.parse_wallspace(text)
        return w.labels, reference_rows(w)

    assert outcome(ours) == outcome(theirs)
