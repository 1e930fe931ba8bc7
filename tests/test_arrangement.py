"""The array-backed Arrangement against a reference copy of the
union-find and per-class propagation construction, the non-median guard on
hand-built graphs, and the hot readers that index the CSR class storage."""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubekit import builders
from cubekit.action import Generators, PartialAction
from cubekit.hyperplanes import (Arrangement, HyperplaneError, crosses,
                                 product_graph, strongly_separated)
from cubekit.median import MedianGraph, squares

NOT_MEDIAN = "inconsistent edge orientations; graph is not median"
PARALLEL = "square with both edge pairs parallel"


def edge_tuples(g):
    return [tuple(e) for e in g.edges.tolist()]


def orientation_of(arr):
    """The arrangement's (tail, head) per edge, as tuples."""
    return [tuple(e) for e in arr.orientation.tolist()]


def adjacency(g):
    """Ascending neighbour lists, read from the edge list alone."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]


def reference_squares(g):
    """All 4-cycles (a, b, c, d), a the least corner, b < d."""
    out = []
    adj = adjacency(g)
    for a in range(g.n):
        nbrs = [x for x in adj[a] if x > a]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                b, d = nbrs[i], nbrs[j]
                common = set(adj[b]) & set(adj[d])
                for c in sorted(common):
                    if c != a and c > a:
                        out.append((a, b, c, d))
    return out


def reference_arrangement(g):
    """(squares, edge_class, orientation, class edge lists, cross sets) by
    union-find over the square links and one propagation BFS per class from
    its least edge, oriented low -> high."""
    squares = reference_squares(g)
    m = g.m
    edges = edge_tuples(g)
    index = {e: i for i, e in enumerate(edges)}
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    opp = [[] for _ in range(m)]

    def link(p, q, r, s):
        # edge (p,q) opposite edge (r,s), correspondence p<->r, q<->s
        e1 = index[(p, q) if p < q else (q, p)]
        e2 = index[(r, s) if r < s else (s, r)]
        pa, pb = find(e1), find(e2)
        if pa != pb:
            parent[pa] = pb
        opp[e1].append((e2, p, q, r, s))
        opp[e2].append((e1, r, s, p, q))

    for a, b, c, d in squares:
        link(a, b, d, c)
        link(b, c, a, d)

    roots = {}
    edge_class = [0] * m
    class_edges = []
    for e in range(m):
        r = find(e)
        if r not in roots:
            roots[r] = len(class_edges)
            class_edges.append([])
        edge_class[e] = roots[r]
        class_edges[roots[r]].append(e)

    orientation = [None] * m
    for members in class_edges:
        rep = members[0]
        orientation[rep] = edges[rep]
        q = deque([rep])
        while q:
            e = q.popleft()
            t, h = orientation[e]
            for f, p, qq, r, s in opp[e]:
                want = (r, s) if (p, qq) == (t, h) else (s, r)
                if orientation[f] is None:
                    orientation[f] = want
                    q.append(f)
                elif orientation[f] != want:
                    raise HyperplaneError(NOT_MEDIAN)

    cross = [set() for _ in class_edges]
    for a, b, c, d in squares:
        c1 = edge_class[index[(a, b)]]
        c2 = edge_class[index[(b, c) if b < c else (c, b)]]
        if c1 == c2:
            raise HyperplaneError(PARALLEL)
        cross[c1].add(c2)
        cross[c2].add(c1)
    return squares, edge_class, orientation, class_edges, cross


def _validated(n, edges):
    g = MedianGraph(n, edges)
    g._mark_validated()
    return g


def relabel(g, perm):
    """g with vertex v renamed perm[v], marked validated like g."""
    return _validated(g.n, [(perm[u], perm[v]) for u, v in g.edges.tolist()])


def assert_matches_reference(g):
    squares, edge_class, orientation, class_edges, cross = \
        reference_arrangement(g)
    arr = Arrangement(g)
    assert arr.squares.dtype == arr.edge_class.dtype == np.int32
    assert arr.orientation.dtype == np.int32
    assert arr.squares.shape == (len(squares), 4)
    assert arr.edge_class.shape == (g.m,)
    assert arr.orientation.shape == (g.m, 2)
    assert [tuple(s) for s in arr.squares.tolist()] == squares
    assert arr.edge_class.tolist() == edge_class
    assert orientation_of(arr) == orientation
    assert arr.n_classes == len(class_edges)
    assert [arr.class_edges(c) for c in range(arr.n_classes)] == class_edges
    assert arr.cross == {c: s for c, s in enumerate(cross) if s}
    assert len(arr.class_start) == arr.n_classes + 1
    for c in range(arr.n_classes):
        assert arr.rep_oriented(c) == orientation[class_edges[c][0]]
    return arr


@st.composite
def median_graphs(draw):
    kind = draw(st.sampled_from(["product", "tree", "grid", "cube", "ball",
                                 "ball x grid"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "product":
        g = builders.random_product(rng)[0]
    elif kind == "tree":
        g = builders.random_tree(draw(st.integers(1, 40)), rng)
    elif kind == "grid":
        g = builders.grid_graph(draw(st.integers(1, 7)),
                                draw(st.integers(1, 7)))
    elif kind == "cube":
        g = builders.hypercube(draw(st.integers(0, 5)))
    elif kind == "ball":
        g = builders.free_group_ball(draw(st.integers(0, 5)))
    else:
        g = product_graph(builders.free_group_ball(2),
                          builders.grid_graph(3, 3))
    if draw(st.booleans()):
        # another base vertex and another edge order: classes whose least
        # edge points towards vertex 0 must be flipped
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = relabel(g, perm)
    return g


@settings(max_examples=150, deadline=None)
@given(median_graphs())
def test_arrangement_matches_reference(g):
    assert_matches_reference(g)


def test_tree_shortcut_agrees_with_full_square_search():
    rng = random.Random(7)
    for n in (1, 2, 3, 10, 60):
        t = builders.random_tree(n, rng)
        assert t.m == t.n - 1
        assert squares(t).tolist() == reference_squares(t) == []
        arr = assert_matches_reference(t)
        assert arr.edge_class.tolist() == list(range(t.m))
    assert_matches_reference(builders.path_graph(0))
    # one edge more than a tree goes through the full search
    g = builders.grid_graph(2, 2)
    assert g.m == g.n
    assert [tuple(s) for s in squares(g).tolist()] \
        == reference_squares(g) == [(0, 1, 3, 2)]


def test_tree_arrangement_stores_no_cross_entry():
    # only a class that crosses something has a cross entry, and on a tree
    # no class does; the relations read the missing entries as empty
    rng = random.Random(11)
    for t in (builders.free_group_ball(3), builders.random_tree(30, rng),
              builders.path_graph(1)):
        arr = Arrangement(t)
        assert arr.n_classes == t.m and arr.cross == {}
        hs = arr.hyperplanes()
        assert not any(crosses(a, b) for a in hs for b in hs)
        assert all(strongly_separated(a, b)
                   for i, a in enumerate(hs) for b in hs[i + 1:])


def test_flat_storage_shares_objects():
    # an edge that keeps its g.edges order has the same row in the
    # orientation
    g = builders.free_group_ball(3)
    arr = Arrangement(g)
    o = arr.orientation
    kept = o[:, 0] < o[:, 1]
    assert (o[kept] == g.edges[kept]).all()
    assert (o[~kept] == g.edges[~kept, ::-1]).all()
    arr = Arrangement(product_graph(builders.free_group_ball(1),
                                    builders.path_graph(2)))
    assert arr.cross[0] == {1, 2, 3, 4}


# -- non-median guard on hand-built graphs --------------------------------

def _raises(g, message):
    with pytest.raises(HyperplaneError) as exc:
        Arrangement(g)
    assert str(exc.value) == message


def test_guard_k4_is_not_median():
    _raises(_validated(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            NOT_MEDIAN)


@pytest.mark.parametrize("edges", [
    [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],
    # vertex 0 on the three-vertex side
    [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]])
def test_guard_k23_has_a_parallel_square(edges):
    _raises(_validated(5, edges), PARALLEL)


def test_guard_twisted_ladder_is_not_median():
    # Moebius ladder on 10 vertices: bipartite, no square with both pairs
    # parallel, and the rung class returns to its first rung reversed
    g = _validated(10, [(i, (i + 1) % 10) for i in range(10)]
                   + [(i, i + 5) for i in range(5)])
    with pytest.raises(HyperplaneError, match="not median"):
        reference_arrangement(g)
    _raises(g, NOT_MEDIAN)


@pytest.mark.parametrize("g,orientation", [
    (_validated(6, [(i, (i + 1) % 6) for i in range(6)]),
     [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]),
    (builders.cube_minus_vertex(),
     [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6), (4, 5),
      (4, 6)]),
    # a 4-cycle with a 4-edge path between two opposite corners
    (_validated(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6),
                    (2, 6)]),
     [(0, 1), (0, 3), (0, 4), (1, 2), (3, 2), (2, 6), (4, 5), (5, 6)]),
], ids=["C6", "cube-minus-vertex", "C4-with-4-path"])
def test_guard_passes_bipartite_graphs_with_consistent_squares(g,
                                                               orientation):
    g._mark_validated()
    arr = Arrangement(g)
    assert orientation_of(arr) == orientation
    assert orientation_of(arr) == reference_arrangement(g)[2]


@pytest.mark.parametrize("g", [
    builders.triangle(),
    # a 4-cycle with a 3-edge path between two opposite corners: a 5-cycle
    _validated(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (2, 5)]),
], ids=["K3", "C4-with-3-path"])
def test_guard_rejects_an_edge_level_with_vertex_0(g):
    # not bipartite: some edge has both ends equally far from vertex 0, so
    # it has no orientation away from vertex 0
    g._mark_validated()
    _raises(g, NOT_MEDIAN)


# -- hot readers index the CSR storage -------------------------------------

def test_rep_oriented_and_transport_order_on_a_grid():
    g = relabel(builders.grid_graph(5, 4), _shuffled(20, seed=2))
    arr = Arrangement(g)
    g._arrangement = arr
    for c in range(arr.n_classes):
        least = min(e for e in range(g.m) if arr.edge_class[e] == c)
        assert arr.rep_oriented(c) == orientation_of(arr)[least]
        assert arr.rep_oriented(c) == tuple(g.edges[least].tolist())
    # s sends the i-th dual edge of class c onto the least edge of another
    # class others[i]; with the first k dual edges left undefined, the
    # image names which dual edge the transport carried
    c = max(range(arr.n_classes), key=lambda k: len(arr.class_edges(k)))
    edges = arr.class_edges(c)
    others = [k for k in range(arr.n_classes) if k != c]
    assert len(edges) == 5 and len(others) >= len(edges)
    for k in range(len(edges) + 1):
        s = [-1] * g.n
        for i in range(k, len(edges)):
            t, h = orientation_of(arr)[edges[i]]
            s[t], s[h] = arr.rep_oriented(others[i])
        a = PartialAction(g, Generators([("s", "S")]),
                          {"s": s, "S": [-1] * g.n})
        want = ((others[k], 1), None, None) if k < len(edges) \
            else (None, None, 1)
        res = a.transport_halfspace(("s",), arr.halfspace(c, 1))
        assert (res.halfspace.key if res.ok else None, res.margin,
                res.fail_step) == want


def _shuffled(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm
