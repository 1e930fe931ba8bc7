"""The numpy graph storage against networkx and against a reference copy of
the list-based constructor it replaced.

Hypothesis graphs (n = 0 and n = 1 included) are built from edge lists in
every accepted form: lists of tuples, numpy arrays, ``zip`` objects and
lists mixing array rows and tuples.  Neighbour lists, edge order, edge ids,
every BFS row and the multi-source frontier row are compared with
networkx, through the deque BFS of small graphs and the numpy one of large
graphs alike.  Malformed edge lists must raise the reference's exact
``GraphError`` text.  The frontier, given as a set, range, list with
repeats, tuple or array, is stored as its sorted int32 vertex ids.
"""

from collections import deque
from itertools import islice

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cubekit.median as m
from cubekit.median import (GraphError, MedianGraph, bfs_distances,
                            check_median, distance_rows)


def reference_graph(n, edges, labels=None, frontier=()):
    """The list-based constructor that the numpy storage replaced: its
    checks in their order, then (edges, adjacency lists, vertex-0 row)."""
    canon = []
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop edge at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range")
        canon.append((u, v) if u < v else (v, u))
    canon.sort()
    for e, f in zip(canon, islice(canon, 1, None)):
        if e == f:
            raise GraphError(f"duplicate edge {e}")
    frontier = frozenset(frontier)
    if frontier and not (0 <= min(frontier) and max(frontier) < n):
        bad = min(f for f in frontier if not 0 <= f < n)
        raise GraphError(f"frontier vertex {bad} out of range")
    adj = [[] for _ in range(n)]
    for u, v in canon:
        adj[u].append(v)
        adj[v].append(u)
    labels = tuple(labels) if labels is not None \
        else tuple(str(i) for i in range(n))
    if len(labels) != n:
        raise GraphError("label table length mismatch")
    dist = [-1] * n
    if n:
        dist[0] = 0
        q = deque([0])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    q.append(v)
    if -1 in dist:
        raise GraphError("graph is disconnected")
    return canon, [sorted(a) for a in adj], dist


def as_form(edges, form):
    """The edge list in one of the forms the constructor accepts."""
    if form == "array":
        return np.array(edges, np.int64).reshape(-1, 2)
    if form == "zip":
        return zip([u for u, _ in edges], [v for _, v in edges])
    if form == "mixed":  # array rows, then tuples
        half = len(edges) // 2
        return list(np.array(edges[:half], np.int32).reshape(-1, 2)) \
            + edges[half:]
    return edges


FORMS = st.sampled_from(["list", "array", "zip", "mixed"])


@st.composite
def shuffled_connected(draw):
    """(n, edges): a random tree on 0-14 vertices plus chords, under a
    random vertex numbering, edge order and orientation."""
    n = draw(st.integers(0, 14))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if n > 1:
        for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  max_size=8)):
            if u != v:
                edges.add((min(u, v), max(u, v)))
    perm = draw(st.permutations(range(n)))
    edges = [(perm[u], perm[v]) if draw(st.booleans()) else
             (perm[v], perm[u]) for u, v in sorted(edges)]
    return n, draw(st.permutations(edges))


# The small-graph deque BFS, and with the size threshold at 0 the numpy one
BFS_KINDS = pytest.mark.parametrize("deque_max", [m._DEQUE_BFS_MAX, 0],
                                    ids=["deque", "levels"])


@BFS_KINDS
@settings(max_examples=150, deadline=None)
@given(shuffled_connected(), FORMS, st.data())
def test_storage_matches_networkx(deque_max, case, form, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(m, "_DEQUE_BFS_MAX", deque_max)
        check_storage(*case, form, data)


def check_storage(n, edges, form, data):
    g = MedianGraph(n, as_form(edges, form))
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    canon = sorted((min(u, v), max(u, v)) for u, v in edges)
    assert g.n == n and g.m == len(canon)
    assert g.edges.dtype == np.int32 and g.edges.tolist() == \
        [list(e) for e in canon]
    assert g.codes.tolist() == [u * n + v for u, v in canon]
    assert g.indptr.dtype == g.indices.dtype == np.int32
    assert [g.neighbours(v) for v in range(n)] == \
        [sorted(h[v]) for v in range(n)]
    nb, counts = g.neighbours_of(np.arange(n))
    assert nb.tolist() == g.indices.tolist()
    assert counts.tolist() == [h.degree(v) for v in range(n)]
    # edge ids: every edge in both orientations, every other pair, loops
    # and ids outside 0..n-1, which must not alias an edge's code
    for i, (u, v) in enumerate(canon):
        assert g.edge_id(u, v) == g.edge_id(v, u) == i
    outside = [-2, -1, n, n + 1, n + 2]
    pairs = [(u, v) for u in [*range(n), *outside]
             for v in [*range(n), *outside]]
    for u, v in pairs:
        want = h.has_edge(u, v)
        assert g.has_edge(u, v) == want
        if not want:
            with pytest.raises(KeyError):
                g.edge_id(u, v)
    us, vs = np.array(pairs).T
    assert g.edge_ids(us, vs).tolist() == [
        canon.index((min(u, v), max(u, v))) if h.has_edge(u, v) else -1
        for u, v in zip(us.tolist(), vs.tolist())]
    # every BFS row, one at a time and all at once, and a frontier row
    rows = [g.dist_from(s) for s in range(n)]
    for s in range(n):
        want = nx.single_source_shortest_path_length(h, s)
        assert rows[s].dtype == np.int32
        assert rows[s].tolist() == [want[v] for v in range(n)]
        assert g.dist(s, n - 1) == want[n - 1]
    if n:
        assert distance_rows(g, np.arange(n), np.arange(n)).tolist() == \
            [r.tolist() for r in rows]
        sources = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        want = nx.multi_source_dijkstra_path_length(h, sources)
        for form in (sources, np.array(sorted(sources), np.int32)):
            assert bfs_distances(g, form).tolist() == \
                [want[v] for v in range(n)]
    assert g.is_bipartite() == nx.is_bipartite(h)


def test_empty_and_single_vertex_graphs():
    for n in (0, 1):
        g = MedianGraph(n, [])
        assert g.m == 0 and g.edges.shape == (0, 2)
        assert g.indptr.tolist() == [0] * (n + 1)
        assert g.dist_from(0).tolist() == [0] * n
        assert not g.has_edge(0, 0) and not g.has_edge(0, 1)
        assert g.edge_ids(np.array([0, -1]), np.array([1, 0])).tolist() == \
            [-1, -1]
    with pytest.raises(GraphError, match="^empty graph$"):
        check_median(MedianGraph(0, []))
    assert check_median(MedianGraph(1, [])).ok


@st.composite
def malformed(draw):
    """(n, edges, labels, frontier): a connected graph with one to three
    faults, each inserted anywhere: a loop, an edge with an end out of
    range (or both faults at once, as a loop out of range), a duplicate in
    either orientation, frontier ids out of range, a label table of the
    wrong length, or an edge taken out (which may disconnect it)."""
    n, edges = draw(shuffled_connected())
    edges = list(edges)
    vid = st.integers(-2, n + 1)
    outside = st.sampled_from([-2, -1, n, n + 1])
    faults = draw(st.sets(st.sampled_from(
        ["loop", "range", "duplicate", "frontier", "labels", "cut"]),
        min_size=1, max_size=3))
    if "cut" in faults and edges:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    extra = []
    if "loop" in faults:
        w = draw(vid)
        extra.append((w, w))
    if "range" in faults:
        extra.append(draw(st.permutations([draw(vid), draw(outside)])))
    if "duplicate" in faults and edges:
        u, v = draw(st.sampled_from(edges))
        extra.append(draw(st.sampled_from([(u, v), (v, u)])))
    for e in extra:
        edges.insert(draw(st.integers(0, len(edges))), tuple(e))
    frontier = draw(st.lists(vid, max_size=3)) if "frontier" in faults \
        else draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else []
    k = n + draw(st.sampled_from([-1, 1])) if "labels" in faults else n
    labels = [f"x{i}" for i in range(max(k, 0))] \
        if draw(st.booleans()) or "labels" in faults else None
    return n, edges, labels, frontier


@settings(max_examples=400, deadline=None)
@given(malformed(), FORMS)
def test_errors_match_the_reference_constructor(case, form):
    """The same GraphError text, naming the same offender as a Python int,
    whatever form the edges come in."""
    n, edges, labels, frontier = case
    try:
        want = reference_graph(n, edges, labels, frontier)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            MedianGraph(n, as_form(edges, form), labels,
                        np.array(frontier, np.int64))
        assert str(got.value) == str(exc)
        return
    g = MedianGraph(n, as_form(edges, form), labels,
                    np.array(frontier, np.int64))
    canon, adj, dist = want
    assert g.edges.tolist() == [list(e) for e in canon]
    assert [g.neighbours(v) for v in range(n)] == adj
    assert g.dist_from(0).tolist() == dist


@pytest.mark.parametrize("edges, frontier, labels, message", [
    ([(0, 1), (2, 2), (5, 5)], (), None, "loop edge at vertex 2"),
    ([(0, 1), (-1, -1)], (), None, "loop edge at vertex -1"),
    ([(0, 1), (1, 9), (2, 2)], (), None, "edge (1,9) out of range"),
    ([(1, 2), (0, 1), (2, 1), (1, 0)], (), None, "duplicate edge (0, 1)"),
    ([(0, 1), (1, 2)], (7, -3), None, "frontier vertex -3 out of range"),
    ([(0, 1), (1, 2)], (), ["a", "b"], "label table length mismatch"),
    ([(0, 1)], (), None, "graph is disconnected"),
])
def test_error_texts_name_python_ints(edges, frontier, labels, message):
    for form in ("list", "array", "mixed"):
        with pytest.raises(GraphError) as exc:
            MedianGraph(3, as_form(edges, form), labels,
                        np.array(frontier, np.int64))
        assert str(exc.value) == message


# A frontier in each form the constructor accepts, ids in and out of range
FRONTIER_IDS = st.lists(st.integers(-3, 14), max_size=12)
FRONTIERS = st.one_of(
    FRONTIER_IDS,                                   # repeats included
    FRONTIER_IDS.map(set),
    FRONTIER_IDS.map(tuple),
    FRONTIER_IDS.map(lambda f: np.array(f, np.int64)),
    FRONTIER_IDS.map(lambda f: np.array(f, np.int32)),
    st.builds(range, st.integers(-3, 14), st.integers(-3, 14),
              st.integers(1, 3)),
    st.sampled_from([(), [], set(), range(0), np.zeros(0, np.int64)]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), FRONTIERS)
def test_frontier_is_its_sorted_ids_once_each(n, frontier):
    """The stored frontier is sorted(set(input)) as int32; out-of-range
    input raises the reference check's text, naming the least bad id."""
    path = [(v, v + 1) for v in range(n - 1)]
    try:
        reference_graph(n, path, None, frontier)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            MedianGraph(n, path, frontier=frontier)
        assert str(got.value) == str(exc)
        return
    g = MedianGraph(n, path, frontier=frontier)
    assert g.frontier.dtype == np.int32
    assert g.frontier.tolist() == sorted(set(frontier))
