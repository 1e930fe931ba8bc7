import hashlib
import random
import sys
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubekit.median import (GraphError, MedianGraph, NotValidatedError,
                            _satisfies_local_conditions, _scan_triples,
                            _wedges, brute_force_median_oracle, check_median,
                            distance_rows, enumerate_cubes, gate,
                            graph_to_text, is_convex, load_graph, median)
from cubekit import builders
from cubekit.cli import run
from cubekit.hyperplanes import arrangement, product_graph


def test_q3_is_median():
    g = builders.hypercube(3)
    g.validated = False
    res = check_median(g)
    assert res.ok
    assert g.validated


def test_triangle_is_not_median():
    res = check_median(builders.triangle())
    assert not res.ok
    assert res.counterexample is not None


def test_cube_minus_vertex_not_median():
    # classic counterexample: 110, 101, 011 have no median once 111 is gone
    g = builders.cube_minus_vertex()
    res = check_median(g)
    assert not res.ok
    a, b, c = res.counterexample
    labs = {g.labels[a], g.labels[b], g.labels[c]}
    assert labs == {"110", "101", "011"}


def test_median_of_q3_corner_triple():
    g = builders.hypercube(3)
    li = g.label_index
    # med(000, 011, 101) = 001: coordinatewise majority
    assert median(g, li["000"], li["011"], li["101"]) == li["001"]


def test_median_matches_brute_force_oracle_on_random_graphs():
    rng = random.Random(7)
    for _ in range(40):
        g = builders.random_connected_graph(rng.randrange(4, 14),
                                            rng.randrange(0, 4), rng)
        fast = check_median(g).ok
        oracle_bad_triple = brute_force_median_oracle(g)
        assert fast == (oracle_bad_triple is None)


def test_graph_text_roundtrip():
    g = builders.grid_graph(3, 2)
    g2 = load_graph(graph_to_text(g))
    assert g2.n == g.n and g2.edges.tolist() == g.edges.tolist()
    assert g2.labels == g.labels
    assert g2.digest() == g.digest()


def test_frontier_survives_text_roundtrip():
    g = builders.free_group_ball(2)
    g2 = load_graph(graph_to_text(g))
    assert g2.frontier.tolist() == g.frontier.tolist()


@pytest.mark.parametrize("g", [builders.free_group_ball(3),
                               builders.grid_shift_action(5).graph,
                               builders.line_shift_action(0).graph,
                               builders.path_graph(3)],
                         ids=["f2", "grid", "point", "no-frontier"])
def test_frontier_line_survives_load_and_export_byte_for_byte(g):
    text = graph_to_text(g)
    assert graph_to_text(load_graph(text)) == text
    lines = [ln for ln in text.splitlines() if ln.startswith("# frontier:")]
    want = " ".join(g.labels[v] for v in g.frontier.tolist())
    assert lines == ([f"# frontier: {want}"] if len(g.frontier) else [])


def test_frontier_line_lists_each_vertex_once_in_id_order():
    g = load_graph("e a b\n# frontier: c a\ne b c\n# frontier: c\n")
    assert g.frontier.tolist() == [0, 2]
    assert graph_to_text(g).endswith("e b c\n# frontier: a c\n")


def test_load_rejects_garbage():
    with pytest.raises(GraphError):
        load_graph("v a\nq nonsense\n")


def test_unvalidated_graph_refuses_arrangement():
    from cubekit.hyperplanes import arrangement
    g = MedianGraph(2, [(0, 1)])
    with pytest.raises(NotValidatedError):
        arrangement(g)


def test_convexity_and_gates_on_grid():
    g = builders.grid_graph(3, 3)
    li = g.label_index
    # a subrectangle is convex; an L-shape is not
    rect = [li["0,0"], li["0,1"], li["1,0"], li["1,1"]]
    assert is_convex(g, rect)
    ell = [li["0,0"], li["0,1"], li["1,0"], li["2,0"], li["2,1"]]
    assert not is_convex(g, ell)
    # gate of the far corner into the rectangle is the near corner of it
    assert gate(g, rect, li["2,2"]) == li["1,1"]


def test_cube_enumeration_counts():
    # Q3 contains 6 squares and 1 three-cube; counts checked by hand
    g = builders.hypercube(3)
    assert len(enumerate_cubes(g, 2)) == 6
    assert len(enumerate_cubes(g, 3)) == 1
    # a tree has no squares
    t = builders.star(4)
    assert enumerate_cubes(t, 2) == []


# -- cube enumeration against the set-based search -------------------------

def reference_cubes(g, dim):
    """The set-based search that enumerate_cubes replaced: the edges, then
    each (k+1)-cube as a k-cube and its parallel copy through a neighbour of
    its least vertex, kept if the union induces a (k+1)-cube."""
    cubes = {frozenset(e) for e in g.edges.tolist()}
    rows = {}  # the distance row of each least vertex
    for _ in range(dim - 1):
        bigger = set()
        for cube in cubes:
            root = min(cube)
            if root not in rows:
                rows[root] = g.dist_from(root)
            order = sorted(cube, key=lambda x: (rows[root][x], x))
            for w0 in g.neighbours(root):
                if w0 in cube:
                    continue
                t = {root: w0}
                for x in order[1:]:
                    # the image of x: its one neighbour outside the cube
                    # adjacent to the images of its mapped cube neighbours
                    nbrs = g.neighbours(x)
                    req = [t[y] for y in nbrs if y in t and y in cube]
                    cands = [z for z in nbrs if z not in cube
                             and z not in t.values()
                             and all(g.has_edge(z, r) for r in req)]
                    if not req or len(cands) != 1:
                        break
                    t[x] = cands[0]
                else:
                    new = cube | set(t.values())
                    k = len(new).bit_length() - 1
                    if all(sum(v in new for v in g.neighbours(u)) == k
                           for u in new):
                        bigger.add(frozenset(new))
        cubes = bigger
    return sorted(tuple(sorted(c)) for c in cubes)


@st.composite
def validated_median_graphs(draw):
    """A product, grid, hypercube, tree ball or ball × grid, relabelled or
    not, so any vertex can be vertex 0."""
    kind = draw(st.sampled_from(["product", "grid", "cube", "ball",
                                 "ball x grid"]))
    if kind == "product":
        g = builders.random_product(draw(st.randoms(
            use_true_random=False)))[0]
    elif kind == "grid":
        g = builders.grid_graph(draw(st.integers(1, 6)),
                                draw(st.integers(1, 6)))
    elif kind == "cube":
        g = builders.hypercube(draw(st.integers(0, 5)))
    elif kind == "ball":
        g = builders.free_group_ball(draw(st.integers(0, 3)))
    else:
        g = product_graph(builders.free_group_ball(1),
                          builders.grid_graph(3, 3))
    if draw(st.booleans()):
        g = relabelled(g, draw(st.permutations(range(g.n))))
        g._mark_validated()
    return g


@settings(max_examples=60, deadline=None)
@given(validated_median_graphs())
def test_cubes_match_the_set_based_search(g):
    for dim in (1, 2, 3, 4):
        assert enumerate_cubes(g, dim) == reference_cubes(g, dim)


def test_cube_enumeration_refuses_bad_arguments():
    g = builders.hypercube(3)
    for dim in (0, -1):
        with pytest.raises(ValueError, match=r"^dim must be >= 1$"):
            enumerate_cubes(g, dim)
    with pytest.raises(NotValidatedError):
        enumerate_cubes(MedianGraph(g.n, g.edges), 2)


@pytest.mark.parametrize("g", [
    *(builders.random_tree(n, random.Random(n)) for n in (1, 2, 5, 40)),
    builders.path_graph(30), builders.free_group_ball(7)],
    ids=["tree-1", "tree-2", "tree-5", "tree-40", "path-30", "F2-R7"])
def test_trees_are_accepted_from_an_empty_wedge_table(g):
    """A relabelled unvalidated copy of a tree gets no wedge and is still
    accepted: no vertex of it has two neighbours nearer vertex 0."""
    copy = relabelled(g, random.Random(g.n).sample(range(g.n), g.n))
    assert copy.m == copy.n - 1 and not copy.validated
    assert all(len(a) == 0 for a in _wedges(copy))
    assert check_median(copy).ok and copy.validated


def test_interval_is_subcube_in_hypercube():
    g = builders.hypercube(4)
    li = g.label_index
    iv = g.interval(li["0000"], li["0110"])
    assert sorted(g.labels[v] for v in iv) == ["0000", "0010", "0100", "0110"]


def test_median_module_is_not_shadowed():
    import cubekit.median as m
    assert m.check_median is check_median
    assert m.median is median


def test_digest_is_computed_once(monkeypatch):
    import cubekit.median as m
    g = builders.grid_graph(3, 2)
    h = hashlib.sha256()
    for lab in g.labels:
        h.update(f"v:{lab}\n".encode())
    for u, v in g.edges:
        h.update(f"e:{g.labels[u]}|{g.labels[v]}\n".encode())
    calls = []

    def counting_sha256(*args):
        calls.append(args)
        return hashlib.sha256(*args)

    monkeypatch.setattr(m, "hashlib", SimpleNamespace(sha256=counting_sha256))
    assert g.digest() == h.hexdigest()
    assert g.digest() == h.hexdigest()
    assert len(calls) == 1


def test_load_rejects_reversed_duplicate_edge():
    with pytest.raises(GraphError, match=r"^line 3: duplicate edge 'e b a'$"):
        load_graph("e a b\ne b c\ne b a\n")


@pytest.mark.parametrize("text, message", [
    ("e a b\ne b c\n  e b a  \ne c d\n", "line 3: duplicate edge 'e b a'"),
    ("e a b\ne a b\ne b a\n", "line 2: duplicate edge 'e a b'"),
    ("e a b\ne b a\ne c c\n", "line 2: duplicate edge 'e b a'"),
    ("# c\ne a b\nv z\ne b a\nbad line\n", "line 4: duplicate edge 'e b a'"),
    ("e a b\ne b a\n# frontier: q\n", "line 2: duplicate edge 'e b a'"),
    ("e a b\ne b a\ne c d\n", "line 2: duplicate edge 'e b a'"),
    ("e a b\ne a a\ne b a\n", "line 2: loop edge 'e a a'"),
    ("e a b\nbad\ne b a\n", "line 2: cannot parse 'bad'"),
])
def test_load_names_the_first_bad_line(text, message):
    """Duplicates are found by the constructor, but the message names the
    first duplicate line, and only an error on an earlier line comes
    first."""
    with pytest.raises(GraphError) as err:
        load_graph(text)
    assert str(err.value) == message


# -- check_median against independent oracles ----------------------------

def reference_scan(g):
    """Reference oracle for check_median's bitset scan, with frozenset
    intervals: the lexicographically first triple u <= v <= w whose
    intervals do not meet in exactly one vertex, or None."""
    n = g.n
    dist = [g.dist_from(v) for v in range(n)]
    intervals = {}

    def ival(a, b):
        key = (a, b) if a < b else (b, a)
        s = intervals.get(key)
        if s is None:
            da, db = dist[key[0]], dist[key[1]]
            dab = da[key[1]]
            s = frozenset(x for x in range(n) if da[x] + db[x] == dab)
            intervals[key] = s
        return s

    for u in range(n):
        for v in range(u, n):
            iuv = ival(u, v)
            for w in range(v, n):
                if len(iuv & ival(v, w) & ival(u, w)) != 1:
                    return (u, v, w)
    return None


def assert_matches_oracles(g):
    """check_median's verdict equals the numpy tensor oracle's, and its
    counterexample and reason equal those of the reference scan."""
    g.validated = False
    res = check_median(g)
    bad = reference_scan(g)
    assert res.ok == (brute_force_median_oracle(g) is None) == (bad is None)
    assert g.validated == res.ok
    assert res.counterexample == bad
    if not res.ok:
        assert res.reason == ("triple without unique median" if
                              g.is_bipartite() else "graph is not bipartite")


@st.composite
def connected_graphs(draw, bipartite=None):
    """A random tree on up to 12 vertices plus a few chords; if
    ``bipartite`` (drawn when None) only chords that keep the graph
    bipartite."""
    n = draw(st.integers(1, 12))
    parent = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    colour = [0]
    for p in parent:
        colour.append(colour[p] ^ 1)
    edges = {(p, i) for i, p in enumerate(parent, start=1)}
    if bipartite is None:
        bipartite = draw(st.booleans())
    if n > 1:
        for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)),
                                  max_size=5)):
            if u != v and not (bipartite and colour[u] == colour[v]):
                edges.add((min(u, v), max(u, v)))
    return MedianGraph(n, sorted(edges))


@st.composite
def connected_induced_subgraphs(draw, bases=None):
    """A connected induced subgraph of one of ``bases`` (by default Q4, Q5
    or a grid), grown one neighbour of the current set at a time."""
    base = draw(st.sampled_from(bases or [
        builders.hypercube(4), builders.hypercube(5),
        builders.grid_graph(4, 4), builders.grid_graph(5, 3)]))
    keep = [draw(st.integers(0, base.n - 1))]
    for _ in range(draw(st.integers(0, min(base.n, 24) - 1))):
        nbrs = sorted({w for v in keep for w in base.neighbours(v)}
                      - set(keep))
        if not nbrs:
            break
        keep.append(draw(st.sampled_from(nbrs)))
    ids = {v: i for i, v in enumerate(sorted(keep))}
    edges = [(ids[u], ids[v]) for u, v in base.edges.tolist()
             if u in ids and v in ids]
    return MedianGraph(len(ids), edges, [base.labels[v] for v in sorted(ids)])


def cube_without(n, drop):
    q = builders.hypercube(n)
    ids = {v: i for i, v in enumerate(v for v in range(q.n) if v != drop)}
    edges = [(ids[u], ids[v]) for u, v in q.edges.tolist()
             if u != drop and v != drop]
    return MedianGraph(q.n - 1, edges)


def relabelled(g, perm):
    return MedianGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges.tolist()])


@settings(max_examples=200, deadline=None)
@given(connected_graphs())
def test_check_median_on_random_connected_graphs(g):
    assert_matches_oracles(g)


@settings(max_examples=200, deadline=None)
@given(connected_induced_subgraphs())
def test_check_median_on_induced_subgraphs_of_cubes_and_grids(g):
    assert_matches_oracles(g)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 30))
def test_check_median_accepts_products_and_trees(rng, n):
    assert_matches_oracles(builders.random_product(rng)[0])
    assert_matches_oracles(builders.random_tree(n, rng))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_check_median_on_cube_minus_a_vertex(data):
    n = data.draw(st.integers(2, 5))
    assert_matches_oracles(cube_without(n, data.draw(st.integers(0, 2**n - 1))))


def cycle(n):
    return MedianGraph(n, [(i, (i + 1) % n) for i in range(n)])


K23 = MedianGraph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
C6 = cycle(6)


@pytest.mark.parametrize("g", [K23, C6, builders.triangle(),
                               builders.cube_minus_vertex()],
                         ids=["K23", "C6", "K3", "Q3-v"])
def test_check_median_on_near_misses(g):
    assert_matches_oracles(g)
    assert not g.validated


# A K2,3 with apexes 0 and 69 and a tail 3–4–…–68: the two medians of
# (1, 2, 3) lie in different 64-bit words of the reject scan.
K23_FAR_APEXES = MedianGraph(70, [(a, c) for a in (0, 69) for c in (1, 2, 3)]
                             + [(i, i + 1) for i in range(3, 68)])


@pytest.mark.parametrize("g", [
    cycle(5), cycle(7), MedianGraph(4, [(a, b) for a in range(4)
                                        for b in range(a + 1, 4)]),
    MedianGraph(10, nx.petersen_graph().edges),
    MedianGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
    MedianGraph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]),
    K23_FAR_APEXES,
], ids=["C5", "C7", "K4", "Petersen", "path-then-triangle",
        "triangle-then-path", "K23-far-apexes"])
def test_reject_scan_on_odd_cycles_and_split_medians(g):
    """Odd cycles, K4 and the Petersen graph reach triples with 2γ odd; a
    triangle at either end of a path moves the first bad triple."""
    assert_matches_oracles(g)
    assert not g.validated


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reject_scan_follows_a_relabelling(data):
    """A random connected graph under a random relabelling gets the triple
    that the reference scan gives on the relabelled graph."""
    base = data.draw(connected_graphs())
    perm = data.draw(st.permutations(range(base.n)))
    g = relabelled(base, perm)
    assert check_median(g).counterexample == reference_scan(g)


@pytest.mark.parametrize("cells", [1, 50, None], ids=["1", "50", "default"])
def test_reject_scan_is_the_same_for_any_block_size(monkeypatch, cells):
    """One v row per block, blocks that end inside the (v, w) table of a
    base point, and the default."""
    import cubekit.median as m
    if cells is not None:
        monkeypatch.setattr(m, "_SCAN_BLOCK_CELLS", cells)
    rng = random.Random(11)
    for _ in range(30):
        assert_matches_oracles(builders.random_connected_graph(
            rng.randrange(8, 30), rng.randrange(1, 4), rng))


# -- the local accept rule against the all-base-point check ----------------

def reference_quadrangle(g, bases=None):
    """The accept test that the local rule replaced, for a connected
    bipartite graph: True iff every base point u of ``bases`` (all by
    default) satisfies the quadrangle condition — whenever a wedge v–z–w
    has d(u,v) = d(u,w) = d(u,z) − 1, the other common neighbour x of v and
    w exists and has d(u,x) = d(u,z) − 2.  Over all base points this also
    refuses a K_{2,3}: if v and w have common neighbours a, b, c, the wedge
    through a with x = b fails at u = c."""
    z, v, w = g.neighbour_pairs()  # every wedge v–z–w, v < w
    if not z.size:
        return True
    key = v.astype(np.int64) * g.n + w
    order = np.argsort(key)
    key, v, z, w = key[order], v[order], z[order], w[order]
    # x: another common neighbour of v and w, or -1.  The wedges of one
    # pair are consecutive, so it is the middle of the next or the last.
    same = key[1:] == key[:-1]
    x = np.where(np.append(same, False), np.roll(z, -1),
                 np.where(np.append(False, same), np.roll(z, 1), -1))
    has_x = x >= 0
    x = np.where(has_x, x, 0)
    bases = np.arange(g.n) if bases is None else np.asarray(bases)
    d = distance_rows(g, np.arange(len(bases)), bases)
    dz = d[:, z]
    below = (d[:, v] < dz) & (d[:, w] < dz)
    return not (below & ~(has_x & (d[:, x] < dz))).any()


def has_k23(g):
    """Whether two vertices have three common neighbours."""
    adj = np.zeros((g.n, g.n), np.int64)
    adj[tuple(g.edges.T)] = adj[tuple(g.edges.T[::-1])] = 1
    common = adj @ adj
    np.fill_diagonal(common, 0)
    return bool((common >= 3).any())


@st.composite
def relabelled_bipartite_graphs(draw):
    """An induced subgraph of Q3–Q5, a random bipartite graph, a product
    or a tree, under a random relabelling, so any vertex can be vertex 0."""
    kind = draw(st.sampled_from(["cube", "bipartite", "product", "tree"]))
    if kind == "cube":
        g = draw(connected_induced_subgraphs(
            [builders.hypercube(k) for k in (3, 4, 5)]))
    elif kind == "bipartite":
        g = draw(connected_graphs(bipartite=True))
    elif kind == "product":
        g = builders.random_product(draw(st.randoms(
            use_true_random=False)))[0]
    else:
        g = builders.random_tree(draw(st.integers(1, 30)),
                                 draw(st.randoms(use_true_random=False)))
    return relabelled(g, draw(st.permutations(range(g.n))))


@settings(max_examples=300, deadline=None)
@given(relabelled_bipartite_graphs())
def test_local_rule_matches_the_all_base_point_check_and_the_scans(g):
    assert g.is_bipartite()
    local = _satisfies_local_conditions(g)
    assert local == reference_quadrangle(g) == (_scan_triples(g) is None) \
        == (brute_force_median_oracle(g) is None)
    assert check_median(g).ok == local


def glued_to_a_leaf(ball, piece):
    """``ball`` with ``piece`` glued at its vertex 0 to the last vertex of
    ``ball``, a leaf of a tree ball."""
    n = ball.n - 1
    return MedianGraph(n + piece.n, [*ball.edges.tolist(),
                                     *(piece.edges + n).tolist()])


@pytest.mark.parametrize("g", [
    builders.cube_minus_vertex(), cube_without(4, 15),
    glued_to_a_leaf(builders.free_group_ball(2),
                    builders.cube_minus_vertex()),
], ids=["Q3-v", "Q4-v", "F2-R2-glued-Q3-v"])
def test_only_the_3_cube_condition_refuses(g):
    """Bipartite, no K_{2,3} and the quadrangle condition at vertex 0, the
    missing vertex farthest from vertex 0: the 3-cube condition alone
    tells these graphs from median ones."""
    assert g.is_bipartite() and not has_k23(g)
    assert reference_quadrangle(g, [0])
    assert not reference_quadrangle(g)
    assert brute_force_median_oracle(g) is not None
    assert not _satisfies_local_conditions(g)
    assert not check_median(g).ok


@pytest.mark.parametrize("g", [builders.free_group_ball(7),
                               builders.grid_graph(41, 41)],
                         ids=["F2-R7", "grid-41"])
def test_large_median_graphs_are_accepted_unvalidated(g):
    copy = MedianGraph(g.n, g.edges, g.labels, g.frontier)
    assert not copy.validated
    assert check_median(copy).ok and copy.validated


# -- the vertex-0 distance row and the CSR adjacency -----------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_adjacency_is_sorted_and_bipartite_reads_vertex_0_row(data):
    """Edges given in any order and orientation, under any vertex ids:
    each adjacency list comes out ascending, every edge's id names it in
    either orientation while a non-adjacent pair has none, and the vertex-0
    layering decides bipartiteness as networkx does."""
    base = data.draw(connected_graphs())
    perm = data.draw(st.permutations(range(base.n)))
    edges = [(perm[u], perm[v]) for u, v in base.edges.tolist()]
    edges = [(v, u) if data.draw(st.booleans()) else (u, v)
             for u, v in data.draw(st.permutations(edges))]
    g = MedianGraph(base.n, edges)
    h = nx.Graph(edges)
    h.add_nodes_from(range(g.n))
    assert [g.neighbours(u) for u in range(g.n)] == \
        [sorted(h[u]) for u in range(g.n)]
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            assert g.edges[g.edge_id(a, b)].tolist() == [min(a, b), max(a, b)]
            assert g.has_edge(a, b)
    for u, v in [*nx.non_edges(h), *((u, u) for u in range(g.n))]:
        for a, b in ((u, v), (v, u)):
            assert not g.has_edge(a, b)
            with pytest.raises(KeyError):
                g.edge_id(a, b)
    assert g.is_bipartite() == nx.is_bipartite(h)


@pytest.mark.parametrize("u, v", [(-1, 1), (1, -1), (3, 1), (1, 3),
                                  (-1, 3), (-2, -1), (3, 4)])
def test_ids_outside_the_vertex_range_are_not_edges(u, v):
    """Negative ids do not wrap around to the last vertices."""
    g = builders.path_graph(3)
    assert not g.has_edge(u, v)
    with pytest.raises(KeyError):
        g.edge_id(u, v)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 1), (1, 0)], "duplicate edge (0, 1)"),
    ([(1, 2), (2, 1), (0, 1), (1, 0)], "duplicate edge (0, 1)"),
    ([(0, 1), (1, 1)], "loop edge at vertex 1"),
    ([(0, 1), (1, 0), (2, 2)], "loop edge at vertex 2"),
    ([(0, 1), (1, 3)], "edge (1,3) out of range"),
    ([(0, 1), (0, 1), (-1, 2)], "edge (-1,2) out of range"),
])
def test_construction_rejects_bad_edges(edges, message):
    """The least duplicate is named; a loop or an out-of-range edge is
    reported before any duplicate."""
    with pytest.raises(GraphError) as exc:
        MedianGraph(3, edges)
    assert str(exc.value) == message


@pytest.mark.parametrize("frontier, bad", [([-1], -1), ([3], 3),
                                           ([0, 5, 2, 4], 4)])
def test_construction_rejects_out_of_range_frontier(frontier, bad):
    with pytest.raises(GraphError) as exc:
        MedianGraph(3, [(0, 1), (1, 2)], frontier=frontier)
    assert str(exc.value) == f"frontier vertex {bad} out of range"


def test_disconnected_graph_is_rejected():
    with pytest.raises(GraphError, match=r"^graph is disconnected$"):
        MedianGraph(4, [(0, 1), (2, 3)])


def test_validate_disconnected_file_exits_2(tmp_path, capsys):
    path = tmp_path / "two.graph"
    path.write_text("e a b\ne c d\n")
    assert run(["validate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: graph is disconnected\n"


def test_arrangement_and_bipartite_reuse_the_construction_row(monkeypatch):
    """After construction, neither the arrangement's orientation nor the
    bipartiteness test runs a BFS of its own."""
    import cubekit.median as m
    g = builders.grid_graph(4, 3)
    calls = []

    def counting_bfs(g, sources):
        calls.append(list(sources))
        return orig(g, sources)

    orig = m.bfs_distances
    for name, mod in list(sys.modules.items()):
        if name.startswith("cubekit") and \
                getattr(mod, "bfs_distances", None) is orig:
            monkeypatch.setattr(mod, "bfs_distances", counting_bfs)
    arr = arrangement(g)
    assert g.is_bipartite()
    assert arr.n_classes == 3 + 2
    assert calls == []


def test_median_graph_repr_names_its_state():
    g = MedianGraph(3, [(0, 1), (1, 2)])
    assert repr(g) == "MedianGraph(n=3, m=2, unvalidated)"
    check_median(g)
    assert repr(g) == "MedianGraph(n=3, m=2, median)"
    assert repr(builders.hypercube(3)) == "MedianGraph(n=8, m=12, median)"
