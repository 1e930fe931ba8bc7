import random
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cubekit import builders
from cubekit.action import find_double_skewer, find_flipping
from cubekit.hyperplanes import (HyperplaneError, arrangement,
                                 compute_hyperplanes, crosses, facing_tuples,
                                 halfspace_leq, halfspaces_disjoint,
                                 hyperplane_report, irreducible_decomposition,
                                 parse_halfspace, product_graph,
                                 projection_pair, separating_classes,
                                 strongly_separated)
from cubekit.median import (MedianGraph, bfs_distances, check_median, gate,
                            is_convex)
from cubekit.sageev import wallspace_of_graph
from cubekit.schottky import (PingPongCertificate, SchottkyError,
                              _distance_to, _find_companions, stable_certify)


def test_hyperplane_and_halfspace_identity():
    g = builders.path_graph(3)
    arr, other = arrangement(g), arrangement(builders.path_graph(3))
    assert arr is not other
    assert arr.hyperplane(0) == arr.hyperplane(0)
    assert hash(arr.hyperplane(0)) == hash(arr.hyperplane(0))
    assert arr.hyperplane(0) != arr.hyperplane(1)
    assert arr.hyperplane(0) != other.hyperplane(0)
    assert arr.halfspace(1, 0) == arr.hyperplane(1).side(0)
    assert hash(arr.halfspace(1, 0)) == hash(arr.hyperplane(1).side(0))
    assert arr.halfspace(1, 0) != arr.halfspace(1, 1)
    assert arr.halfspace(1, 0) != arr.halfspace(0, 0)
    assert arr.halfspace(1, 0) != other.halfspace(1, 0)
    assert arr.hyperplane(0) != arr.halfspace(0, 0)
    assert arr.halfspace(0, 1) != arr.hyperplane(0)
    assert len({arr.halfspace(0, 1), arr.halfspace(0, 1),
                other.halfspace(0, 1), arr.hyperplane(0)}) == 3


def test_hyperplane_and_halfspace_reprs():
    arr = arrangement(builders.path_graph(4))
    assert [repr(h) for h in arr.hyperplanes()] == ["H0", "H1", "H2"]
    assert repr(arr.hyperplane(2).side(1)) == "H2+"
    assert repr(arr.hyperplane(2).side(0)) == "H2-"


@pytest.mark.parametrize("n", range(1, 7))
def test_hypercube_has_n_hyperplanes(n):
    assert len(compute_hyperplanes(builders.hypercube(n))) == n


def test_tree_has_one_hyperplane_per_edge():
    rng = random.Random(3)
    for _ in range(10):
        t = builders.random_tree(rng.randrange(2, 20), rng)
        assert len(compute_hyperplanes(t)) == t.m


def test_p3_times_p3_has_four_hyperplanes():
    assert len(compute_hyperplanes(builders.grid_graph(3, 3))) == 4


def test_halfspaces_are_convex_and_partition():
    for g in (builders.hypercube(3), builders.grid_graph(3, 4),
              builders.star(4), builders.free_group_ball(3)):
        arr = arrangement(g)
        for c in range(arr.n_classes):
            s0 = arr.side_vertices(c, 0)
            s1 = arr.side_vertices(c, 1)
            assert s0 | s1 == frozenset(range(g.n))
            assert not s0 & s1
            assert is_convex(g, s0)
            assert is_convex(g, s1)


def test_orientation_heads_all_on_side_one():
    g = builders.grid_graph(4, 3)
    arr = arrangement(g)
    for c in range(arr.n_classes):
        s1 = arr.side_vertices(c, 1)
        for e in arr.class_edges(c):
            t, h = arr.orientation[e].tolist()
            assert h in s1 and t not in s1


def test_crossing_in_products_and_trees():
    q3 = builders.hypercube(3)
    hs = compute_hyperplanes(q3)
    assert all(crosses(a, b) for i, a in enumerate(hs) for b in hs[i + 1:])
    t = builders.random_tree(12, random.Random(1))
    ht = compute_hyperplanes(t)
    assert not any(crosses(a, b) for i, a in enumerate(ht)
                   for b in ht[i + 1:])


def test_strong_separation_tree_vs_product():
    t = builders.random_tree(9, random.Random(5))
    hs = compute_hyperplanes(t)
    assert all(strongly_separated(a, b)
               for i, a in enumerate(hs) for b in hs[i + 1:])
    # in T x T every pair in one factor is crossed by the other factor
    tt = product_graph(t, t)
    hs2 = compute_hyperplanes(tt)
    assert not any(strongly_separated(a, b)
                   for i, a in enumerate(hs2) for b in hs2[i + 1:])


def _relation_fixtures():
    rng = random.Random(11)
    gs = [builders.random_tree(rng.randrange(2, 16), rng) for _ in range(4)]
    gs += [builders.random_product(rng)[0] for _ in range(8)]
    gs += [builders.grid_graph(5, 4), builders.hypercube(3),
           builders.free_group_ball(3)]
    # relabelled copies: vertex 0 lands inside and some classes flip, so
    # the side away from vertex 0 is side 0 of some classes
    return gs + [shuffled(g, seed) for seed, g in enumerate(gs)]


def _head_side_oracle(g, arr, c):
    """Side 1 of class c from networkx: the component of G minus the
    class's edges that holds the representative head."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    cut = set(arr.class_edges(c))
    nxg.add_edges_from(e for i, e in enumerate(g.edges.tolist())
                       if i not in cut)
    head = arr.rep_oriented(c)[1]
    return frozenset(nx.node_connected_component(nxg, head))


def _oracle_sides(g, arr):
    """Every side from networkx, side s of class c at 2c + s."""
    heads = [_head_side_oracle(g, arr, c) for c in range(arr.n_classes)]
    return [s for h in heads for s in (frozenset(range(g.n)) - h, h)]


def test_halfspace_order_probes_match_set_computation():
    # the side-free inclusion/disjointness relations and contains() against
    # explicit vertex sets, with networkx as an independent side oracle
    far_side_0 = 0
    for g in _relation_fixtures():
        arr = arrangement(g)
        sides = _oracle_sides(g, arr)
        for c in range(arr.n_classes):
            assert (0 in sides[2 * c + 1]) == (arr.far_side(c) == 0)
            far_side_0 += arr.far_side(c) == 0
        halves = [arr.halfspace(c, s) for c in range(arr.n_classes)
                  for s in (0, 1)]
        assert [a.vertices for a in halves] == sides
        for a, x in zip(halves, sides):
            assert all(a.contains(v) == (v in x) for v in range(g.n))
            for b, y in zip(halves, sides):
                assert halfspaces_disjoint(a, b) == (not (x & y))
                assert halfspace_leq(a, b) == (x <= y)
    assert far_side_0  # the shuffled copies flip some classes


def test_stable_certify_carrier_rule_matches_set_expression():
    # stable_certify refuses a quadruple member that meets the hyperplane's
    # carrier; the one-probe rule against the carrier & side set expression
    for g in _relation_fixtures():
        a = builders.trivial_action(g)
        arr = arrangement(g)
        sides = _oracle_sides(g, arr)
        for h in arr.hyperplanes():
            carrier = arr.carrier_vertices(h.cls)
            for c in range(arr.n_classes):
                for s in (0, 1):
                    hs = arr.halfspace(c, s)
                    cert = PingPongCertificate("", "", (hs,), ("s",),
                                               ("t",), 0, [], [], 0, None,
                                               [])
                    try:
                        stable_certify(a, h, cert, 0)
                        meets = False
                    except SchottkyError:
                        meets = True
                    assert meets == bool(carrier & sides[2 * c + s])


def test_relations_build_no_side(built_sides):
    # nesting and disjointness read the classes below each hyperplane, one
    # walk down the vertex-0 row each, so searches and facing tuples build
    # no side
    a = builders.free_group_action(6)
    arr = arrangement(a.graph)
    idx = a.graph.label_index
    toward_base = arr.halfspace_of_oriented_edge(idx["a"], idx["1"])
    assert find_flipping(a, toward_base, 2).found
    h_hs = arr.halfspace_of_oriented_edge(idx["1"], idx["a"])
    k_hs = arr.halfspace_of_oriented_edge(idx["a"], idx["aa"])
    assert find_double_skewer(a, k_hs, h_hs, 3).found
    assert find_double_skewer(a, toward_base, toward_base, 2).found
    grid = builders.grid_shift_action(7).graph
    assert facing_tuples(grid, 2)
    assert built_sides == []


def test_relations_match_side_sets_on_every_pair(built_sides):
    # every halfspace_leq and halfspaces_disjoint answer against set
    # inclusion and intersection of networkx sides
    for g in (builders.free_group_ball(4), builders.grid_graph(4, 5)):
        arr = arrangement(g)
        sides = _oracle_sides(g, arr)
        halves = [arr.halfspace(c, s) for c in range(arr.n_classes)
                  for s in (0, 1)]
        assert [[halfspace_leq(x, y), halfspaces_disjoint(x, y)]
                for x in halves for y in halves] == \
            [[x <= y, not x & y] for x in sides for y in sides]
    assert built_sides == []


def test_wallspace_reads_each_far_side_once_and_no_side_is_kept(built_sides):
    # a wall is its class's far side and the rest of the ground set, so a
    # wallspace asks for one side per class; sides, walls, relations and
    # the report add or replace no attribute of the arrangement
    g = shuffled(builders.grid_graph(4, 5), 2)
    arr = arrangement(g)
    before = dict(vars(arr))
    walls = wallspace_of_graph(g).walls
    assert built_sides == [(c, arr.far_side(c))
                           for c in range(arr.n_classes)]
    assert {0, 1} <= {s for _, s in built_sides}  # some classes flip
    halves = [arr.halfspace(c, s) for c in range(arr.n_classes)
              for s in (0, 1)]
    assert [{h.vertices, h.complement.vertices} for h in halves[::2]] == \
        [{w.a, w.b} for w in walls]
    relations = {(halfspace_leq(x, y), halfspaces_disjoint(x, y))
                 for x in halves for y in halves}
    assert {(True, False), (False, True)} <= relations  # nested, disjoint
    assert facing_tuples(g, 2) and hyperplane_report(g)
    assert separating_classes(g, 0, g.n - 1)
    assert vars(arr).keys() == before.keys()
    assert all(vars(arr)[k] is v for k, v in before.items())
    assert not [k for k in vars(arr) if k.startswith("_side_cache")]


def shuffled(g, seed):
    """g with its vertex ids shuffled, marked validated like g."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    out = MedianGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    out._mark_validated()
    return out


@pytest.mark.parametrize("seed", range(4))
def test_sides_are_components_without_the_class_edges(seed):
    rng = random.Random(seed)
    graphs = [builders.random_product(rng)[0], builders.random_tree(40, rng),
              builders.grid_graph(5, 4), builders.hypercube(4)]
    head_sides_with_0 = 0
    for g in (shuffled(g, seed) for g in graphs):
        arr = arrangement(g)
        for c in range(arr.n_classes):
            cut = nx.Graph()
            cut.add_nodes_from(range(g.n))
            cut.add_edges_from(g.edges)
            cut.remove_edges_from(g.edges[e] for e in arr.class_edges(c))
            t, h = arr.rep_oriented(c)
            assert arr.side_vertices(c, 1) == \
                nx.node_connected_component(cut, h)
            assert arr.side_vertices(c, 0) == \
                nx.node_connected_component(cut, t)
            head_sides_with_0 += 0 in arr.side_vertices(c, 1)
    assert head_sides_with_0  # the near side was asked for as side 1


def test_sides_run_no_bfs_after_construction(monkeypatch):
    """Sides read the distance row the arrangement kept at construction,
    so they cost no BFS."""
    import cubekit.median as m
    g = shuffled(builders.grid_graph(6, 5), 1)
    arr = arrangement(g)
    calls = []

    def counting_bfs(g, sources):
        calls.append(list(sources))
        return orig(g, sources)

    orig = m.bfs_distances
    for name, mod in list(sys.modules.items()):
        if name.startswith("cubekit") and \
                getattr(mod, "bfs_distances", None) is orig:
            monkeypatch.setattr(mod, "bfs_distances", counting_bfs)
    sizes = [len(arr.side_vertices(c, s)) for c in range(arr.n_classes)
             for s in (0, 1)]
    assert sum(sizes) == arr.n_classes * g.n
    assert calls == []


def test_facing_tuples_examples():
    # Q3: all hyperplanes cross, so no facing pairs at all
    assert facing_tuples(builders.hypercube(3), 2) == []
    # star: the three leaf halfspaces form the unique facing triple
    star = builders.star(3)
    triples = facing_tuples(star, 3)
    assert len(triples) == 1
    assert all(len(h.vertices) == 1 for h in triples[0])
    # path with 3 edges: facing pairs exist, no facing triple
    p = builders.path_graph(4)
    assert facing_tuples(p, 2)
    assert facing_tuples(p, 3) == []


def test_facing_limit_and_classes_restriction():
    g = builders.free_group_ball(2)
    arr = arrangement(g)
    some = facing_tuples(g, 3, limit=5)
    assert len(some) == 5
    only = facing_tuples(g, 2, classes=[0, 1])
    assert all(h.cls in (0, 1) for t in only for h in t)
    for bad in ([0, arr.n_classes], [-1, 2]):
        with pytest.raises(ValueError, match="bad halfspace id"):
            facing_tuples(g, 2, classes=bad, limit=0)


def reference_facing_tuples(g, k, classes=None, limit=None):
    """facing_tuples as it was before it read ``cross``: every pair of
    halfspaces of distinct classes goes to halfspaces_disjoint."""
    arr = arrangement(g)
    cand = sorted(classes) if classes is not None \
        else list(range(arr.n_classes))
    halves = [arr.halfspace(c, s) for c in cand for s in (0, 1)]
    out = []

    def extend(start, chosen):
        if limit is not None and len(out) >= limit:
            return
        if len(chosen) == k:
            out.append(tuple(chosen))
            return
        for i in range(start, len(halves)):
            h = halves[i]
            if all(h.cls != c.cls and halfspaces_disjoint(h, c)
                   for c in chosen):
                chosen.append(h)
                extend(i + 1, chosen)
                chosen.pop()
                if limit is not None and len(out) >= limit:
                    return

    extend(0, [])
    return out


def test_facing_tuples_match_the_all_pairs_recursion(monkeypatch):
    # the rows read every relation from arrays: no pair goes to
    # halfspaces_disjoint
    import cubekit.hyperplanes as hp
    tested = []

    def counting(a, b):
        tested.append((a, b))
        return halfspaces_disjoint(a, b)

    crossed = 0
    for g in _relation_fixtures():
        n = arrangement(g).n_classes
        for k in (2, 3):
            for kwargs in ({}, {"limit": 4},
                           {"classes": range(0, n, 2), "limit": 50}):
                want = reference_facing_tuples(g, k, **kwargs)
                monkeypatch.setattr(hp, "halfspaces_disjoint", counting)
                assert facing_tuples(g, k, **kwargs) == want
                monkeypatch.undo()
        crossed += sum(len(c) for c in arrangement(g).cross.values())
    assert crossed and tested == []


@st.composite
def facing_cases(draw):
    """A product, tree, grid, F2 ball or Q3–Q4, relabelled or not, with
    k in 2–4, a random class subset or none, and a limit."""
    kind = draw(st.sampled_from(["product", "tree", "grid", "ball",
                                 "cube"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "product":
        g = builders.random_product(rng)[0]
    elif kind == "tree":
        g = builders.random_tree(draw(st.integers(1, 16)), rng)
    elif kind == "grid":
        g = builders.grid_graph(draw(st.integers(1, 6)),
                                draw(st.integers(1, 6)))
    elif kind == "ball":
        g = builders.free_group_ball(draw(st.integers(0, 2)))
    else:
        g = builders.hypercube(draw(st.integers(3, 4)))
    if draw(st.booleans()):
        g = shuffled(g, draw(st.integers(0, 2**16)))
    n = arrangement(g).n_classes
    classes = draw(st.none() | st.lists(st.integers(0, n - 1), unique=True)
                   ) if n else None
    return g, draw(st.integers(2, 4)), classes, \
        draw(st.sampled_from([None, -1, 0, 1, 2, 7]))


@settings(max_examples=120, deadline=None)
@given(facing_cases())
def test_facing_tuples_match_the_reference(case):
    g, k, classes, limit = case
    assert facing_tuples(g, k, classes, limit) == \
        reference_facing_tuples(g, k, classes, limit)


def test_facing_tuples_keep_no_graph_past_one_collection():
    import gc
    import weakref
    g = builders.free_group_ball(3)
    alive = weakref.ref(g)
    assert facing_tuples(g, 3, limit=10)
    del g
    gc.collect()
    assert alive() is None


def test_facing_tuples_hold_no_square_table_on_a_large_tree():
    # 39,364 classes: a (2c)² table of flags would take about 6 GB
    import tracemalloc
    g = builders.free_group_ball(9)
    arrangement(g)
    tracemalloc.start()
    try:
        got = facing_tuples(g, 2, limit=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == reference_facing_tuples(g, 2, limit=1)
    assert peak < 64 * 2**20


def test_projection_pair_matches_gate_oracle_on_trees():
    rng = random.Random(23)
    for _ in range(6):
        t = builders.random_tree(rng.randrange(4, 12), rng)
        arr = arrangement(t)
        hs = arr.hyperplanes()
        for i, h1 in enumerate(hs):
            for h2 in hs[i + 1:]:
                e1, e2 = projection_pair(h1, h2)
                # oracle: gates of carrier(h2) into carrier(h1)
                gates = {gate(t, h1.carrier, v, assume_convex=True)
                         for v in h2.carrier}
                assert gates <= set(e1)
                assert set(e1) <= h1.carrier and set(e2) <= h2.carrier


def test_projection_pair_rejects_crossing():
    g = builders.hypercube(2)
    h0, h1 = compute_hyperplanes(g)
    with pytest.raises(ValueError):
        projection_pair(h0, h1)


# -- separator rules against BFS and networkx oracles ---------------------

def glued(rng):
    """A random tree with small grids and cubes glued on at some of its
    vertices by their vertex 0: median, with squares, and with strongly
    separated hyperplanes whose carriers hold several edges."""
    t = builders.random_tree(rng.randrange(2, 12), rng)
    n, edges = t.n, list(t.edges)
    for v in rng.sample(range(t.n), rng.randrange(1, min(t.n, 3) + 1)):
        piece = builders.grid_graph(rng.randrange(2, 4), rng.randrange(2, 4)) \
            if rng.randrange(2) else builders.hypercube(rng.randrange(2, 4))
        ids = [v] + list(range(n, n + piece.n - 1))
        edges += [(ids[a], ids[b]) for a, b in piece.edges]
        n += piece.n - 1
    g = MedianGraph(n, edges)
    assert check_median(g).ok
    return g


@st.composite
def shuffled_median_graphs(draw):
    """A product, tree, grid, F2 ball or glued tree, its ids shuffled."""
    kind = draw(st.sampled_from(["product", "tree", "grid", "ball",
                                 "glued"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "product":
        g = builders.random_product(rng)[0]
    elif kind == "tree":
        g = builders.random_tree(rng.randrange(2, 40), rng)
    elif kind == "grid":
        g = builders.grid_graph(rng.randrange(1, 8), rng.randrange(2, 8))
    elif kind == "ball":
        g = builders.free_group_ball(rng.randrange(1, 4))
    else:
        g = glued(rng)
    return shuffled(g, rng.randrange(2**32))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g=shuffled_median_graphs())
def test_contains_matches_networkx_components(built_sides, g):
    arr = arrangement(g)
    for c in range(arr.n_classes):
        head = _head_side_oracle(g, arr, c)
        for s in (0, 1):
            hs = arr.halfspace(c, s)
            assert {v for v in range(g.n) if hs.contains(v)} == \
                (head if s else set(range(g.n)) - head)
    assert built_sides == []  # over every example so far


@settings(max_examples=40, deadline=None)
@given(shuffled_median_graphs())
def test_projection_pair_matches_gate_oracle(g):
    arr = arrangement(g)
    hs = arr.hyperplanes()
    for i, h1 in enumerate(hs):
        for h2 in hs[i + 1:]:
            if not strongly_separated(h1, h2):
                with pytest.raises(ValueError):
                    projection_pair(h1, h2)
                continue
            for target, source, edge in zip((h1, h2), (h2, h1),
                                            projection_pair(h1, h2)):
                gates = {gate(g, target.carrier, v, assume_convex=True)
                         for v in source.carrier}
                assert edge == next(
                    tuple(g.edges[e].tolist())
                    for e in arr.class_edges(target.cls)
                    if gates <= set(g.edges[e].tolist()))


@settings(max_examples=60, deadline=None)
@given(shuffled_median_graphs(), st.randoms(use_true_random=False))
def test_distance_to_matches_bfs_and_side_scan(g, rng):
    # pingpong_certify's displacement against the boundary BFS and the scan
    # over the halfspace's vertices that it replaced
    arr = arrangement(g)
    for _ in range(20):
        hs = arr.halfspace(rng.randrange(arr.n_classes), rng.randrange(2))
        boundary = arr.carrier_vertices(rng.randrange(arr.n_classes)) | \
            arr.carrier_vertices(rng.randrange(arr.n_classes))
        dist = bfs_distances(g, boundary)
        assert _distance_to(hs, boundary) == min(dist[v] for v in hs.vertices)


def reference_companions(g, h_hs):
    """The companion search as a BFS from the carrier to radius 1, then the
    first facing, pairwise strongly separated pair in (class, side) order."""
    arr = h_hs.arr
    dist = bfs_distances(g, sorted(arr.carrier_vertices(h_hs.cls)))
    near = [v for v in range(g.n) if 0 <= dist[v] <= 1]
    classes = sorted({arr.class_of_edge(x, y) for x in near
                      for y in g.neighbours(x)})
    cands = [arr.halfspace(c, s) for c in classes for s in (0, 1)
             if c != h_hs.cls and halfspaces_disjoint(arr.halfspace(c, s),
                                                      h_hs)]
    for i, x in enumerate(cands):
        for y in cands[i + 1:]:
            if halfspaces_disjoint(x, y) and all(
                    strongly_separated(p.hyperplane, q.hyperplane)
                    for p, q in ((x, y), (x, h_hs), (y, h_hs))):
                return (x, y)
    return None


@settings(max_examples=40, deadline=None)
@given(shuffled_median_graphs())
def test_find_companions_matches_carrier_bfs(g):
    a = builders.trivial_action(g)
    arr = arrangement(g)
    for c in range(arr.n_classes):
        for s in (0, 1):
            hs = arr.halfspace(c, s)
            assert _find_companions(a, hs) == reference_companions(g, hs)


def test_separating_classes_count_equals_distance():
    g = builders.grid_graph(4, 4)
    li = g.label_index
    u, v = li["0,0"], li["3,2"]
    assert len(separating_classes(g, u, v)) == 5


@pytest.mark.parametrize("seed", range(3))
def test_separating_classes_match_membership(seed):
    # separators(u) ^ separators(v) against the contains() definition, on
    # relabelled graphs where vertex 0 sits anywhere
    rng = random.Random(seed)
    graphs = [builders.random_product(rng)[0], builders.random_tree(20, rng),
              builders.grid_graph(4, 3), builders.free_group_ball(2)]
    for g in (shuffled(g, seed) for g in graphs):
        arr = arrangement(g)
        heads = [arr.halfspace(c, 1) for c in range(arr.n_classes)]
        for u in range(g.n):
            assert len(arr.separators(u)) == g.dist(0, u)
            for v in range(g.n):
                assert separating_classes(g, u, v) == \
                    {h.cls for h in heads if h.contains(u) != h.contains(v)}


def test_decomposition_q3_and_grid():
    dec = irreducible_decomposition(builders.hypercube(3))
    assert dec.r == 3
    assert all(f.n == 2 for f in dec.factors)
    dec2 = irreducible_decomposition(builders.grid_graph(3, 3))
    assert dec2.r == 2
    assert sorted(f.n for f in dec2.factors) == [3, 3]


def test_decomposition_of_irreducible_graph_is_trivial():
    t = builders.random_tree(10, random.Random(2))
    assert irreducible_decomposition(t).r == 1


def test_random_products_decompose_and_verify():
    rng = random.Random(99)
    for _ in range(20):
        g, factors = builders.random_product(rng)
        dec = irreducible_decomposition(g)
        # factor count may merge (a path x path is still r=2) but sizes match
        assert sorted(f.n for f in dec.factors) == \
            sorted(f.n for f in factors)


def test_hyperplane_report_format():
    rep = hyperplane_report(builders.path_graph(3))
    assert rep.splitlines() == [
        "H0: edges=0-1 sideA=1 sideB=2",
        "H1: edges=1-2 sideA=2 sideB=1",
    ]


def reference_hyperplane_report(g):
    """hyperplane_report as it was before it read the walk: each class's
    side 1 is built, as a networkx component (:func:`_head_side_oracle`),
    and counted."""
    arr = arrangement(g)
    lines = []
    for c in range(arr.n_classes):
        es = ",".join(f"{g.labels[u]}-{g.labels[v]}"
                      for u, v in g.edges[arr.class_edges(c)].tolist())
        b = len(_head_side_oracle(g, arr, c))
        lines.append(f"H{c}: edges={es} sideA={g.n - b} sideB={b}")
    return "\n".join(lines)


@st.composite
def report_graphs(draw):
    """A product, tree, grid, F2 ball of radius at most 4 or Q3–Q5,
    relabelled or not."""
    kind = draw(st.sampled_from(["product", "tree", "grid", "ball",
                                 "cube"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "product":
        g = builders.random_product(rng)[0]
    elif kind == "tree":
        g = builders.random_tree(draw(st.integers(1, 40)), rng)
    elif kind == "grid":
        g = builders.grid_graph(draw(st.integers(1, 8)),
                                draw(st.integers(1, 8)))
    elif kind == "ball":
        g = builders.free_group_ball(draw(st.integers(0, 4)))
    else:
        g = builders.hypercube(draw(st.integers(3, 5)))
    if draw(st.booleans()):
        g = shuffled(g, draw(st.integers(0, 2**16)))
    return g


def _far_side_oracle(g, arr, c):
    """The far side of class c from networkx: the vertices outside the
    component of vertex 0 in G minus the class's edges."""
    cut = nx.Graph()
    cut.add_nodes_from(range(g.n))
    cut.add_edges_from(g.edges.tolist())
    cut.remove_edges_from(g.edges[arr.class_edges(c)].tolist())
    return set(range(g.n)) - nx.node_connected_component(cut, 0)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g=report_graphs())
def test_hyperplane_report_matches_the_side_building_reference(built_sides,
                                                               g):
    text = hyperplane_report(g)
    assert built_sides == []  # no report so far built a side
    assert text == reference_hyperplane_report(g)


@settings(max_examples=40, deadline=None)
@given(report_graphs())
def test_hyperplane_report_sizes_match_networkx_sides(g):
    arr = arrangement(g)
    lines = hyperplane_report(g).splitlines()
    assert len(lines) == arr.n_classes
    for c, line in enumerate(lines):
        far = _far_side_oracle(g, arr, c)
        b = len(far) if arr.rep_oriented(c)[1] in far else g.n - len(far)
        assert line.endswith(f" sideA={g.n - b} sideB={b}")


@settings(max_examples=40, deadline=None)
@given(report_graphs(), st.randoms(use_true_random=False))
def test_walk_pairs_are_the_separating_classes_of_networkx_sides(g, rng):
    # the one walk from every vertex, its pairs grouped by owner, against
    # the classes whose networkx far side holds the vertex
    arr = arrangement(g)
    far = [_far_side_oracle(g, arr, c) for c in range(arr.n_classes)]
    owner, cls = arr.walk(np.arange(g.n))
    walked = [set() for _ in range(g.n)]
    for v, c in zip(owner.tolist(), cls.tolist()):
        assert c not in walked[v]  # a geodesic crosses each class once
        walked[v].add(c)
    assert walked == [{c for c, f in enumerate(far) if v in f}
                      for v in range(g.n)]
    for _ in range(20):
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        assert walked[u] ^ walked[v] == separating_classes(g, u, v) == \
            {c for c, f in enumerate(far) if (u in f) != (v in f)}
    for c in range(arr.n_classes):  # below(c) walks c's near end
        near = next(v for v in arr.rep_oriented(c) if v not in far[c])
        assert arr.below(c) == {d for d, f in enumerate(far) if near in f}


def test_parse_halfspace_tokens():
    arr = arrangement(builders.hypercube(2))
    assert parse_halfspace(arr, "H1+").key == (1, 1)
    assert parse_halfspace(arr, "H0-").key == (0, 0)
    with pytest.raises(ValueError):
        parse_halfspace(arr, "1+")
