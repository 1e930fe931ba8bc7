import random

import pytest

from cubekit import builders
from cubekit.sageev import (Wall, Wallspace, WallspaceError, build_dual,
                            parse_wallspace, roundtrip_check,
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
    assert parse_wallspace(wallspace_to_text(w)).walls == w.walls


def test_wall_canonicalization():
    assert Wall.of([2, 3], [0, 1]) == Wall.of([0, 1], [3, 2])


def test_invalid_wallspaces_rejected():
    with pytest.raises(WallspaceError):
        Wallspace(["a", "b"], [Wall.of([0, 1], [])])
    with pytest.raises(WallspaceError):
        Wallspace(["a", "b", "c"], [Wall.of([0], [1])])  # misses c
    w = Wall.of([0], [1, 2])
    with pytest.raises(WallspaceError):
        Wallspace(["a", "b", "c"], [w, w])


def test_three_pairwise_crossing_walls_give_q3():
    # ground of 8 points = corners of a cube, walls = coordinate splits;
    # every orientation is consistent, so the dual is Q3
    pts = [format(i, "03b") for i in range(8)]
    walls = [Wall.of([i for i in range(8) if (i >> b) & 1],
                     [i for i in range(8) if not (i >> b) & 1])
             for b in range(3)]
    dual = build_dual(Wallspace(pts, walls))
    q3 = builders.hypercube(3)
    assert (dual.n, dual.m) == (q3.n, q3.m)
    assert sorted(dual.labels) == sorted(q3.labels)


def test_three_facing_walls_give_star():
    # walls {i} | rest for i = 0,1,2: picking two singleton sides is
    # inconsistent, leaving exactly 4 orientations -> K_{1,3}
    walls = [Wall.of([i], [j for j in range(4) if j != i]) for i in range(3)]
    dual = build_dual(Wallspace(list("wxyz"), walls))
    assert dual.n == 4 and dual.m == 3
    degs = sorted(len(dual.neighbours(v)) for v in range(dual.n))
    assert degs == [1, 1, 1, 3]


def test_wall_capacity_limit():
    pts = list(range(30))
    walls = [Wall.of([i], [j for j in pts if j != i]) for i in range(25)]
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
    assert {frozenset(x) for wall in w.walls for x in wall.sides()} == \
        {frozenset(s) for s in ({0}, {1, 2, 3}, {0, 1}, {2, 3},
                                {0, 1, 2}, {3})}
