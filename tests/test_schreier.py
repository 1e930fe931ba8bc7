import math

import pytest

from cubekit import builders
from cubekit.hyperplanes import arrangement
from cubekit.schreier import (SchreierError, build_schreier,
                              free_action_cert, schreier_to_text,
                              spectral_estimate, spectral_series)


def tree_setup(radius):
    a = builders.free_group_action(radius)
    arr = arrangement(a.graph)
    idx = a.graph.label_index
    hs = arr.halfspace_of_oriented_edge(idx["1"], idx["a"])
    return a, hs


def test_schreier_of_free_action_is_cayley_ball():
    # trivial stabilizer: nodes biject with group elements of length <= r
    a, hs = tree_setup(5)
    sg = build_schreier(a, hs, 4)
    sizes = [1, 5, 17, 53, 161]   # 1 + 4*(3^k - 1)/2 cumulative
    assert sg.n == sizes[4]
    assert len(sg.interior()) == sizes[3]
    # witness words are exactly the reduced words
    assert sorted(len(w) for w in sg.witness).count(0) == 1


def test_schreier_edges_are_consistent_with_action():
    a, hs = tree_setup(4)
    sg = build_schreier(a, hs, 3)
    inv = a.gens.inv
    for nm in a.gens.names:
        col = sg.edges[nm]
        back = sg.edges[inv[nm]]
        for u, v in enumerate(col):
            if v >= 0 and back[v] >= 0:
                assert back[v] == u


def test_schreier_text_format():
    a, hs = tree_setup(3)
    sg = build_schreier(a, hs, 2)
    text = schreier_to_text(sg)
    assert text.startswith("v 1\n")
    assert "# frontier:" in text


def test_grid_wall_schreier_is_a_line():
    # stabilizer of a vertical wall in Z^2 contains the y-shift, so the
    # Schreier graph collapses to the line of x-translates
    a = builders.grid_shift_action(9)
    arr = arrangement(a.graph)
    # wall classes: pick one whose dual edges are horizontal (x varies)
    idx = a.graph.label_index
    hs = arr.halfspace_of_oriented_edge(idx["4,4"], idx["5,4"])
    sg = build_schreier(a, hs, 3)
    assert sg.n == 7   # positions -3..3 along x
    degs = {}
    for nm in a.gens.names:
        for u, v in enumerate(sg.edges[nm]):
            if v == u:
                degs[u] = degs.get(u, 0) + 1
    # y-shifts fix every node: two loops per expanded node
    assert all(degs[u] == 2 for u in sg.interior())


def test_spectral_estimate_matches_radial_oracle():
    # Dirichlet eigenvalue of the interior tree ball, oracle from the
    # depth-only radial reduction (independent dense eigensolve)
    import numpy as np
    a, hs = tree_setup(7)
    sg = build_schreier(a, hs, 6)
    est = spectral_estimate(sg)
    r = 5   # interior radius
    M = np.zeros((r + 1, r + 1))
    M[0, 1] = 4.0
    for k in range(1, r + 1):
        M[k, k - 1] = 1.0
        if k < r:
            M[k, k + 1] = 3.0
    oracle = max(np.linalg.eigvals(M / 4.0).real)
    assert est.estimate == pytest.approx(oracle, abs=1e-6)
    assert est.residual < 1e-7


def test_spectral_series_is_monotone():
    a, hs = tree_setup(7)
    ests = spectral_series(a, hs, [3, 4, 5, 6])
    vals = [e.estimate for e in ests]
    assert vals == sorted(vals)


@pytest.mark.parametrize("radii", [[4, 2, 3], [3, 3, 1, 4], [1]])
def test_spectral_series_equals_separate_builds(radii):
    grid = builders.grid_shift_action(15)
    idx = grid.graph.label_index
    wall = arrangement(grid.graph).halfspace_of_oriented_edge(idx["7,7"],
                                                              idx["8,7"])
    for a, hs in (tree_setup(6), (grid, wall)):
        want = [spectral_estimate(build_schreier(a, hs, r))
                for r in sorted(radii)]
        assert spectral_series(a, hs, radii) == want


def test_spectral_series_radius_zero_raises_like_a_separate_build():
    a, hs = tree_setup(6)
    with pytest.raises(SchreierError) as want:
        spectral_estimate(build_schreier(a, hs, 0))
    with pytest.raises(SchreierError) as got:
        spectral_series(a, hs, [3, 0, 2])
    assert str(got.value) == str(want.value)


def test_spectral_line_approaches_one():
    a = builders.line_shift_action(40)
    arr = arrangement(a.graph)
    hs = arr.halfspace_of_oriented_edge(40, 41)
    sg = build_schreier(a, hs, 30)
    est = spectral_estimate(sg)
    # 1d walk: cos(pi/(k+1)) for k interior nodes
    k = est.interior_nodes
    assert est.estimate == pytest.approx(math.cos(math.pi / (k + 1)),
                                         abs=1e-6)


def test_spectral_needs_interior():
    a, hs = tree_setup(2)
    sg = build_schreier(a, hs, 0)
    with pytest.raises(SchreierError):
        spectral_estimate(sg)


def test_csv_line_format():
    a, hs = tree_setup(4)
    est = spectral_estimate(build_schreier(a, hs, 3))
    radius, value, residual = est.csv_line().split(",")
    assert radius == "3"
    float(value), float(residual)


def test_free_action_certificate_on_tree():
    a, hs = tree_setup(6)
    sg = build_schreier(a, hs, 5)
    cert = free_action_cert(sg, (("a", "a"), ("b", "b")), 2)
    assert cert.ok
    assert not cert.fixed
    assert cert.min_displaced_fraction == 1.0


def test_free_action_certificate_refutes_torsion():
    # on the grid, g = x-shift, h = its inverse: the word g h fixes nodes
    a = builders.grid_shift_action(9)
    arr = arrangement(a.graph)
    idx = a.graph.label_index
    hs = arr.halfspace_of_oriented_edge(idx["4,4"], idx["5,4"])
    sg = build_schreier(a, hs, 3)
    cert = free_action_cert(sg, (("x",), ("y",)), 2)
    # x and y commute: the commutator-free words themselves act freely on
    # the line only via their x-exponent; g h g^-1 h^-1 is not length <= 2,
    # but h = y fixes every node outright
    assert not cert.ok
    assert any(w == ("h",) for w, _ in cert.fixed)
