"""Acceptance suite.

Each test carries a criterion marker (the conftest hook prints one
pass/fail line per marked test) and is independently budgeted to finish well under 30
seconds.  Oracle values are recomputed in-test by routes independent of
the code under test wherever feasible: numpy tensor counts for medians,
gate computations for projections, dense radial eigensolves for spectra.
"""

import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from cubekit import builders
from cubekit.median import (brute_force_median_oracle, check_median,
                            graph_to_text)
from cubekit.hyperplanes import (arrangement, compute_hyperplanes,
                                 facing_tuples, irreducible_decomposition,
                                 product_graph, projection_pair,
                                 strongly_separated)
from cubekit.sageev import Wallspace, build_dual, roundtrip_check
from cubekit.action import (action_to_text, load_quotient, parse_word,
                            stabilizer_words)
from cubekit.schottky import (PingPongCertificate, build_quadruple,
                              elliptic_fixed_point,
                              find_separated_translate, pingpong_certify,
                              sigma_analysis, stable_certify,
                              verify_certificate)
from cubekit.schreier import build_schreier, spectral_estimate, \
    spectral_series
from median_oracles import gate, is_convex


# -- session fixtures (built once; the tree balls dominate setup time) ----

@pytest.fixture(scope="session")
def f2_10():
    return builders.free_group_action(10)


@pytest.fixture(scope="session")
def f2_11():
    return builders.free_group_action(11)


@pytest.fixture(scope="session")
def grid101():
    return builders.grid_shift_action(101)


@pytest.fixture(scope="session")
def small_corpus():
    rng = random.Random(2024)
    corpus = [builders.hypercube(2), builders.hypercube(3),
              builders.path_graph(5), builders.star(4),
              builders.grid_graph(3, 3), builders.free_group_ball(2),
              builders.random_tree(10, rng)]
    corpus += [builders.random_product(rng)[0] for _ in range(4)]
    return corpus


def _hs(a, u, v):
    arr = arrangement(a.graph)
    idx = a.graph.label_index
    return arr.halfspace_of_oriented_edge(idx[u], idx[v])


# -- criteria -------------------------------------------------------------

@pytest.mark.criterion("criterion 1 (median validation)")
def test_median_validation():
    assert check_median(builders.hypercube(3)).ok
    k3 = check_median(builders.triangle())
    assert not k3.ok and k3.counterexample is not None
    qm = check_median(builders.cube_minus_vertex())
    assert not qm.ok and qm.counterexample is not None
    rng = random.Random(12345)
    for _ in range(200):
        g = builders.random_connected_graph(rng.randrange(3, 41),
                                            rng.randrange(0, 6), rng)
        assert check_median(g).ok == (brute_force_median_oracle(g) is None)


@pytest.mark.criterion("criterion 2 (hyperplane counts and halfspaces)")
def test_hyperplane_counts(small_corpus):
    for n in range(1, 7):
        assert len(compute_hyperplanes(builders.hypercube(n))) == n
    rng = random.Random(5)
    for _ in range(10):
        t = builders.random_tree(rng.randrange(2, 25), rng)
        assert len(compute_hyperplanes(t)) == t.m
    assert len(compute_hyperplanes(builders.grid_graph(3, 3))) == 4
    for g in small_corpus:
        arr = arrangement(g)
        allv = frozenset(range(g.n))
        for c in range(arr.n_classes):
            s0, s1 = arr.side_vertices(c, 0), arr.side_vertices(c, 1)
            assert s0 | s1 == allv and not (s0 & s1)    # two components
            assert is_convex(g, s0) and is_convex(g, s1)


@pytest.mark.criterion("criterion 3 (strong separation and projection)")
def test_strong_separation_and_projection():
    rng = random.Random(31)
    trees = [builders.random_tree(rng.randrange(4, 14), rng)
             for _ in range(6)] + [builders.free_group_ball(3)]
    for t in trees:
        hs = compute_hyperplanes(t)
        for i, h1 in enumerate(hs):
            for h2 in hs[i + 1:]:
                assert strongly_separated(h1, h2)
                e1, e2 = projection_pair(h1, h2)
                gates1 = {gate(t, h1.carrier, v, assume_convex=True)
                          for v in h2.carrier}
                gates2 = {gate(t, h2.carrier, v, assume_convex=True)
                          for v in h1.carrier}
                assert gates1 <= set(e1) and gates2 <= set(e2)
    for _ in range(3):
        t = builders.random_tree(rng.randrange(3, 7), rng)
        tt = product_graph(t, t)
        hs = compute_hyperplanes(tt)
        assert not any(strongly_separated(h1, h2)
                       for i, h1 in enumerate(hs) for h2 in hs[i + 1:])


@pytest.mark.criterion("criterion 4 (decomposition roundtrip)")
def test_decomposition_roundtrip():
    assert irreducible_decomposition(builders.hypercube(3)).r == 3
    assert irreducible_decomposition(builders.grid_graph(3, 3)).r == 2
    rng = random.Random(77)
    for _ in range(100):
        g, factors = builders.random_product(rng)
        # irreducible_decomposition raises if its product isomorphism is
        # not exact; additionally the factor size multiset must match
        dec = irreducible_decomposition(g)
        assert sorted(f.n for f in dec.factors) == \
            sorted(f.n for f in factors)


@pytest.mark.criterion("criterion 5 (wallspace dual)")
def test_sageev_dual(small_corpus):
    pts = [format(i, "03b") for i in range(8)]
    crossing = [[(i >> b) & 1 for i in range(8)] for b in range(3)]
    dual = build_dual(Wallspace(pts, crossing))
    assert (dual.n, dual.m) == (8, 12)          # Q3
    facing = [[j == i for j in range(4)] for i in range(3)]
    star = build_dual(Wallspace(list("abcd"), facing))
    assert star.n == 4 and sorted(len(star.neighbours(v))
                                  for v in range(star.n)) == [1, 1, 1, 3]
    for g in small_corpus:
        assert roundtrip_check(g).ok


@pytest.mark.criterion("criterion 6 (free-pair pipeline with certificates)")
def test_free_pair_pipeline(f2_10):
    a = f2_10
    arr = arrangement(a.graph)
    # facing triple among the depth-1 hyperplanes
    triples = facing_tuples(a.graph, 3, classes=[0, 1, 2, 3], limit=10)
    assert triples
    triple = (_hs(a, "1", "b"), _hs(a, "1", "a"), _hs(a, "1", "A"))
    quad_res = build_quadruple(a, triple, 3)
    q = quad_res.quadruple
    assert all(strongly_separated(x.hyperplane, y.hyperplane)
               for i, x in enumerate(q) for y in q[i + 1:])
    # certificate for the pair (a^2, b^2) on the symmetric quadruple
    quad = (_hs(a, "a", "aa"), _hs(a, "A", "AA"),
            _hs(a, "b", "bb"), _hs(a, "B", "BB"))
    cert = pingpong_certify(a, quad, ("a", "a"), ("b", "b"), 3)
    assert isinstance(cert, PingPongCertificate), getattr(cert, "reason", "")
    assert cert.delta_witness >= 2
    stable = stable_certify(a, _hs(a, "1", "a").hyperplane, cert, 8)
    assert len(stable.verified) == 8            # all sampled commutators
    ok, msg = verify_certificate(a, cert.to_text())
    assert ok, msg
    ok, msg = verify_certificate(a, stable.to_text())
    assert ok, msg


@pytest.mark.criterion("criterion 7 (Schreier spectral oracle)")
def test_schreier_spectral(f2_11, grid101):
    hs = _hs(f2_11, "1", "a")
    series = spectral_series(f2_11, hs, [8, 9, 10])
    vals = [e.estimate for e in series]
    assert vals == sorted(vals)                 # Dirichlet monotonicity
    assert abs(vals[-1] - math.sqrt(3) / 2) <= 0.05
    # independent oracle: dense radial eigensolve of the interior ball
    r = series[-1].radius - 1
    M = np.zeros((r + 1, r + 1))
    M[0, 1] = 4.0
    for k in range(1, r + 1):
        M[k, k - 1] = 1.0
        if k < r:
            M[k, k + 1] = 3.0
    oracle = max(np.linalg.eigvals(M / 4.0).real)
    assert vals[-1] == pytest.approx(oracle, abs=1e-6)
    # amenable control: a wall stabilizer in Z^2 gives a line
    idx = grid101.graph.label_index
    wall = arrangement(grid101.graph).halfspace_of_oriented_edge(
        idx["50,50"], idx["51,50"])
    est = spectral_estimate(build_schreier(grid101, wall, 50))
    assert est.estimate > 0.98


@pytest.mark.criterion("criterion 8 (stabilizer machinery and fixed points)")
def test_sigma_and_elliptic(f2_10, grid101):
    a = f2_10
    data = sigma_analysis(a, _hs(a, "1", "a"), _hs(a, "b", "bb"), 4)
    assert data.sigma == [()]                   # trivial Sigma
    assert len(data.a_orbit) == 1               # finite A-orbit of size 1
    assert data.fixes_p_ok and data.separea_ok
    stab = stabilizer_words(a, _hs(a, "1", "a"), 3)
    res = elliptic_fixed_point(a, stab, 2,
                               hyperplane=_hs(a, "1", "a").hyperplane)
    assert res.kind == "edge"
    labs = {a.graph.labels[v] for v in res.locus}
    assert labs == {"1", "a"}
    res2 = elliptic_fixed_point(grid101, [("x",), ("y",)], 2)
    assert res2.kind == "not-found"


@pytest.mark.criterion("criterion 9 (separated translate through Z/2 quotient)")
def test_separated_translate(f2_11):
    a = f2_11
    q = load_quotient("perm a: (0 1)\nperm b: (0 1)\n", a.gens)
    h_hs = _hs(a, "1", "A")
    companions = (_hs(a, "a", "aa"), _hs(a, "b", "ba"))
    res = find_separated_translate(a, h_hs, q, 6, companions=companions)
    assert res is not None
    assert res.n0 == 2
    assert strongly_separated(res.translate.hyperplane, h_hs.hyperplane)


@pytest.mark.criterion("criterion 10 (determinism across thread settings)")
def test_determinism(tmp_path):
    a = builders.free_group_action(4)
    gpath = tmp_path / "f2.graph"
    apath = tmp_path / "f2.action"
    gpath.write_text(graph_to_text(a.graph))
    apath.write_text(action_to_text(a))
    invocations = [
        ["validate", str(gpath)],
        ["hyperplanes", str(gpath)],
        ["facing", str(gpath), "--k", "3", "--limit", "20"],
        ["decompose", str(gpath)],
        ["orbit", str(gpath), str(apath), "--halfspace", "H0+", "-L", "2"],
        ["pingpong", str(gpath), str(apath),
         "--quadruple", "H0+ H1+ H2+ H3+", "--g", "a", "--h", "b",
         "--m-max", "1"],
        ["schreier", str(gpath), str(apath), "--halfspace", "H0+",
         "--radius", "2"],
        ["spectral", str(gpath), str(apath), "--halfspace", "H0+",
         "--radii", "2,3"],
        ["report", str(gpath), str(apath)],
    ]
    for argv in invocations:
        outs = []
        for threads in ("1", "4"):
            env = dict(os.environ, CUBEKIT_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "cubekit.cli"]
                                  + argv, capture_output=True, env=env)
            assert proc.returncode == 0, (argv, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv
