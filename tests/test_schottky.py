import sys

import pytest

from cubekit import builders
from cubekit.action import load_quotient, parse_word
from cubekit.hyperplanes import arrangement, strongly_separated
from cubekit.schottky import (PingPongCertificate, PingPongRefutation,
                              SchottkyError, build_quadruple,
                              commutator_sample, elliptic_fixed_point,
                              find_separated_translate, pingpong_certify,
                              sigma_analysis, stable_certify,
                              verify_certificate)


_ACTIONS = {}


def f2_action(radius):
    # the big tree balls dominate runtime; build each radius once
    if radius not in _ACTIONS:
        _ACTIONS[radius] = builders.free_group_action(radius)
    return _ACTIONS[radius]


def hs_of(a, u, v):
    arr = arrangement(a.graph)
    idx = a.graph.label_index
    return arr.halfspace_of_oriented_edge(idx[u], idx[v])


def symmetric_quadruple(a):
    return (hs_of(a, "a", "aa"), hs_of(a, "A", "AA"),
            hs_of(a, "b", "bb"), hs_of(a, "B", "BB"))


# -- sigma ----------------------------------------------------------------

def test_sigma_trivial_for_free_action():
    a = f2_action(5)
    data = sigma_analysis(a, hs_of(a, "1", "a"), hs_of(a, "b", "bb"), 4)
    assert data.sigma == [()]
    assert len(data.a_orbit) == 1
    assert data.fixes_p_ok
    assert data.separea_ok


def test_sigma_rejects_non_strongly_separated():
    a = builders.grid_shift_action(5)
    arr = arrangement(a.graph)
    with pytest.raises(SchottkyError):
        sigma_analysis(a, arr.halfspace(0, 1), arr.halfspace(1, 1), 2)


# -- quadruple ------------------------------------------------------------

def test_build_quadruple_from_basepoint_triple():
    a = f2_action(6)
    triple = (hs_of(a, "1", "b"), hs_of(a, "1", "a"), hs_of(a, "1", "A"))
    res = build_quadruple(a, triple, 4)
    q = res.quadruple
    assert len({h.key for h in q}) == 4
    assert all(strongly_separated(x.hyperplane, y.hyperplane)
               for i, x in enumerate(q) for y in q[i + 1:])
    assert not res.refined   # tree halfspaces are already strongly separated


def test_build_quadruple_rejects_non_facing_input():
    a = f2_action(4)
    bad = (hs_of(a, "1", "a"), hs_of(a, "a", "aa"), hs_of(a, "1", "b"))
    with pytest.raises(SchottkyError):
        build_quadruple(a, bad, 3)


# -- ping-pong ------------------------------------------------------------

def test_pingpong_certificate_for_a2_b2():
    a = f2_action(9)
    quad = symmetric_quadruple(a)
    res = pingpong_certify(a, quad, ("a", "a"), ("b", "b"), 2)
    assert isinstance(res, PingPongCertificate)
    assert res.delta_witness >= 2
    assert res.displacement[0] == (1, 4)
    ok, msg = verify_certificate(a, res.to_text())
    assert ok, msg


def test_pingpong_refutes_non_schottky_pair():
    # g = h = a^2 cannot ping-pong between the a-axis and the b-axis
    a = f2_action(6)
    quad = symmetric_quadruple(a)
    res = pingpong_certify(a, quad, ("a", "a"), ("a", "a"), 1)
    assert isinstance(res, PingPongRefutation)
    assert "not inside" in res.reason


def test_pingpong_rejects_trivial_words():
    a = f2_action(5)
    res = pingpong_certify(a, symmetric_quadruple(a), (), ("b",), 1)
    assert isinstance(res, PingPongRefutation)


def test_tampered_certificate_detected():
    a = f2_action(9)
    res = pingpong_certify(a, symmetric_quadruple(a), ("a", "a"),
                           ("b", "b"), 2)
    text = res.to_text().replace("delta-witness: 4", "delta-witness: 9")
    ok, msg = verify_certificate(a, text)
    assert not ok
    assert "differs" in msg


def test_certificate_wrong_action_detected():
    a = f2_action(9)
    res = pingpong_certify(a, symmetric_quadruple(a), ("a", "a"),
                           ("b", "b"), 2)
    other = f2_action(8)
    ok, msg = verify_certificate(other, res.to_text())
    assert not ok and "digest" in msg


# -- stable hyperplane ----------------------------------------------------

def test_commutator_sample_contents():
    from cubekit.action import Generators
    gens = Generators([("a", "A"), ("b", "B")])
    sample = commutator_sample(("a", "a"), ("b", "b"), gens, 8)
    assert len(sample) == 8
    assert parse_word("aabbAABB", gens) in sample
    assert all(1 <= len(w) <= 8 for w in sample)


def test_stable_certificate_roundtrip():
    a = f2_action(10)
    pp = pingpong_certify(a, symmetric_quadruple(a), ("a", "a"),
                          ("b", "b"), 2)
    arr = arrangement(a.graph)
    h_hyp = hs_of(a, "1", "a").hyperplane
    cert = stable_certify(a, h_hyp, pp, 8)
    assert len(cert.verified) == 8
    ok, msg = verify_certificate(a, cert.to_text())
    assert ok, msg


def test_stable_rejects_hyperplane_meeting_quadruple():
    a = f2_action(10)
    pp = pingpong_certify(a, symmetric_quadruple(a), ("a", "a"),
                          ("b", "b"), 2)
    inside = hs_of(a, "aa", "aaa").hyperplane   # inside U
    with pytest.raises(SchottkyError):
        stable_certify(a, inside, pp, 8)


# -- elliptic -------------------------------------------------------------

def test_elliptic_edge_stabilizer_on_tree():
    a = f2_action(4)
    hyp = hs_of(a, "1", "a").hyperplane
    res = elliptic_fixed_point(a, [()], 2, hyperplane=hyp)
    assert res.kind == "edge"
    t, h = res.locus
    assert {a.graph.labels[t], a.graph.labels[h]} == {"1", "a"}


def test_elliptic_not_found_for_grid_shifts():
    a = builders.grid_shift_action(7)
    res = elliptic_fixed_point(a, [("x",), ("y",)], 2)
    assert res.kind == "not-found"


def test_elliptic_vertex_for_trivial_action():
    a = builders.trivial_action(builders.path_graph(5))
    res = elliptic_fixed_point(a, [("s",), ("t",)], 2)
    assert res.kind == "vertex"
    assert res.locus == (a.base,)


# -- separated translate --------------------------------------------------

def test_separated_translate_sign_quotient():
    a = f2_action(11)
    q = load_quotient("perm a: (0 1)\nperm b: (0 1)\n", a.gens)
    h_hs = hs_of(a, "1", "A")
    companions = (hs_of(a, "a", "aa"), hs_of(a, "b", "ba"))
    res = find_separated_translate(a, h_hs, q, 6, companions=companions)
    assert res is not None
    assert res.n0 == 2
    assert res.word == parse_word("aabAB", a.gens)
    assert strongly_separated(res.translate.hyperplane, h_hs.hyperplane)


def test_separated_translate_auto_companions():
    a = f2_action(7)
    q = load_quotient("perm a: (0 1)\nperm b: (0 1)\n", a.gens)
    res = find_separated_translate(a, hs_of(a, "1", "A"), q, 4)
    assert res is not None
    assert res.n0 >= 1
    assert strongly_separated(res.translate.hyperplane,
                              hs_of(a, "1", "A").hyperplane)


# -- separators only ------------------------------------------------------

def test_certificate_pass_runs_no_bfs_and_builds_no_side(monkeypatch):
    """Once the graph, its arrangement and the action's frontier row are
    built, the certificate pass learns membership and distance from
    separators alone: no BFS row and no side."""
    import cubekit.median as m
    a = builders.free_group_action(6)
    arr, _, _ = a.carrier()
    q = load_quotient("perm a: (0 1)\nperm b: (0 1)\n", a.gens)
    calls = []

    def counting_bfs(adj, sources):
        calls.append(list(sources))
        return orig(adj, sources)

    orig = m.bfs_distances
    for name, mod in list(sys.modules.items()):
        if name.startswith("cubekit") and \
                getattr(mod, "bfs_distances", None) is orig:
            monkeypatch.setattr(mod, "bfs_distances", counting_bfs)
    data = sigma_analysis(a, hs_of(a, "1", "a"), hs_of(a, "b", "bb"), 4)
    assert data.fixes_p_ok
    pp = pingpong_certify(a, symmetric_quadruple(a), ("a", "a"), ("b", "b"),
                          1)
    assert pp.displacement == [(1, 4)]
    stable = stable_certify(a, hs_of(a, "1", "a").hyperplane, pp, 0)
    assert verify_certificate(a, pp.to_text()) == \
        (True, "certificate verified")
    assert verify_certificate(a, stable.to_text()) == \
        (True, "certificate verified")
    assert find_separated_translate(a, hs_of(a, "1", "A"), q, 4) is not None
    assert calls == []
    assert not arr._side_cache
