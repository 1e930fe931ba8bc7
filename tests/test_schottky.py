import functools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cubekit import builders
from cubekit.action import (ActionError, Generators, PartialAction,
                            load_action, load_quotient, parse_word)
from cubekit.hyperplanes import arrangement, strongly_separated
from cubekit.median import check_median, load_graph
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


def basepoint_quadruple(a):
    return (hs_of(a, "1", "a"), hs_of(a, "1", "A"),
            hs_of(a, "1", "b"), hs_of(a, "1", "B"))


def permutation_action(graph, **maps):
    """Generators x acting by the total vertex maps given; each is declared
    with its inverse X."""
    inverse = {}
    for nm, mp in maps.items():
        inv = [0] * graph.n
        for v, w in enumerate(mp):
            inv[w] = v
        inverse[nm.upper()] = inv
    return PartialAction(graph, Generators([(nm, nm.upper()) for nm in maps]),
                         {**maps, **inverse})


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


def test_pingpong_refutes_non_facing_quadruple():
    a = f2_action(4)
    h1, _, h3, h4 = symmetric_quadruple(a)
    res = pingpong_certify(a, (h1, hs_of(a, "1", "a"), h3, h4), ("a", "a"),
                           ("b", "b"), 1)
    assert res == PingPongRefutation("quadruple is not facing: H4+ meets H0+")


def test_pingpong_refutes_pair_not_strongly_separated():
    # two parallel grid walls are disjoint, and every cross wall meets both
    a = builders.grid_shift_action(5)
    left, right = hs_of(a, "1,2", "0,2"), hs_of(a, "3,2", "4,2")
    res = pingpong_certify(a, (left, right, left, right), ("x",), ("y",), 1)
    assert res == PingPongRefutation(
        "pair H1-,H7+ is not strongly separated")


def test_pingpong_refutes_failing_g_inclusion():
    a = f2_action(6)
    res = pingpong_certify(a, symmetric_quadruple(a), ("b", "b"), ("a", "a"),
                           1)
    assert res == PingPongRefutation(
        "g^1(H12+) = H132+ not inside H4+/H7+")


@pytest.mark.parametrize("radius", [3, 4])
def test_pingpong_refutes_without_displacement_data(radius):
    # at radius 3 the inclusions leave the ball too (their notes are
    # dropped with the certificate); at radius 4 only x = aabb does
    a = f2_action(radius)
    res = pingpong_certify(a, symmetric_quadruple(a), ("a", "a"),
                           ("b", "b"), 1)
    assert res == PingPongRefutation("no displacement data within the ball")


def test_pingpong_notes_truncated_inclusions_and_displacement():
    # g^4 and h^4 carry the basepoint halfspaces out of the radius-4 ball,
    # and so does x^2 = (ab)^2; m = 1 still certifies
    a = f2_action(4)
    res = pingpong_certify(a, basepoint_quadruple(a), ("a",), ("b",), 4)
    assert isinstance(res, PingPongCertificate)
    assert res.displacement == [(1, 2)]
    assert res.truncation_notes == [
        f"{x}^{n}({hs}) truncated; inclusion unverified"
        for n in (4, -4) for x, pair in (("g", "H2+ H3+"), ("h", "H0+ H1+"))
        for hs in pair.split()] + ["displacement at m=2 truncated"]


def test_pingpong_refutes_zero_displacement():
    # g swaps leaves 1,3 and 2,4 of a star: g(V) = U and g(U) = V, so every
    # inclusion holds, but x = gg acts trivially and U touches its boundary
    g = builders.star(4)
    a = permutation_action(g, g=[0, 3, 4, 1, 2])
    quad = tuple(hs_of(a, "c", f"l{i}") for i in range(1, 5))
    res = pingpong_certify(a, quad, ("g",), ("g",), 1)
    assert res == PingPongRefutation(
        "displacement margin 0 < 1 (x does not move U off its boundary)")


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


def test_verify_reports_each_failure():
    a = f2_action(4)
    text = pingpong_certify(a, basepoint_quadruple(a), ("a",), ("b",),
                            1).to_text()
    assert verify_certificate(a, text) == (True, "certificate verified")
    swapped = PartialAction(a.graph, a.gens, {"a": a.maps["b"],
                                              "A": a.maps["B"],
                                              "b": a.maps["a"],
                                              "B": a.maps["A"]})
    assert verify_certificate(swapped, text) == \
        (False, "action digest mismatch")
    assert verify_certificate(a, text.replace("g: a\n", "g: b\n")) == \
        (False, "g^1(H2+) = H12+ not inside H0+/H1+")
    assert verify_certificate(a, text.replace("v1", "v2", 1)) == \
        (False, "unknown certificate kind 'cubekit-pingpong v2'")
    assert verify_certificate(a, text.replace("quadruple", "quadrupel")) == \
        (False, "verification error: 'quadruple'")
    for cut in (text.rstrip("\n"), text + "note: extra\n"):
        assert verify_certificate(a, cut) == \
            (False, "certificate length differs from regenerated form")


@pytest.mark.parametrize("text, message", [
    ("", "empty certificate"),
    ("cubekit-pingpong v1\nno colon here\n",
     "cannot parse certificate line 'no colon here'"),
])
def test_verify_raises_on_malformed_text(text, message):
    with pytest.raises(SchottkyError) as exc:
        verify_certificate(f2_action(4), text)
    assert str(exc.value) == message


@functools.cache
def r4_certificate():
    a = f2_action(4)
    return pingpong_certify(a, basepoint_quadruple(a), ("a",), ("b",),
                            1).to_text()


@pytest.mark.parametrize("at, message", [
    (4, "line 5 differs: expected 'g: a' got ''"),
    (18, "certificate length differs from regenerated form"),
])
def test_a_blank_line_is_parsed_past_but_fails_the_comparison(at, message):
    """The parser skips a blank line, so the fields around it still parse
    and the byte comparison names the first differing line."""
    lines = r4_certificate().splitlines(keepends=True)
    text = "".join(lines[:at] + ["\n"] + lines[at:])
    assert verify_certificate(f2_action(4), text) == (False, message)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_no_single_character_edit_verifies(data):
    text = r4_certificate()
    i = data.draw(st.integers(0, len(text)))
    ch = data.draw(st.sampled_from(sorted(set(text)) + ["x", "9", "-"]))
    edit = data.draw(st.sampled_from(
        ["insert", "delete", "replace"] if i < len(text) else ["insert"]))
    edited = text[:i] + ("" if edit == "delete" else ch) + \
        text[i + (edit != "insert"):]
    if edited == text:
        return
    try:
        ok, _ = verify_certificate(f2_action(4), edited)
    except (SchottkyError, ActionError):
        ok = False      # an unparsable field or an unknown generator
    assert not ok


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


def test_elliptic_swapped_edge():
    a = permutation_action(builders.path_graph(4), s=[3, 2, 1, 0])
    res = elliptic_fixed_point(a, [("s",)], 1)
    assert (res.kind, res.locus) == ("edge", (1, 2))


def test_elliptic_rotated_square():
    a = permutation_action(builders.hypercube(2), r=[1, 3, 0, 2])
    res = elliptic_fixed_point(a, [("r",)], 1)
    assert (res.kind, res.locus) == ("square", (0, 1, 3, 2))


def reference_elliptic(a, words, hyperplane=None):
    """The per-vertex loop over ``apply`` that the table gathers of
    elliptic_fixed_point replaced."""
    g = a.graph
    if hyperplane is not None:
        t, hd = hyperplane.arr.rep_oriented(hyperplane.cls)
        if all(a.apply(w, t)[0] == t and a.apply(w, hd)[0] == hd
               for w in words):
            return "edge", (t, hd)
    imgs = [[a.apply(w, v)[0] for v in range(g.n)] for w in words]
    fixed = [v for v in range(g.n) if all(im[v] == v for im in imgs)]
    if fixed:
        return "vertex", (a.base if a.base in fixed else min(fixed),)
    for u, v in g.edges:
        if all(im[u] is not None and im[v] is not None and
               {im[u], im[v]} == {u, v} for im in imgs):
            return "edge", (u, v)
    for sq in map(tuple, arrangement(g).squares.tolist()):
        if all(all(im[v] is not None for v in sq) and
               {im[v] for v in sq} == set(sq) for im in imgs):
            return "square", sq
    return "not-found", None


def cube_symmetries():
    """Q3 under a bit rotation r, a flip s of bit 0 and a swap u of bits
    0 and 1: fixed vertices, swapped edges and rotated squares all occur."""
    def bits(f):
        return [sum(((f(v) >> i) & 1) << i for i in range(3))
                for v in range(8)]
    return permutation_action(
        builders.hypercube(3),
        r=bits(lambda v: ((v << 1) | (v >> 2)) & 7),
        s=bits(lambda v: v ^ 1),
        u=bits(lambda v: (v & 4) | ((v & 1) << 1) | ((v >> 1) & 1)))


def fold_action():
    """A path 0-1-2-3 with the reversal s and a map f that folds the edge
    1-2 onto vertex 1 (not injective, so not a valid action): the edge
    s swaps is not a fixed edge of f."""
    g = builders.path_graph(4)
    f, s = [0, 1, 1, 3], [3, 2, 1, 0]
    return PartialAction(g, Generators([("f", "F"), ("s", "S")]),
                         {"f": f, "F": f, "s": s, "S": s})


ELLIPTIC_FAMILIES = {
    "grid": (builders.grid_shift_action, 1, 6),
    "f2": (builders.free_group_action, 0, 3),
    "line": (builders.line_shift_action, 0, 4),
    "trivial-path": (lambda k: builders.trivial_action(
        builders.path_graph(k)), 1, 5),
    "trivial-grid": (lambda k: builders.trivial_action(
        builders.grid_graph(k, 2), 3), 1, 4),
    "cube": (lambda _: cube_symmetries(), 0, 0),
    "swap": (lambda k: permutation_action(
        builders.path_graph(k), s=list(range(k))[::-1]), 1, 6),
    "square": (lambda _: permutation_action(
        builders.hypercube(2), r=[1, 3, 0, 2]), 0, 0),
    "fold": (lambda _: fold_action(), 0, 0),
}


@functools.cache
def elliptic_family(family, size):
    return ELLIPTIC_FAMILIES[family][0](size)


@st.composite
def elliptic_cases(draw):
    """A family action, or a copy with up to four map entries punched to
    -1, a list of up to three words of up to three tokens (not necessarily
    reduced) and, sometimes, a hyperplane."""
    family = draw(st.sampled_from(sorted(ELLIPTIC_FAMILIES)))
    a = elliptic_family(family, draw(st.integers(
        *ELLIPTIC_FAMILIES[family][1:])))
    holes = draw(st.lists(st.tuples(st.sampled_from(a.gens.names),
                                    st.integers(0, a.graph.n - 1)),
                          max_size=4))
    if holes:
        maps = {nm: mp.tolist() for nm, mp in a.maps.items()}
        for nm, v in holes:
            maps[nm][v] = -1
        a = PartialAction(a.graph, a.gens, maps, a.base)
    words = draw(st.lists(st.lists(st.sampled_from(a.gens.names),
                                   max_size=3).map(tuple), max_size=3))
    arr = arrangement(a.graph)
    hyp = None
    if arr.n_classes and draw(st.booleans()):
        hyp = arr.hyperplane(draw(st.integers(0, arr.n_classes - 1)))
    return a, words, hyp


@settings(max_examples=300, deadline=None)
@given(elliptic_cases())
def test_elliptic_fixed_point_matches_the_per_vertex_loop(case):
    a, words, hyp = case
    res = elliptic_fixed_point(a, words, 2, hyperplane=hyp)
    assert (res.kind, res.locus) == reference_elliptic(a, words, hyp)


@pytest.mark.parametrize("family,size,kinds", [
    ("cube", 0, {"vertex", "edge", "square", "not-found"}),
    ("square", 0, {"vertex", "square"}),
    ("swap", 4, {"vertex", "edge"}),
    ("fold", 0, {"vertex", "edge", "not-found"})])
def test_elliptic_fixed_point_matches_the_loop_on_every_word_pair(
        family, size, kinds):
    """Every list of one or two words of length <= 2 on the symmetric
    fixtures, where swapped edges and rotated squares are common."""
    a = elliptic_family(family, size)
    words = [()] + [(x,) for x in a.gens.names] + \
        [(x, y) for x in a.gens.names for y in a.gens.names]
    seen = set()
    for ws in [[w] for w in words] + [[w, v] for w in words for v in words]:
        res = elliptic_fixed_point(a, ws, 2)
        assert (res.kind, res.locus) == reference_elliptic(a, ws)
        seen.add(res.kind)
    assert seen == kinds


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

def test_certificate_pass_runs_no_bfs_and_builds_no_side(monkeypatch,
                                                         built_sides):
    """Once the graph, its arrangement and the action's frontier row are
    built, the certificate pass learns membership and distance from
    separators alone: no BFS row and no side."""
    import cubekit.median as m
    a = builders.free_group_action(6)
    a.carrier()  # the arrangement and frontier row, built before counting
    q = load_quotient("perm a: (0 1)\nperm b: (0 1)\n", a.gens)
    calls = []

    def counting_bfs(g, sources):
        calls.append(list(sources))
        return orig(g, sources)

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
    assert built_sides == []


# -- separated translate: failure exits ------------------------------------

def f2_translate(radius, quotient, L, companions=None):
    a = f2_action(radius)
    q = load_quotient(quotient, a.gens)
    if companions is None:
        companions = (hs_of(a, "a", "aa"), hs_of(a, "b", "ba"))
    return find_separated_translate(a, hs_of(a, "1", "A"), q, L,
                                    companions=companions)


SIGN = "perm a: (0 1)\nperm b: (0 1)\n"


def test_separated_translate_none_without_companions():
    # no two grid halfspaces are strongly separated
    a = builders.grid_shift_action(5)
    q = load_quotient("perm x: (0 1)\nperm y: (0 1)\n", a.gens)
    assert find_separated_translate(a, hs_of(a, "1,2", "0,2"), q, 3) is None


def test_separated_translate_rejects_non_facing_companions():
    a = f2_action(7)
    with pytest.raises(SchottkyError) as exc:
        f2_translate(7, SIGN, 6, (hs_of(a, "1", "a"), hs_of(a, "a", "aa")))
    assert str(exc.value) == "H0+ and H4+ do not form a facing triple"


def test_separated_translate_rejects_companions_not_strongly_separated():
    # a 5x2 ladder with a pendant edge p at its middle: the end rungs'
    # outer sides and p are pairwise disjoint, but the long wall crosses
    # both end rungs
    cells = [(i, j) for i in range(5) for j in range(2)]
    edges = [((i, j), (i + 1, j)) for i, j in cells if i < 4] + \
        [((i, 0), (i, 1)) for i in range(5)]
    g = load_graph("".join(f"e {i}{j} {k}{m}\n" for (i, j), (k, m) in edges)
                   + "e 20 p\n")
    assert check_median(g).ok
    a = builders.trivial_action(g)
    q = load_quotient("perm s: (0 1)\nperm t: (0 1)\n", a.gens)
    with pytest.raises(SchottkyError) as exc:
        find_separated_translate(a, hs_of(a, "20", "p"), q, 2,
                                 companions=(hs_of(a, "10", "00"),
                                             hs_of(a, "30", "40")))
    assert str(exc.value) == "companions are not strongly separated"


def test_separated_translate_none_without_double_skewer():
    assert f2_translate(7, SIGN, 2) is None


def test_separated_translate_none_when_no_power_is_in_the_kernel():
    # a acts with order 60 on 12 points and b trivially, so the skewer
    # aabAB maps to a, and no power up to 2 * 12 + 2 is in the kernel
    quotient = "perm a: (0 1 2)(3 4 5 6)(7 8 9 10 11)\nperm b: (0)\n"
    assert f2_translate(7, quotient, 6) is None


def test_separated_translate_none_when_the_translate_leaves_the_ball():
    # the radius-11 run finds aabAB with n0 = 2; at radius 7 its square
    # cannot carry the hyperplane
    assert f2_translate(7, SIGN, 6) is None


def test_separated_translate_none_when_the_translate_is_not_separated():
    # t shifts the line 13-12-11-c-21-22-23 towards leg 2 and fixes the
    # tip edge 32-33 of the third leg, so the skewer TTTT carries that
    # edge to itself
    line = ["13", "12", "11", "c", "21", "22", "23"]
    g = load_graph("".join(f"e {u} {v}\n" for u, v in zip(line, line[1:]))
                   + "e c 31\ne 31 32\ne 32 33\n")
    assert check_median(g).ok
    maps = [f"map t {u} {v}\nmap T {v} {u}" for u, v in zip(line, line[1:])]
    a = load_action("gen t T\n" + "\n".join(maps) +
                    "\nmap t 32 32\nmap t 33 33\nmap T 32 32\nmap T 33 33\n",
                    g)
    assert a.validate().valid
    q = load_quotient("perm t: (0)\n", a.gens)
    companions = (hs_of(a, "11", "12"), hs_of(a, "21", "22"))
    res = find_separated_translate(a, hs_of(a, "32", "33"), q, 4,
                                   companions=companions)
    assert res is None
