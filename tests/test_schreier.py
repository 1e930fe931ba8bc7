import functools
import math
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubekit import builders, schreier
from cubekit.action import (Generators, PartialAction, invert_word,
                            reduce_word, reduced_words)
from cubekit.hyperplanes import arrangement
from cubekit.schreier import (FreeActionCertificate, SchreierError,
                              SpectralEstimate, build_schreier,
                              free_action_cert, schreier_to_text,
                              spectral_estimate, spectral_series)


def columns(sg):
    """The generator edges as plain lists, name -> image node or -1."""
    return {nm: sg.table[sg.action.gens.rank(nm), :sg.n].tolist()
            for nm in sg.action.gens.names}


def derived(sg):
    """Each node's (class, side) key, witness word and depth, and the
    frontier, as the lists and set the node-by-node BFS kept."""
    keys = list(zip((sg.code >> 1).tolist(), (sg.code & 1).tolist()))
    depth = np.repeat(np.arange(len(sg.start) - 1), np.diff(sg.start))
    frontier = np.flatnonzero((sg.table[:, :sg.n] < 0).any(0))
    return keys, sg.witnesses(), depth.tolist(), set(frontier.tolist())


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
    assert sorted(len(w) for w in sg.witnesses()).count(0) == 1


def test_schreier_edges_are_consistent_with_action():
    a, hs = tree_setup(4)
    sg = build_schreier(a, hs, 3)
    inv = a.gens.inv
    edges = columns(sg)
    for nm in a.gens.names:
        col = edges[nm]
        back = edges[inv[nm]]
        for u, v in enumerate(col):
            if v >= 0 and back[v] >= 0:
                assert back[v] == u


def test_schreier_table_is_int32_rows_with_a_trailing_slot():
    a, hs = tree_setup(4)
    sg = build_schreier(a, hs, 3)
    assert sg.table.dtype == np.int32 and sg.table.flags.c_contiguous
    assert sg.table.shape == (len(a.gens.names), sg.n + 1)
    assert (sg.table[:, -1] == -1).all()
    assert sg.table.min() == -1 and sg.table.max() == sg.n - 1
    # the nodes are int32 codes and layer offsets, no per-node collection
    assert sg.code.dtype == sg.start.dtype == np.int32
    assert sg.start.tolist() == [0, 1, 5, 17, 53] and sg.n == 53


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
        for u, v in enumerate(columns(sg)[nm]):
            if v == u:
                degs[u] = degs.get(u, 0) + 1
    # y-shifts fix every node: two loops per expanded node
    assert all(degs[u] == 2 for u in sg.interior())


def test_spectral_estimate_matches_radial_oracle():
    # Dirichlet eigenvalue of the interior tree ball, oracle from the
    # depth-only radial reduction (independent dense eigensolve)
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


# -- sentinel gathers against the loops they replaced ----------------------


def reference_spectral_estimate(sg, tol=1e-8):
    """The position-dict operator and two-product power iteration that
    spectral_estimate replaced."""
    from scipy.sparse import coo_matrix
    interior = sg.interior().tolist()
    if not interior:
        raise SchreierError("no interior nodes at this radius")
    k = len(interior)
    pos = {v: i for i, v in enumerate(interior)}
    rows, cols = [], []
    names = sg.action.gens.names
    edges = columns(sg)
    for nm in names:
        col = edges[nm]
        for u in interior:
            v = col[u]
            if v >= 0 and v in pos:
                rows.append(pos[u])
                cols.append(pos[v])
    deg = len(names)
    P = coo_matrix((np.full(len(rows), 1.0 / deg),
                    (np.array(rows), np.array(cols))),
                   shape=(k, k)).tocsr()
    x = np.full(k, 1.0 / np.sqrt(k))
    lam = 0.0
    res = np.inf
    for it in range(1, schreier.MAX_ITER + 1):
        y = P @ x + x
        ny = np.linalg.norm(y)
        if ny == 0:
            break
        x = y / ny
        px = P @ x
        lam = float(x @ px)
        res = float(np.linalg.norm(px - lam * x))
        if res < tol:
            break
    return SpectralEstimate(sg.radius, lam, it, res, k)


def reference_free_action_cert(sg, f_words, L):
    """The per-token masked composition that free_action_cert replaced."""
    g_w, h_w = f_words
    gens = sg.action.gens
    letters = {"g": g_w, "G": invert_word(g_w, gens),
               "h": h_w, "H": invert_word(h_w, gens)}
    base_maps = {nm: np.array(col, dtype=np.int64)
                 for nm, col in columns(sg).items()}
    n = sg.n

    def word_map(w):
        out = np.arange(n, dtype=np.int64)
        for tok in w:
            mp = base_maps[tok]
            valid = out >= 0
            out = np.where(valid, mp[np.maximum(out, 0)], -1)
        return out

    interior = np.zeros(n, dtype=bool)
    interior[sg.interior()] = True
    fixed, unverifiable = [], []
    checked = 0
    min_frac = 1.0
    for fw in reduced_words(Generators([("g", "G"), ("h", "H")]), L,
                            min_len=1):
        expanded = reduce_word(sum((letters[t] for t in fw), ()), gens)
        checked += 1
        if not expanded:
            fixed.append((fw, 0))
            continue
        m = word_map(expanded)
        idx = np.arange(n)
        defined = m >= 0
        fix_mask = interior & defined & (m == idx)
        lost = interior & ~defined
        if lost.any() and not fix_mask.any():
            unverifiable.append(fw)
        if fix_mask.any():
            fixed.append((fw, int(np.argmax(fix_mask))))
        tested = interior & defined
        if tested.any():
            frac = float((m[tested] != idx[tested]).mean())
            min_frac = min(min_frac, frac)
    return FreeActionCertificate(not fixed, L, checked, fixed,
                                 unverifiable, min_frac)


def reflected_line(radius):
    """The line shift plus the reflection about the middle vertex, a
    self-inverse generator (its name is listed twice)."""
    a = builders.line_shift_action(radius)
    n = a.graph.n
    gens = Generators([("t", "T"), ("s", "s")])
    maps = dict(a.maps, s=[n - 1 - v for v in range(n)])
    return PartialAction(a.graph, gens, maps, base=a.base)


FAMILIES = {"f2": (builders.free_group_action, 1, 6),
            "grid": (builders.grid_shift_action, 3, 15),
            "line": (builders.line_shift_action, 1, 12),
            "reflected": (reflected_line, 1, 12)}


@functools.cache
def family_action(family, size):
    return FAMILIES[family][0](size)


@st.composite
def punched_schreier(draw):
    """A Schreier graph of a random halfspace at a random radius, with up
    to six edge-column entries set to -1."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    size = draw(st.integers(*FAMILIES[family][1:]))
    a = family_action(family, size)
    arr = arrangement(a.graph)
    hs = arr.halfspace(draw(st.integers(0, arr.n_classes - 1)),
                       draw(st.integers(0, 1)))
    sg = build_schreier(a, hs, draw(st.integers(0, size)))
    names = a.gens.names
    table = sg.table.copy()
    for node, gen in draw(st.lists(st.tuples(st.integers(0, sg.n - 1),
                                             st.sampled_from(names)),
                                   max_size=6)):
        table[np.array(names) == gen, node] = -1   # every row named gen
    return replace(sg, table=table)


def outcome(fn, *args):
    try:
        return astuple(fn(*args))
    except SchreierError as exc:
        return ("raised", str(exc))


@settings(max_examples=80, deadline=None)
@given(punched_schreier())
def test_spectral_estimate_equals_reference(sg):
    # punched columns make P asymmetric, so cap the slow cases; both sides
    # read the same cap
    with mock.patch.object(schreier, "MAX_ITER", 3000):
        assert outcome(spectral_estimate, sg) == \
            outcome(reference_spectral_estimate, sg)


@pytest.mark.parametrize("pos", [49, 50])
def test_spectral_estimate_equals_reference_at_benchmark_scale(pos):
    # a middle wall of the 101 × 101 grid at radius 50, as the z2-grid
    # benchmark solves it: 98 interior nodes and 11,038 power steps
    a = builders.grid_shift_action(101)
    idx = a.graph.label_index
    wall = arrangement(a.graph).halfspace_of_oriented_edge(
        idx[f"{pos},50"], idx[f"{pos + 1},50"])
    sg = build_schreier(a, wall, 50)
    got = spectral_estimate(sg)
    assert astuple(got) == astuple(reference_spectral_estimate(sg))
    assert (got.iterations, got.interior_nodes) == (11_038, 98)


@pytest.mark.parametrize("shape", ["z2-grid", "f2"])
def test_spectral_series_equals_reference_at_workload_shapes(shape):
    # the series the benchmarks solve: a middle wall of the 101 × 101 grid
    # at radii 30 and 40, and the F2 R=9 ball at radii 6, 7 and 8; each
    # radius against the reference on its own build, its floats plain
    # Python floats, so no numpy scalar reaches a CSV line
    if shape == "z2-grid":
        a = builders.grid_shift_action(101)
        idx = a.graph.label_index
        hs = arrangement(a.graph).halfspace_of_oriented_edge(idx["50,50"],
                                                             idx["51,50"])
        radii = [30, 40]
    else:
        a, hs = tree_setup(9)
        radii = [6, 7, 8]
    series = spectral_series(a, hs, radii)
    assert [e.radius for e in series] == radii
    for r, got in zip(radii, series):
        want = reference_spectral_estimate(build_schreier(a, hs, r))
        assert astuple(got) == astuple(want)
        assert type(got.estimate) is float and type(got.residual) is float


@settings(max_examples=80, deadline=None)
@given(punched_schreier(), st.data())
def test_free_action_cert_equals_reference(sg, data):
    word = st.lists(st.sampled_from(sg.action.gens.names),
                    max_size=3).map(tuple)
    f_words = (data.draw(word), data.draw(word))
    L = data.draw(st.integers(1, 3))
    assert outcome(free_action_cert, sg, f_words, L) == \
        outcome(reference_free_action_cert, sg, f_words, L)


# -- the layer build against the node-by-node BFS it replaced --------------

def reference_carry_class(arr, maps, fd, cls, side, word, pos, carried=None):
    """The scalar carried-edge step that :func:`action.carry` replaced:
    one class's dual edges from CSR position ``pos`` on, one at a time;
    ``carried`` = (tail, head, margin) resumes edge ``pos`` where word[1:]
    left it."""
    best_fail = 0
    order, n_tok = arr.edges_by_class.tolist(), len(word)
    orient = arr.orientation.tolist()
    for i in range(pos, int(arr.class_start[cls + 1])):
        t, h = orient[order[i]] if side else orient[order[i]][::-1]
        margin = None if fd is None else min(fd[t], fd[h])
        todo, done = reversed(word), 0
        if carried is not None:
            (t, h, margin), carried = carried, None
            todo, done = word[:1], n_tok - 1
        for tok in todo:
            mp = maps[tok]
            t, h = mp[t], mp[h]
            if t < 0 or h < 0:
                break
            done += 1
            if fd is not None:
                margin = min(margin, fd[t], fd[h])
        else:
            return i, t, h, margin, None
        best_fail = max(best_fail, done + 1)
    return None, None, None, None, best_fail


@st.composite
def punched_actions(draw):
    """An F2 ball, grid, line shift or reflected line (whose name
    ``Generators`` lists twice), or a copy with up to eight map entries
    punched to -1, with a halfspace."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    a = family_action(family, draw(st.integers(*FAMILIES[family][1:])))
    holes = draw(st.lists(st.tuples(st.sampled_from(a.gens.names),
                                    st.integers(0, a.graph.n - 1)),
                          max_size=8))
    if holes:
        maps = {nm: list(mp) for nm, mp in a.maps.items()}
        for nm, v in holes:
            maps[nm][v] = -1
        a = PartialAction(a.graph, a.gens, maps, a.base)
    arr = arrangement(a.graph)
    return a, arr.halfspace(draw(st.integers(0, arr.n_classes - 1)),
                            draw(st.integers(0, 1)))


def reference_build_schreier(a, hs, radius):
    """build_schreier as the node-by-node BFS over the scalar carried-edge
    step that the layer build replaced."""
    keys, witness, depth = [hs.key], [()], [0]
    index = {hs.key: 0}
    gens = a.gens
    arr = arrangement(a.graph)
    edges = {nm: [-1] for nm in gens.names}
    steps = [(nm, (gens.inv[nm],), edges[nm]) for nm in gens.names]
    cols = list(edges.values())
    frontier = set()
    for node, (cls, side) in enumerate(keys):
        d = depth[node]
        if d >= radius:
            frontier.add(node)
            continue
        for nm, inv_word, col in steps:
            pos, t, h, _, _ = reference_carry_class(
                arr, a.maps, None, cls, side, inv_word,
                int(arr.class_start[cls]))
            if pos is None:
                frontier.add(node)
                continue
            key = arr.oriented_edge_key(t, h)
            j = index.get(key)
            if j is None:
                j = len(keys)
                index[key] = j
                keys.append(key)
                witness.append(witness[node] + (nm,))
                depth.append(d + 1)
                for c in cols:
                    c.append(-1)
            col[node] = j
    return keys, witness, depth, edges, frontier


def assert_equals_reference(sg, a, hs):
    """The derived keys, witnesses, depths and frontier, the columns, and
    the interior at every radius r <= sg.radius (nodes of depth below r
    that no step left) equal the node-by-node BFS's."""
    keys, witness, depth, frontier = derived(sg)
    want = reference_build_schreier(a, hs, sg.radius)
    assert (keys, witness, depth, columns(sg), frontier) == want
    for r in range(sg.radius + 1):
        assert replace(sg, radius=r).interior().tolist() == \
            [v for v in range(sg.n) if depth[v] < r and v not in frontier]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_layer_build_equals_the_node_by_node_bfs(data):
    a, hs = data.draw(punched_actions())
    radius = data.draw(st.integers(0, 12))
    assert_equals_reference(build_schreier(a, hs, radius), a, hs)


def test_a_node_with_one_failed_generator_is_frontier_and_keeps_columns():
    a, hs = tree_setup(3)
    maps = {nm: list(mp) for nm, mp in a.maps.items()}
    maps["A"][a.graph.label_index["1"]] = -1   # the edge 1-a leaves by A
    a = PartialAction(a.graph, a.gens, maps, a.base)
    sg = build_schreier(a, hs, 2)
    edges = columns(sg)
    assert 0 in derived(sg)[3] and edges["a"][0] == -1
    assert all(edges[nm][0] >= 0 for nm in ("A", "b", "B"))
    assert_equals_reference(sg, a, hs)


# -- rendered free-action certificates ------------------------------------

def test_free_action_certificate_text_when_certified():
    a, hs = tree_setup(7)
    cert = free_action_cert(build_schreier(a, hs, 6), (("a",), ("b",)), 1)
    assert cert.render() == (
        "free action on cosets: certified up to length 1 (4 words)\n"
        "min displaced fraction: 1.000")


def test_free_action_certificate_text_with_fixed_and_lost_words():
    a = builders.grid_shift_action(9)
    idx = a.graph.label_index
    hs = arrangement(a.graph).halfspace_of_oriented_edge(idx["4,4"],
                                                         idx["5,4"])
    cert = free_action_cert(build_schreier(a, hs, 3), (("x",), ("y",)), 2)
    # y fixes the wall, so h and its powers fix every node; each other
    # two-letter word takes an end node of the line out of the ball and
    # fixes none
    assert cert.render() == "\n".join(
        ["free action on cosets: REFUTED up to length 2 (16 words)"]
        + [f"fixed: {w} fixes node 0" for w in ("h", "H", "hh", "HH")]
        + [f"unverifiable (truncation): {w}"
           for w in ("gg", "gh", "gH", "GG", "Gh", "GH")]
        + ["min displaced fraction: 0.000"])

