"""The benchmark workloads: seeded set-up, operation list and oracles.

Every workload is a closed loop with one caller: its operations run back
to back in one single-threaded process.  Operations reach cubekit only
through module attributes looked up at call time (``M.schottky.x``), so the
traced run's wrappers see every call.  Oracles run after the pass, because
they warm the same caches the operations use.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np
# cubekit imports scipy.sparse on first use; load it now so that imports
# finish before set-up, as the set-up and pass timings assume.
import scipy.sparse  # noqa: F401

M = SimpleNamespace(**{name: importlib.import_module(f"cubekit.{name}")
                       for name in ("builders", "median", "hyperplanes",
                                    "sageev", "action", "schottky",
                                    "schreier", "report", "cli")})

F2_LETTERS = "aAbB"

# The eight signed permutations of {a, b}, as images of (a, b).  Each is an
# automorphism of F2 and of its tree ball, so every input built from one of
# them certifies exactly as the identity does.
F2_SIGNS = [(x, y) for x in F2_LETTERS for y in F2_LETTERS
            if x.lower() != y.lower()]


def f2_relabel(perm: tuple[str, str]):
    """Letter-wise image of a word label under a signed permutation."""
    table = {"a": perm[0], "A": perm[0].swapcase(),
             "b": perm[1], "B": perm[1].swapcase()}

    def f(word: str) -> str:
        return "1" if word == "1" else "".join(table[c] for c in word)
    return f


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    """One operation of a pass.

    A CLI operation has ``argv`` and expects an exit code; a library
    operation has ``call`` and expects a result kind.  ``render`` turns the
    result into the text whose sha256 is the operation's output digest; it
    reads only fields that are already computed, so it warms no cache."""
    name: str
    expect: object
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], object]] = None
    kind: Callable[[object], object] = lambda r: "ok"
    render: Callable[[object], str] = repr
    save_stdout: Optional[Path] = None


@dataclass
class OpResult:
    name: str
    seconds: float          # wall time of the call
    scaled: float           # the same, at nominal machine speed (calib.py)
    kernel_s: float         # calibration kernel time around the call
    outcome: object
    digest: str
    value: object = None
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)


@dataclass
class Fixture:
    """What one set-up produces; ``state`` carries results between the
    operations of one pass."""
    sizes: dict
    data: dict
    state: dict = field(default_factory=dict)


# -- cli-files ------------------------------------------------------------

def _text(g) -> str:
    return M.median.graph_to_text(g)


def _hs_token(arr, idx, u, v) -> str:
    return repr(arr.halfspace_of_oriented_edge(idx[u], idx[v]))


def _with_chord(ball, rng):
    """The ball plus one chord whose cycle is not a square (a chord between
    vertices at distance 3 would close a square and stay median)."""
    while True:
        u, v = rng.randrange(ball.n), rng.randrange(ball.n)
        if u != v and ball.dist(u, v) not in (1, 3):
            break
    edges = list(ball.edges) + [(min(u, v), max(u, v))]
    return M.median.MedianGraph(ball.n, edges, ball.labels, ball.frontier)


def _glued_cube(ball, leaf: int):
    """Q3 minus a vertex, glued at ``leaf`` by its vertex 000, with the new
    vertices last in file order so the triple scan reaches them last."""
    q = M.builders.cube_minus_vertex()
    n = ball.n
    ids = {0: leaf}
    labels = list(ball.labels)
    for v in range(1, q.n):
        ids[v] = n + v - 1
        labels.append("q" + q.labels[v])
    edges = list(ball.edges) + [(ids[u], ids[v]) for u, v in q.edges]
    return M.median.MedianGraph(len(labels), edges, labels, ball.frontier)


def _random_product(rng):
    """A seeded three-factor product of 48-80 vertices (at most 12
    hyperplanes); the size band keeps every seed's cost alike."""
    while True:
        g, _ = M.builders.random_product(rng, factors=3)
        if 48 <= g.n <= 80:
            return g


def cli_setup(seed: int, small: bool, work: Path) -> Fixture:
    rng = random.Random(seed)
    perm = F2_SIGNS[rng.randrange(len(F2_SIGNS))]
    ball_r, grid_side, big_r = (3, 6, 5) if small else (4, 12, 7)
    f2 = M.builders.free_group_action(ball_r)
    grid = M.builders.grid_shift_action(grid_side)
    ball = f2.graph
    chord = _with_chord(ball, rng)
    leaf = sorted(ball.frontier)[rng.randrange(len(ball.frontier))]
    glued = _glued_cube(ball, leaf)
    prod = _random_product(rng)
    walls = M.sageev.wallspace_of_graph(prod)
    big = M.builders.free_group_ball(big_r)
    files = {
        "f2.graph": _text(ball), "f2.action": M.action.action_to_text(f2),
        "grid.graph": _text(grid.graph),
        "grid.action": M.action.action_to_text(grid),
        "prod.graph": _text(prod),
        "prod.walls": M.sageev.wallspace_to_text(walls),
        "early.graph": _text(chord), "late.graph": _text(glued),
        "big.graph": _text(big),
        "sign.quotient": "perm a: (0 1)\nperm b: (0 1)\n",
    }
    work.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (work / name).write_text(text)
    wall_pos = grid_side // 2 - 1 + rng.randrange(2)
    wall_swap = rng.randrange(2) == 1
    sizes = {"f2_ball_radius": ball_r, "f2_vertices": ball.n,
             "grid_side": grid_side, "product_vertices": prod.n,
             "product_hyperplanes": len(walls.walls),
             "early_vertices": chord.n, "late_vertices": glued.n,
             "load_graph_radius": big_r,
             "load_graph_lines": files["big.graph"].count("\n")}
    return Fixture(sizes, {"work": work, "perm": perm, "f2": f2,
                           "grid": grid, "wall_pos": wall_pos,
                           "wall_swap": wall_swap, "big_vertices": big.n})


def _grid_edge(side_pos: int, swap: bool, across: int):
    """Labels of the dual edge of the wall between coordinate side_pos and
    side_pos+1 (of x, or of y when swapped), at the other coordinate
    ``across``."""
    if swap:
        return f"{across},{side_pos}", f"{across},{side_pos + 1}"
    return f"{side_pos},{across}", f"{side_pos + 1},{across}"


def cli_ops(fx: Fixture, small: bool) -> list[Op]:
    d = fx.data
    w = d["work"]
    p = lambda name: str(w / name)
    f2, grid = d["f2"], d["grid"]
    s = f2_relabel(d["perm"])
    g = f2.graph
    arr = M.hyperplanes.arrangement(g)
    idx = g.label_index
    hs = lambda u, v: _hs_token(arr, idx, s(u), s(v))
    garr = M.hyperplanes.arrangement(grid.graph)
    gidx = grid.graph.label_index
    u, v = _grid_edge(d["wall_pos"], d["wall_swap"], 1)
    wall = _hs_token(garr, gidx, u, v)
    F, A, G, GA = p("f2.graph"), p("f2.action"), p("grid.graph"), \
        p("grid.action")
    cert = w / "pingpong.cert"
    ops = [
        Op("validate-f2", 0, ["validate", F]),
        Op("validate-grid", 0, ["validate", G]),
        Op("validate-early-reject", 1, ["validate", p("early.graph")]),
        Op("validate-late-reject", 1, ["validate", p("late.graph")]),
        Op("hyperplanes", 0, ["hyperplanes", F]),
        Op("separation", 0, ["separation", F, hs("1", "a")[:-1],
                             hs("b", "bb")[:-1]]),
        Op("facing", 0, ["facing", F, "--k", "3", "--limit", "20"]),
        Op("decompose", 0, ["decompose", G]),
        Op("roundtrip", 0, ["roundtrip", p("prod.graph")]),
        Op("dual", 0, ["dual", p("prod.walls")]),
        Op("action-validate", 0, ["action-validate", F, A]),
        Op("orbit", 0, ["orbit", F, A, "--halfspace", hs("1", "a"),
                        "-L", "2"]),
        Op("flip-f2", 0, ["flip", F, A, "--halfspace", hs("1", "a")]),
        Op("flip-grid", 3, ["flip", G, GA, "--halfspace", wall]),
        Op("skewer", 0, ["skewer", F, A, "--k-halfspace", hs("a", "aa"),
                         "--h-halfspace", hs("1", "a")]),
        Op("sigma", 0, ["sigma", F, A, "--base", hs("1", "a"),
                        "--test", hs("b", "bb"), "-L", "3"]),
        Op("pingpong", 0, ["pingpong", F, A, "--quadruple",
                           " ".join([hs("1", "a"), hs("1", "A"),
                                     hs("1", "b"), hs("1", "B")]),
                           "--g", s("a"), "--h", s("b"), "--m-max", "1"],
           save_stdout=cert),
        Op("verify", 0, ["verify", F, A, str(cert)]),
        # Every hyperplane of the ball meets the depth-1 quadruple, so the
        # stable certificate is refused (exit 2) after the ping-pong
        # certificate has been re-verified.
        Op("stable", 2, ["stable", F, A, "--cert", str(cert),
                         "--hyperplane", hs("1", "a")[:-1]]),
        Op("schreier", 0, ["schreier", F, A, "--halfspace", hs("1", "a"),
                           "--radius", "3"]),
        Op("spectral", 0, ["spectral", F, A, "--halfspace", hs("1", "a"),
                           "--radii", "2,3"]),
        Op("elliptic", 1, ["elliptic", F, A, "--words",
                           f"{s('a')},{s('b')}", "--hyperplane",
                           hs("1", "b")[:-1]]),
        Op("translate", 3, ["translate", F, A, "--halfspace", hs("1", "A"),
                            "--quotient", p("sign.quotient"), "--companions",
                            f"{hs('a', 'aa')} {hs('b', 'ba')}"]),
        Op("report", 0, ["report", G, GA]),
        Op("load_graph", "ok",
           call=lambda: M.median.load_graph(Path(p("big.graph")).read_text()),
           render=lambda r: f"n={r.n} m={r.m} frontier={len(r.frontier)}"),
    ]
    if small:
        keep = {"validate-f2", "validate-early-reject",
                "validate-late-reject", "separation", "roundtrip", "dual",
                "flip-grid", "pingpong", "verify", "spectral", "report",
                "load_graph"}
        ops = [op for op in ops if op.name in keep]
    return ops


def cli_oracles(fx: Fixture, results: dict[str, OpResult]) -> list[str]:
    d = fx.data
    w = d["work"]
    bad = []
    for name, fname in (("validate-f2", "f2.graph"),
                        ("validate-grid", "grid.graph"),
                        ("validate-early-reject", "early.graph"),
                        ("validate-late-reject", "late.graph")):
        if name not in results:
            continue
        g = M.median.load_graph((w / fname).read_text())
        accept = M.median.brute_force_median_oracle(g) is None
        if accept != (results[name].outcome == 0):
            bad.append(f"{name}: tensor oracle disagrees with the verdict")
    if "pingpong" in results:
        ok, msg = M.schottky.verify_certificate(
            d["f2"], results["pingpong"].value)
        if not ok:
            bad.append(f"pingpong: certificate does not verify ({msg})")
    r = results["load_graph"].value
    if r is not None and (r.n, r.m) != (d["big_vertices"],
                                        d["big_vertices"] - 1):
        bad.append("load_graph: wrong vertex or edge count")
    return bad


# -- f2-certify -----------------------------------------------------------

def f2_setup(seed: int, small: bool, work: Path) -> Fixture:
    rng = random.Random(seed)
    perm = F2_SIGNS[rng.randrange(len(F2_SIGNS))]
    radius = 9 if small else 11
    std = M.builders.free_group_action(radius)
    # The generators are declared in the permuted order too, so the
    # length-lexicographic searches meet their witnesses as early as in the
    # standard labelling: every seed does isomorphic work.  Without this
    # the search order alone moved run_s between 15 s and 23 s by seed.
    s = f2_relabel(perm)
    gens = M.action.Generators([(s("a"), s("A")), (s("b"), s("B"))])
    a = M.action.PartialAction(std.graph, gens, std.maps, std.base)
    # The Z/2 quotient sending both generators to the swap, declared on
    # the names that lead each generator pair.
    q = M.action.load_quotient(
        f"perm {s('a')}: (0 1)\nperm {s('b')}: (0 1)\n", a.gens)
    return Fixture({"radius": radius, "vertices": a.graph.n,
                    "edges": a.graph.m},
                   {"a": a, "perm": perm, "q": q, "small": small})


def _dense_radial_oracle(radius: int) -> float:
    """Top eigenvalue of the radial walk on the interior ball (acceptance
    criterion 7), by a dense solve independent of the power iteration."""
    r = radius - 1
    m = np.zeros((r + 1, r + 1))
    m[0, 1] = 4.0
    for k in range(1, r + 1):
        m[k, k - 1] = 1.0
        if k < r:
            m[k, k + 1] = 3.0
    return float(max(np.linalg.eigvals(m / 4.0).real))


def f2_ops(fx: Fixture, small: bool) -> list[Op]:
    d, st = fx.data, fx.state
    a, q = d["a"], d["q"]
    g = a.graph
    idx = g.label_index
    s = f2_relabel(d["perm"])
    word = lambda w: tuple(s(w))
    radii = [6, 7, 8] if small else [8, 9, 10]
    fc_radius, fc_len = (6, 3) if small else (8, 4)

    def hs(u, v):
        return M.hyperplanes.arrangement(g).halfspace_of_oriented_edge(
            idx[s(u)], idx[s(v)])

    def hs_list(t):
        return " ".join(repr(h) for h in t)

    def arrangement():
        st["arr"] = M.hyperplanes.arrangement(g)
        return st["arr"]

    def facing():
        arr = st["arr"]
        depth1 = sorted(arr.class_of_edge(idx["1"], idx[x])
                        for x in F2_LETTERS)
        return M.hyperplanes.facing_tuples(g, 3, classes=depth1, limit=10)

    def quadruple():
        st["quad"] = M.schottky.build_quadruple(
            a, (hs("1", "b"), hs("1", "a"), hs("1", "A")), 3)
        return st["quad"]

    def pingpong():
        quad = (hs("a", "aa"), hs("A", "AA"), hs("b", "bb"), hs("B", "BB"))
        st["cert"] = M.schottky.pingpong_certify(a, quad, word("aa"),
                                                 word("bb"), 3)
        return st["cert"]

    def stable():
        st["stable"] = M.schottky.stable_certify(
            a, hs("1", "a").hyperplane, st["cert"], 8)
        return st["stable"]

    def translate():
        st["h"] = hs("1", "A")
        return M.schottky.find_separated_translate(
            a, st["h"], q, 6, companions=(hs("a", "aa"), hs("b", "ba")))

    def free_cert():
        sg = M.schreier.build_schreier(a, hs("1", "a"), fc_radius)
        return M.schreier.free_action_cert(sg, (word("aa"), word("bb")),
                                           fc_len)

    cert_kind = lambda r: type(r).__name__
    return [
        Op("arrangement", "ok", call=arrangement,
           render=lambda r: f"squares={len(r.squares)} "
                            f"classes={r.n_classes}"),
        Op("facing_tuples", "ok", call=facing,
           kind=lambda r: "ok" if r else "none",
           render=lambda r: "\n".join(hs_list(t) for t in r)),
        Op("build_quadruple", "ok", call=quadruple,
           render=lambda r: f"{hs_list(r.quadruple)} k={r.k_word} "
                            f"g={r.g_word} h={r.h_word} "
                            f"refined={r.refined} truncated={r.truncated}"),
        Op("pingpong_certify", "PingPongCertificate", call=pingpong,
           kind=cert_kind, render=lambda r: r.to_text()),
        Op("stable_certify", "StableHyperplaneCertificate", call=stable,
           kind=cert_kind, render=lambda r: r.to_text()),
        Op("verify_pingpong", "verified", call=lambda:
           M.schottky.verify_certificate(a, st["cert"].to_text()),
           kind=lambda r: "verified" if r[0] else "rejected"),
        Op("verify_stable", "verified", call=lambda:
           M.schottky.verify_certificate(a, st["stable"].to_text()),
           kind=lambda r: "verified" if r[0] else "rejected"),
        Op("sigma_analysis", "ok", call=lambda: M.schottky.sigma_analysis(
            a, hs("1", "a"), hs("b", "bb"), 4),
           render=lambda r: r.render(g)),
        # The translate needs the radius-11 ball; in the tiny ball the
        # search runs out of room and reports not-found.
        Op("find_separated_translate", "not-found" if small else "found",
           call=translate,
           kind=lambda r: "found" if r is not None else "not-found",
           render=lambda r: r and f"word={r.word} n0={r.n0} "
                                  f"translate={r.translate!r} "
                                  f"margin={r.margin}"),
        Op("spectral_series", "ok", call=lambda: M.schreier.spectral_series(
            a, hs("1", "a"), radii),
           render=lambda r: "\n".join(e.csv_line() for e in r)),
        Op("free_action_cert", "certified", call=free_cert,
           kind=lambda r: "certified" if r.ok else "refuted",
           render=lambda r: r.render()),
    ]


def f2_oracles(fx: Fixture, results: dict[str, OpResult]) -> list[str]:
    a, st = fx.data["a"], fx.state
    hp = M.hyperplanes
    bad = []
    for name in ("pingpong_certify", "stable_certify"):
        ok, msg = M.schottky.verify_certificate(a, results[name].value
                                                .to_text())
        if not ok:
            bad.append(f"{name}: certificate does not verify ({msg})")
    quad = results["build_quadruple"].value.quadruple
    if not all(hp.strongly_separated(x.hyperplane, y.hyperplane)
               for i, x in enumerate(quad) for y in quad[i + 1:]):
        bad.append("build_quadruple: members not strongly separated")
    for t in results["facing_tuples"].value:
        if not all(hp.halfspaces_disjoint(x, y)
                   for i, x in enumerate(t) for y in t[i + 1:]):
            bad.append("facing_tuples: a tuple is not pairwise disjoint")
    tr = results["find_separated_translate"].value
    if tr is not None and (tr.n0 != 2 or not hp.strongly_separated(
            tr.translate.hyperplane, st["h"].hyperplane)):
        bad.append("find_separated_translate: translate not strongly "
                   "separated from h, or n0 != 2")
    series = results["spectral_series"].value
    vals = [e.estimate for e in series]
    if vals != sorted(vals):
        bad.append("spectral_series: not monotone in the radius")
    for e in series:
        if abs(e.estimate - _dense_radial_oracle(e.radius)) > 1e-6:
            bad.append(f"spectral_series: radius {e.radius} is off the "
                       "dense radial eigensolve")
    return bad


# -- z2-grid --------------------------------------------------------------

def z2_setup(seed: int, small: bool, work: Path) -> Fixture:
    rng = random.Random(seed)
    side = 9 if small else 101
    a = M.builders.grid_shift_action(side)
    # One of the two middle walls: from either, the radius-50 Schreier
    # graph spans every parallel wall, so the eigen-solve is the same size
    # for every seed (off-centre walls shrink it).
    pos = side // 2 - 1 + rng.randrange(2)
    swap = rng.randrange(2) == 1
    return Fixture({"side": side, "vertices": a.graph.n, "wall_pos": pos,
                    "swap": swap},
                   {"a": a, "pos": pos, "swap": swap, "side": side,
                    "small": small})


def z2_ops(fx: Fixture, small: bool) -> list[Op]:
    d, st = fx.data, fx.state
    a, pos, swap, side = d["a"], d["pos"], d["swap"], d["side"]
    g = a.graph
    idx = g.label_index
    L = 4 if small else 9
    radius = side // 2
    radii = [radius - 20, radius - 10] if not small else [2, 3]
    gx, gy = ("y", "x") if swap else ("x", "y")
    c = side // 2

    def wall(p):
        u, v = _grid_edge(p, swap, c)
        return M.hyperplanes.arrangement(g).halfspace_of_oriented_edge(
            idx[u], idx[v])

    def schreier_estimate():
        st["wall"] = wall(pos)
        sg = M.schreier.build_schreier(a, st["wall"], radius)
        return M.schreier.spectral_estimate(sg)

    found = lambda r: "found" if r.found else "not-found"
    return [
        Op("arrangement", "ok", call=lambda: M.hyperplanes.arrangement(g),
           render=lambda r: f"squares={len(r.squares)} "
                            f"classes={r.n_classes}"),
        Op("facing_tuples", "ok", call=lambda:
           M.hyperplanes.facing_tuples(g, 2),
           render=lambda r: "\n".join(f"{x!r} {y!r}" for x, y in r)),
        Op("hyperplane_orbit", "ok", call=lambda:
           M.action.hyperplane_orbit(a, wall(pos), L),
           render=lambda r: "\n".join(f"{h!r} {w}" for h, w in r.images)
           + f"\ntruncated={r.truncated}"),
        Op("find_flipping", "not-found", call=lambda:
           M.action.find_flipping(a, wall(pos), L), kind=found),
        # Known behaviour: x^2 maps the wall's halfspace properly inside
        # the next one, but the strictness witness sits on the frontier,
        # so the search reports not-found (see README).
        Op("find_double_skewer", "not-found", call=lambda:
           M.action.find_double_skewer(a, wall(pos + 1), wall(pos), L),
           kind=found),
        Op("stabilizer_words", "ok", call=lambda:
           M.action.stabilizer_words(a, wall(pos), L),
           render=lambda r: "\n".join(" ".join(w) for w in r)),
        Op("elliptic_fixed_point", "not-found", call=lambda:
           M.schottky.elliptic_fixed_point(a, [(gx,), (gy,)], 2),
           kind=lambda r: r.kind),
        Op("shape_report", "ok", call=lambda: M.report.shape_report(g, a),
           render=lambda r: r.render()),
        Op("schreier_spectral", "ok", call=schreier_estimate,
           render=lambda r: r.csv_line()),
        Op("spectral_series", "ok", call=lambda: M.schreier.spectral_series(
            a, wall(pos), radii),
           render=lambda r: "\n".join(e.csv_line() for e in r)),
    ]


def z2_oracles(fx: Fixture, results: dict[str, OpResult]) -> list[str]:
    bad = []
    est = results["schreier_spectral"].value
    limit = 0.5 if fx.data["small"] else 0.98
    if not est.estimate > limit:
        bad.append(f"schreier_spectral: wall estimate {est.estimate} "
                   f"<= {limit}")
    orbit = results["hyperplane_orbit"].value
    wall = fx.state["wall"]
    if not any(h.key == wall.key for h, _ in orbit.images):
        bad.append("hyperplane_orbit: the wall is missing from its orbit")
    for x, y in results["facing_tuples"].value[:50]:
        if not M.hyperplanes.halfspaces_disjoint(x, y):
            bad.append("facing_tuples: a pair is not disjoint")
            break
    return bad


@dataclass
class Workload:
    name: str
    setup: Callable[[int, bool, Path], Fixture]
    ops: Callable[[Fixture, bool], list[Op]]
    oracles: Callable[[Fixture, dict], list[str]]
    min_setups: int   # set-ups timed per run, for a median set-up time


WORKLOADS = {
    "cli-files": Workload("cli-files", cli_setup, cli_ops, cli_oracles, 9),
    # One set-up per run: it builds a 354k-vertex ball (about 9 s and
    # 600 MB), and a second copy would double the run.
    "f2-certify": Workload("f2-certify", f2_setup, f2_ops, f2_oracles, 1),
    "z2-grid": Workload("z2-grid", z2_setup, z2_ops, z2_oracles, 5),
}
