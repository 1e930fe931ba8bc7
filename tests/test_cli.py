import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from cubekit import builders
from cubekit.cli import run
from cubekit.hyperplanes import arrangement
from cubekit.median import (GraphError, brute_force_median_oracle,
                            graph_to_text, load_graph)
from cubekit.action import action_to_text, parse_word
from cubekit.schottky import pingpong_certify


@pytest.fixture
def files(tmp_path):
    paths = {}

    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return paths[name]

    put("q3.graph", graph_to_text(builders.hypercube(3)))
    put("tri.graph", graph_to_text(builders.triangle()))
    put("path.graph", graph_to_text(builders.path_graph(4)))
    a = builders.free_group_action(4)
    put("f2.graph", graph_to_text(a.graph))
    put("f2.action", action_to_text(a))
    put("walls.txt", "p w\np x\np y\np z\n"
        "w 0: w | x y z\nw 1: x | w y z\nw 2: y | w x z\n")
    paths["put"] = put
    return paths


def test_validate_ok(files, capsys):
    assert run(["validate", files["q3.graph"]]) == 0
    out = capsys.readouterr().out
    assert "median: OK (8 vertices, 3 hyperplanes)" in out


def test_validate_f2_ball_of_radius_5(files, capsys):
    path = files["put"]("r5.graph", graph_to_text(builders.free_group_ball(5)))
    assert run(["validate", path]) == 0
    assert capsys.readouterr().out == \
        "median: OK (485 vertices, 484 hyperplanes)\n"


def test_validate_negative(files, capsys):
    assert run(["validate", files["tri.graph"]]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_json(files, capsys):
    assert run(["--format", "json", "validate", files["q3.graph"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"median": True, "vertices": 8, "hyperplanes": 3}


def test_missing_file_is_error(files, capsys):
    assert run(["validate", "/nonexistent.graph"]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_code(files):
    assert run(["no-such-command"]) == 2


def test_hyperplanes_report(files, capsys):
    assert run(["hyperplanes", files["path.graph"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("H0: edges=")


def test_separation_yes_and_no(files, capsys):
    assert run(["separation", files["f2.graph"], "H0", "H5"]) == 0
    assert "strongly separated: yes" in capsys.readouterr().out
    assert run(["separation", files["q3.graph"], "H0", "H1"]) == 1
    assert "strongly separated: no" in capsys.readouterr().out


def test_separation_rejects_bad_hyperplane_ids(files, capsys):
    for bad in ("H-1", "H9999"):
        assert run(["separation", files["f2.graph"], bad, "H0"]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert f"error: no hyperplane {bad}" in cap.err


def test_quadruple_budget_is_inconclusive(files, capsys):
    star = builders.star(3)
    g = files["put"]("star.graph", graph_to_text(star))
    act = files["put"]("star.action",
                       action_to_text(builders.trivial_action(star)))
    assert run(["quadruple", g, act, "--triple", "H0+ H1+ H2+"]) == 3
    assert capsys.readouterr().err == \
        "inconclusive: no flipping element found for H0+ within length 4\n"


def test_quadruple_non_facing_triple_is_error(files, capsys):
    assert run(["quadruple", files["f2.graph"], files["f2.action"],
                "--triple", "H0- H0+ H5+"]) == 2
    assert "error: input is not a facing triple" in capsys.readouterr().err


def test_facing_negative_on_q3(files, capsys):
    assert run(["facing", files["q3.graph"], "--k", "2"]) == 1


def test_facing_triple_on_tree(files, capsys):
    assert run(["facing", files["path.graph"], "--k", "2", "--limit", "1"]) == 0
    assert capsys.readouterr().out.strip() == "H0- H1+"


def test_decompose(files, capsys):
    assert run(["decompose", files["q3.graph"]]) == 0
    assert "irreducible factors: 3" in capsys.readouterr().out


def test_dual_and_roundtrip(files, capsys):
    assert run(["dual", files["walls.txt"]]) == 0
    out = capsys.readouterr().out
    assert out.count("\nv ") + out.startswith("v ") == 4
    assert run(["roundtrip", files["q3.graph"]]) == 0


def test_roundtrip_refuses_over_limit_before_building_walls(
        files, capsys, monkeypatch):
    from cubekit import sageev
    built = []
    monkeypatch.setattr(sageev, "wallspace_of_graph",
                        lambda g: built.append(g))
    path = files["put"]("p26.graph", graph_to_text(builders.path_graph(26)))
    assert run(["roundtrip", path]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: wallspace has 25 walls, over the limit of 24\n"
    assert built == []


def test_dual_refuses_over_limit(files, capsys):
    points = [f"p{i}" for i in range(26)]
    path = files["put"]("walls25.txt", "".join(
        f"p {p}\n" for p in points) + "".join(
        f"w {i}: {p} | {' '.join(q for q in points if q != p)}\n"
        for i, p in enumerate(points[:25])))
    assert run(["dual", path]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: wallspace has 25 walls, over the limit of 24\n"


def test_action_validate(files, capsys):
    assert run(["action-validate", files["f2.graph"], files["f2.action"]]) == 0
    out = capsys.readouterr().out
    assert "action: valid" in out and "R_eff: 3" in out


def test_unknown_base_label_is_an_action_error(files, capsys):
    act = files["put"]("base.action",
                       "gen t T\nmap t 0 1\nmap T 1 0\nbase zz\n")
    assert run(["action-validate", files["path.graph"], act]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: unknown base label 'zz'\n"


def test_orbit_and_flip(files, capsys):
    assert run(["orbit", files["f2.graph"], files["f2.action"],
                "--halfspace", "H0+", "-L", "2"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 17
    assert run(["flip", files["f2.graph"], files["f2.action"],
                "--halfspace", "H0-", "-L", "2"]) == 0


def test_flip_budget_inconclusive(files, capsys):
    # trivial action cannot flip anything: budget exit, not negative
    t = builders.trivial_action(builders.path_graph(4))
    files["put"]("t.graph", graph_to_text(t.graph))
    files["put"]("t.action", action_to_text(t))
    assert run(["flip", files["t.graph"], files["t.action"],
                "--halfspace", "H1+", "-L", "3"]) == 3
    assert "inconclusive" in capsys.readouterr().err


def test_search_exit3_names_its_cause(files, capsys):
    # The grid shifts carry the wall's edges out of the ball, and the
    # identity on {0, 1} of the path is undefined on 2 and 3, so transports
    # leave the action's domain in both; the identity on a star is defined
    # everywhere, so only the length budget runs out.
    # None of these actions has a flipping or a double-skewer element.
    grid = builders.grid_shift_action(6)
    gg = files["put"]("grid.graph", graph_to_text(grid.graph))
    ga = files["put"]("grid.action", action_to_text(grid))
    arr = arrangement(grid.graph)
    idx = grid.graph.label_index
    wall = repr(arr.halfspace_of_oriented_edge(idx["2,1"], idx["3,1"]))
    pa = files["put"]("partial.action", "gen s S\n" + "".join(
        f"map {g} {v} {v}\n" for g in "sS" for v in (0, 1)))
    star = builders.star(3)
    sg = files["put"]("star.graph", graph_to_text(star))
    sa = files["put"]("star.action",
                      action_to_text(builders.trivial_action(star)))
    frontier = ("some transports left the action's domain (ball frontier or "
                "undefined map)")
    budget = "length budget exhausted; no transport left the action's domain"
    skewer = lambda g, a, hs: ["skewer", g, a, "--k-halfspace", hs,
                               "--h-halfspace", hs]
    for argv, what, cause in (
            (["flip", gg, ga, "--halfspace", wall], "flipping", frontier),
            (skewer(files["path.graph"], pa, "H2+"), "double-skewer",
             frontier),
            (["flip", sg, sa, "--halfspace", "H0+"], "flipping", budget),
            (skewer(sg, sa, "H0+"), "double-skewer", budget)):
        assert run(argv) == 3
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == (f"inconclusive: no {what} element within "
                           f"length 4 ({cause})\n")


# One generator pair on the path 0-1-2-3: s is not injective, and t swaps
# 1 and 2, so it maps the edge 0-1 to the non-edge 0-2.
BAD_ACTIONS = {
    "non-injective": ("gen s S\nmap s 0 0\nmap s 1 0\nmap s 2 2\n"
                      "map s 3 3\n" + "".join(f"map S {v} {v}\n"
                                               for v in range(4)),
                      "s: not injective at 0,1"),
    "non-edge": ("gen t T\n" + "".join(f"map {g} {v} {w}\n" for g in "tT"
                                        for v, w in ((0, 0), (1, 2), (2, 1),
                                                     (3, 3))),
                 "t: edge 0-1 mapped to non-edge"),
}


@pytest.mark.parametrize("kind", sorted(BAD_ACTIONS))
def test_invalid_action_is_refused_on_load(files, capsys, kind):
    text, issue = BAD_ACTIONS[kind]
    act = files["put"]("bad.action", text)
    assert run(["flip", files["path.graph"], act, "--halfspace", "H0+"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith(f"error: {act} is not a valid partial action")
    assert issue in cap.err and "Traceback" not in cap.err
    assert run(["action-validate", files["path.graph"], act]) == 1
    out = capsys.readouterr().out
    assert "action: INVALID" in out and f"issue: {issue}" in out


def test_pingpong_verify_cycle(files, tmp_path, capsys):
    # depth-1 quadruple: the four outward subtrees at the basepoint;
    # x = ab moves U two steps off its boundary, so delta-witness is 2
    assert run(["pingpong", files["f2.graph"], files["f2.action"],
                "--quadruple", "H0+ H1+ H2+ H3+",
                "--g", "a", "--h", "b", "--m-max", "1"]) == 0
    cert = capsys.readouterr().out
    assert "delta-witness: 2" in cert
    cpath = tmp_path / "cert.txt"
    cpath.write_text(cert)
    assert run(["verify", files["f2.graph"], files["f2.action"],
                str(cpath)]) == 0
    assert "verified" in capsys.readouterr().out
    cpath.write_text(cert.replace("delta-witness: 2", "delta-witness: 7"))
    assert run(["verify", files["f2.graph"], files["f2.action"],
                str(cpath)]) == 1


def test_sigma_stable_and_translate(files, tmp_path, capsys):
    # H0+ = 1|a, H1+ = 1|A, H4+ = a|aa, H10+ = b|ba, H12+ = b|bb
    f2 = [files["f2.graph"], files["f2.action"]]
    assert run(["sigma", *f2, "--base", "H0+", "--test", "H12+",
                "-L", "3"]) == 0
    cap = capsys.readouterr()
    assert cap.out == ("sigma analysis: base=H0+ test=H12+\n"
                       "sigma: 1\n"
                       "A-orbit size: 1\n"
                       "A-orbit: H12+\n"
                       "fixed edge p: 1-a\n"
                       "all sigma fix p: yes\n"
                       "separation outside A: verified on 0 sampled words\n")
    assert cap.err == ""
    # every hyperplane of the ball meets the depth-1 quadruple, so the
    # stable certificate is refused after the ping-pong one verifies
    assert run(["pingpong", *f2, "--quadruple", "H0+ H1+ H2+ H3+",
                "--g", "a", "--h", "b", "--m-max", "1"]) == 0
    cert = tmp_path / "cert.txt"
    cert.write_text(capsys.readouterr().out)
    assert run(["stable", *f2, "--cert", str(cert),
                "--hyperplane", "H0"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: hyperplane H0 meets H0+; it must avoid U and V\n"
    quotient = files["put"]("sign.quotient", "perm a: (0 1)\nperm b: (0 1)\n")
    assert run(["translate", *f2, "--halfspace", "H1+", "--quotient",
                quotient, "--companions", "H4+ H10+"]) == 3
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "inconclusive: no separated translate within budget\n"


def test_schreier_and_spectral(files, capsys):
    assert run(["schreier", files["f2.graph"], files["f2.action"],
                "--halfspace", "H0+", "--radius", "2"]) == 0
    assert "# frontier:" in capsys.readouterr().out
    assert run(["spectral", files["f2.graph"], files["f2.action"],
                "--halfspace", "H0+", "--radii", "2,3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "radius,estimate,residual"
    assert len(lines) == 3


def test_elliptic(files, capsys):
    assert run(["elliptic", files["f2.graph"], files["f2.action"],
                "--words", "1", "--hyperplane", "H0"]) == 0
    assert "fixed edge" in capsys.readouterr().out


def test_report(files, capsys):
    assert run(["report", files["q3.graph"]]) == 0
    assert "shape:" in capsys.readouterr().out


def test_threads_flag_does_not_change_output(files, capsys):
    assert run(["--threads", "1", "hyperplanes", files["q3.graph"]]) == 0
    one = capsys.readouterr().out
    assert run(["--threads", "4", "hyperplanes", files["q3.graph"]]) == 0
    assert capsys.readouterr().out == one


@pytest.mark.parametrize("value, err", [
    ("abc", "cubekit: error: argument --threads: invalid int value: 'abc'\n"),
    ("0", "error: --threads must be positive\n")])
def test_bad_threads_variable_is_a_usage_error(files, capsys, monkeypatch,
                                               value, err):
    monkeypatch.setenv("CUBEKIT_THREADS", value)
    assert run(["validate", files["q3.graph"]]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.endswith(err)
    assert "Traceback" not in cap.err


def test_threads_variable_is_read_on_every_run(files, capsys, monkeypatch):
    # three commands in one process, which builds its parser once
    monkeypatch.setenv("CUBEKIT_THREADS", "abc")
    assert run(["validate", files["q3.graph"]]) == 2
    assert capsys.readouterr().err.endswith("invalid int value: 'abc'\n")
    monkeypatch.delenv("CUBEKIT_THREADS")
    assert run(["validate", files["q3.graph"]]) == 0
    one = capsys.readouterr()
    assert run(["--threads", "4", "validate", files["q3.graph"]]) == 0
    assert capsys.readouterr() == one and one.err == ""


# -- validate on mutated graph texts ---------------------------------------

FUZZ_TEXTS = [graph_to_text(g) for g in (
    builders.hypercube(3), builders.cube_minus_vertex(),
    builders.grid_graph(4, 4), builders.free_group_ball(2))]


@st.composite
def mutated_graph_texts(draw):
    """One of the texts above with one line deleted, duplicated or replaced
    by junk, or one label of one line replaced by another or a new one."""
    lines = draw(st.sampled_from(FUZZ_TEXTS)).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["delete", "duplicate", "junk", "label"]))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "junk":
        lines[i] = draw(st.text(alphabet="ve# :0123ab\t", max_size=12))
    else:
        parts = lines[i].split()
        labels = sorted({p for ln in lines if not ln.startswith("#")
                         for p in ln.split()[1:]})
        j = draw(st.integers(1, len(parts) - 1))
        parts[j] = draw(st.sampled_from(labels) | st.sampled_from(["z", "0"]))
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_graph_texts())
def test_validate_on_mutated_texts(tmp_path_factory, text):
    """Exit 0, 1 or 2 without a traceback; a text that parses exits 0
    exactly when the tensor oracle finds no triple without one median."""
    path = tmp_path_factory.mktemp("fuzz") / "g.graph"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run(["validate", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    try:
        g = load_graph(text)
    except GraphError:
        assert code == 2
    else:
        assert (code == 0) == (brute_force_median_oracle(g) is None)
        assert code in (0, 1)


# -- the exit-code contract on edited input files --------------------------

def _f2_texts():
    """The F2 R=3 graph, its action and a ping-pong certificate for the
    depth-1 quadruple with g = a, h = b."""
    a = builders.free_group_action(3)
    quad = tuple(arrangement(a.graph).halfspace(c, 1) for c in range(4))
    cert = pingpong_certify(a, quad, parse_word("a", a.gens),
                            parse_word("b", a.gens), 1)
    return {"graph": graph_to_text(a.graph), "action": action_to_text(a),
            "cert": cert.to_text()}


F2_TEXTS = _f2_texts()
EDIT_CHARS = sorted(set("".join(F2_TEXTS.values())) | set("\t#|,;(-9xZ"))


@st.composite
def edited_f2_texts(draw):
    """The three texts above, one of them with one character deleted,
    inserted or replaced."""
    name = draw(st.sampled_from(sorted(F2_TEXTS)))
    text = F2_TEXTS[name]
    i = draw(st.integers(0, len(text) - 1))
    kind = draw(st.sampled_from(["delete", "insert", "replace"]))
    c = "" if kind == "delete" else draw(st.sampled_from(EDIT_CHARS))
    edited = text[:i] + c + text[i + (kind != "insert"):]
    return {**F2_TEXTS, name: edited}


@settings(max_examples=250, deadline=None)
@given(edited_f2_texts())
def test_exit_codes_on_edited_f2_files(tmp_path_factory, texts):
    """Every command exits 0-3 on the edited files, and none raises."""
    d = tmp_path_factory.mktemp("edit")
    for name, text in texts.items():
        (d / name).write_text(text)
    g, act, cert = (str(d / name) for name in ("graph", "action", "cert"))
    for argv in (["validate", g], ["hyperplanes", g], ["roundtrip", g],
                 ["action-validate", g, act],
                 ["flip", g, act, "--halfspace", "H0+"],
                 ["verify", g, act, cert],
                 ["stable", g, act, "--cert", cert, "--hyperplane", "H4"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        assert code in (0, 1, 2, 3), argv
