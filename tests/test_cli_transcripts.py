"""Exact stdout, stderr and exit code of CLI outcomes that no other test
pins byte for byte: the success output of skewer, quadruple, stable (the
certificate it writes), translate, report --json and a truncated orbit
(one with generator names of several characters too), the negative output
of a refuted ping-pong, of elliptic when no fixed point exists, of
facing at ``--limit 0`` and ``--limit -1`` and of validate on three
non-median graphs, the refusal of a non-median graph by a command that
validates its input, the usage and input errors (exit 2) of the options
and file parsers, one malformed input per message, every outcome of
``dual`` on a wallspace file (each wall error, the order of the errors,
a repeated point and a wallspace with no wall), and the exit 2 of a
stable sample that leaves the ball.

The graph and action files come from the builders, so a change to graph
storage that moves one class id, word or digest shows here.  ``roundtrip``
FAIL has no case: the CLI validates its input first, and the wallspace of
a median graph always rebuilds it.
"""

import pytest

from cubekit import builders
from cubekit.action import Generators, PartialAction, action_to_text
from cubekit.cli import run
from cubekit.median import graph_to_text

REPORT_JSON = """\
{
  "factors": [
    {
      "index": 0,
      "n": 4,
      "m": 3,
      "classes": [
        0,
        2,
        3
      ],
      "kind": "line",
      "evidence": "path on 4 vertices",
      "budget_exhausted": false
    },
    {
      "index": 1,
      "n": 4,
      "m": 3,
      "classes": [
        1,
        4,
        5
      ],
      "kind": "line",
      "evidence": "path on 4 vertices",
      "budget_exhausted": false
    }
  ],
  "shape": {
    "candidate_rank_1": 0,
    "line": 2,
    "bounded": 0,
    "total": 2
  },
  "restricted_actions": [
    {
      "factor": 0,
      "coordinate_wise": true,
      "detail": "all generators induce well-defined factor maps (14 induced images)"
    },
    {
      "factor": 1,
      "coordinate_wise": true,
      "detail": "all generators induce well-defined factor maps (14 induced images)"
    }
  ],
  "truncated": true,
  "undecidable": "finer identification of candidate factors is not decidable from finite data"
}
"""

DIGESTS = ("graph: affb09e7c32973b574524fd4916c6070"
           "ff9bc7be22ccdd2a56e809505745d8f8\n"
           "action: 9fef96018a1f84dd6db771cfe8f60b6d"
           "015a6a8f45eceac2a95e1d1ac161c272\n")

PINGPONG_DEPTH_2 = (
    "cubekit-pingpong v1\n" + DIGESTS +
    "quadruple: H4+ H7+ H12+ H15+\ng: aa\nh: bb\nm-max: 1\n"
    "incl g^1: H57+ <= H4+\nincl g^1: H60+ <= H4+\n"
    "incl h^1: H124+ <= H12+\nincl h^1: H127+ <= H12+\n"
    "incl g^-1: H84+ <= H7+\nincl g^-1: H87+ <= H7+\n"
    "incl h^-1: H151+ <= H15+\nincl h^-1: H154+ <= H15+\n"
    "disp 1: 4\ndelta-witness: 4\nmargin: 0\n")

# One error per malformed input; blank and comment lines are skipped, so
# blank.graph has none.
MALFORMED = {
    "blank.graph": "e a b\n\ne b c\n",
    "frontier.graph": "# frontier: zz\ne a b\n",
    "k23.graph": "e p x\ne p y\ne p z\ne q x\ne q y\ne q z\n",
    "parse.action": "# comment\n\ngen a A\nmap a\n",
    "nogen.action": "base 1\n",
    "undeclared.action": "gen a A\nmap b 1 a\n",
    "label.action": "gen a A\nmap a zz 1\n",
    "parse.quotient": "# comment\n\nquux\n",
    "cycle.quotient": "perm a: 0 1\n",
    "missing.quotient": "perm a: (0 1)\n",
    "inverse.quotient": "perm a: (0 1 2)\nperm A: (0 1 2)\nperm b: (0 1)\n",
    "negative.quotient": "perm a: (-1 2)\nperm b: (0 1)\n",
    "below-degree.quotient": "perm a: (-5 0)\nperm b: (0 1)\n",
    "dup.walls": "# comment\n\np x\np x\n",
    "parse.walls": "p x\nq\n",
    "unknown.walls": "p x\nw 0: x | y\n",
    "empty-left.walls": "p x\np y\nw 0: | x y\n",
    "empty-right.walls": "p x\np y\nw 0: x |\n",
    "missing.walls": "p x\np y\np z\nw 0: x | y\n",
    "both-sides.walls": "p x\np y\nw 0: x y | y\n",
    "dup-wall.walls": "p x\np y\nw 0: x | y\nw 1: y | x\n",
    "unknown-late.walls": "p x\np y\nw 0: x |\nw 1: x | q\n",
}

# Accepted wallspaces: a point listed twice on one side counts once, and a
# wallspace with no wall has the one-vertex dual, whose label is empty.
WALLSPACES = {
    "repeat.walls": "p x\np y\nw 0: x x | y\n",
    "empty.walls": "",
    "no-walls.walls": "p x\np y\n",
}

# Not median: a K_{2,3} whose degree-3 vertices p and q are not vertex 0,
# and a triangle; q3-minus.graph (Q3 without 111) is written by the fixture.
NON_MEDIAN = {
    "k23-side.graph": "e x p\ne x q\ne y p\ne y q\ne z p\ne z q\n",
    "triangle.graph": "e a b\ne b c\ne a c\n",
}

F4 = ["f4.graph", "f4.action"]
TRANSLATE = ["translate", *F4, "--halfspace", "H1+", "--quotient"]


def _error(msg):
    return 2, "", f"error: {msg}\n"


# (argv with file names, exit code, stdout, stderr); "pp.cert" is the
# ping-pong certificate pinned below.  The commutators of aa and bb have
# length 8, so sample length 4 samples none; at 8 they leave the radius-6
# ball.
CASES = {
    "skewer": (["skewer", "f4.graph", "f4.action", "--k-halfspace", "H4+",
                "--h-halfspace", "H0+"], 0, "skewer: aa -> H16+\n", ""),
    "quadruple": (["quadruple", "f4.graph", "f4.action", "--triple",
                   "H0+ H2+ H3+"], 0,
                  "quadruple: H2+ H3+ H65+ H66+\nk: abA\ng: bb\n"
                  "h: not found\n# some searches were truncated\n", ""),
    "translate": (["translate", "f4.graph", "f4.action", "--halfspace",
                   "H1+", "--quotient", "sign.quotient"], 0,
                  "word: aB\nn0: 1\ntranslate: H23+\n", ""),
    "report-json": (["--format", "json", "report", "grid.graph",
                     "grid.action"], 0, REPORT_JSON, ""),
    "pingpong-refuted": (["pingpong", "f4.graph", "f4.action",
                          "--quadruple", "H0+ H1+ H2+ H3+", "--g", "b",
                          "--h", "a", "--m-max", "1"], 1,
                         "refuted: g^1(H2+) = H12+ not inside H0+/H1+\n",
                         ""),
    "elliptic-not-found": (["elliptic", "f4.graph", "f4.action",
                            "--words", "a,b"], 1,
                           "fixed point: not-found\n", ""),
    "stable": (["stable", "f6.graph", "f6.action", "--cert", "pp.cert",
                "--hyperplane", "H0", "--sample-len", "4"], 0,
               "cubekit-stable v1\n" + DIGESTS +
               "hyperplane: H0\nquadruple: H4+ H7+ H12+ H15+\ng: aa\n"
               "h: bb\nsample-len: 4\n"
               "note: empty sample (vacuous certificate)\n"
               "margin: exact\n", ""),
    "orbit-truncated": (["orbit", "f2.graph", "f2.action", "--halfspace",
                         "H0+", "-L", "2"], 0,
                        "H0+ 1\nH4+ a\nH1- A\nH10+ b\nH13+ B\nH7- AA\n"
                        "H11- bA\nH14- BA\n"
                        "# truncated: some transports left the ball\n", ""),
    # generator names longer than one character: words are spaced
    "orbit-named-generators": (["orbit", "line.graph", "named.action",
                                "--halfspace", "H1+", "-L", "2"], 0,
                               "H1+ 1\nH2+ up\nH0+ dn\nH3+ up up\n"
                               "# truncated: some transports left the ball\n",
                               ""),
    "validate-q3-minus-vertex": (
        ["validate", "q3-minus.graph"], 1,
        "median: FAIL counterexample=('011', '101', '110') "
        "(triple without unique median)\n", ""),
    "validate-k23-side": (
        ["validate", "k23-side.graph"], 1,
        "median: FAIL counterexample=('x', 'y', 'z') "
        "(triple without unique median)\n", ""),
    "validate-triangle": (
        ["validate", "triangle.graph"], 1,
        "median: FAIL counterexample=('a', 'b', 'c') "
        "(graph is not bipartite)\n", ""),
    "facing-limit-0": (["facing", "f4.graph", "--k", "3", "--limit", "0"], 1,
                       "no facing 3-tuples\n", ""),
    # a negative limit also gives no tuples, though facing triples exist (a
    # known defect, pinned as it is)
    "facing-limit-negative": (["facing", "f4.graph", "--k", "3",
                               "--limit", "-1"], 1,
                              "no facing 3-tuples\n", ""),
    # a sampled commutator leaves the radius-6 ball: exit 2, not 3 (a known
    # defect, pinned as it is)
    "stable-out-of-domain": (
        ["stable", "f6.graph", "f6.action", "--cert", "pp.cert",
         "--hyperplane", "H62", "--sample-len", "8"],
        *_error("cannot transport H62 by aabbAABB: out of domain")),
    # usage errors
    "threads-0": (["--threads", "0", "validate", "f4.graph"],
                  *_error("--threads must be positive")),
    "triple-two-tokens": (["quadruple", *F4, "--triple", "H0+ H2+"],
                          *_error("--triple needs exactly three halfspaces")),
    "quadruple-three-tokens": (
        ["pingpong", *F4, "--quadruple", "H0+ H1+ H2+", "--g", "b", "--h",
         "a"], *_error("--quadruple needs exactly four halfspaces")),
    "companions-one-token": (
        [*TRANSLATE, "sign.quotient", "--companions", "H0+"],
        *_error("--companions needs exactly two halfspaces")),
    "facing-k-1": (["facing", "f4.graph", "--k", "1"],
                   *_error("k must be >= 2")),
    "flip-halfspace-out-of-range": (["flip", *F4, "--halfspace", "H999+"],
                                    *_error("bad halfspace id")),
    "stable-given-a-stable-cert": (
        ["stable", "f6.graph", "f6.action", "--cert", "stable.cert",
         "--hyperplane", "H0"],
        *_error("--cert must point to a ping-pong certificate")),
    "stable-given-a-tampered-cert": (
        ["stable", "f6.graph", "f6.action", "--cert", "tampered.cert",
         "--hyperplane", "H0"],
        *_error("supplied certificate is invalid: line 16 differs: "
                "expected 'disp 1: 4' got 'disp 1: 5'")),
    # file parsers
    "graph-blank-line": (["validate", "blank.graph"], 0,
                         "median: OK (3 vertices, 2 hyperplanes)\n", ""),
    "graph-frontier-label": (["validate", "frontier.graph"],
                             *_error("frontier label 'zz' is not a vertex")),
    "action-parse": (["action-validate", "f4.graph", "parse.action"],
                     *_error("line 4: cannot parse 'map a'")),
    "action-no-generators": (["action-validate", "f4.graph", "nogen.action"],
                             *_error("no generators declared")),
    "action-undeclared": (
        ["action-validate", "f4.graph", "undeclared.action"],
        *_error("map for undeclared generator 'b'")),
    "action-label": (["action-validate", "f4.graph", "label.action"],
                     *_error("unknown vertex label 'zz'")),
    "quotient-parse": ([*TRANSLATE, "parse.quotient"],
                       *_error("line 3: cannot parse 'quux'")),
    "quotient-cycle": ([*TRANSLATE, "cycle.quotient"],
                       *_error("line 1: bad cycle '0 1'")),
    "quotient-missing": ([*TRANSLATE, "missing.quotient"],
                         *_error("no permutation for generator 'b'")),
    "quotient-inverse": ([*TRANSLATE, "inverse.quotient"],
                         *_error("permutations for a,A are not inverse")),
    "quotient-negative": ([*TRANSLATE, "negative.quotient"],
                          *_error("line 1: bad cycle '(-1 2)'")),
    "quotient-below-degree": ([*TRANSLATE, "below-degree.quotient"],
                              *_error("line 1: bad cycle '(-5 0)'")),
    "walls-duplicate": (["dual", "dup.walls"],
                        *_error("line 4: duplicate point")),
    "walls-parse": (["dual", "parse.walls"],
                    *_error("line 2: cannot parse 'q'")),
    "walls-unknown": (["dual", "unknown.walls"],
                      *_error("unknown point 'y'")),
    "walls-empty-left": (["dual", "empty-left.walls"],
                         *_error("wall 0: empty side")),
    "walls-empty-right": (["dual", "empty-right.walls"],
                          *_error("wall 0: empty side")),
    "walls-missing-point": (["dual", "missing.walls"],
                            *_error("wall 0: not a bipartition")),
    "walls-point-on-both-sides": (["dual", "both-sides.walls"],
                                  *_error("wall 0: not a bipartition")),
    "walls-duplicate-wall": (["dual", "dup-wall.walls"],
                             *_error("wall 1: duplicate")),
    "walls-unknown-before-wall-errors": (["dual", "unknown-late.walls"],
                                         *_error("unknown point 'q'")),
    "walls-repeated-point": (["dual", "repeat.walls"], 0,
                             "v 0\nv 1\ne 0 1\n", ""),
    "walls-empty-file": (["dual", "empty.walls"], 0, "v \n", ""),
    "walls-points-only": (["dual", "no-walls.walls"], 0, "v \n", ""),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("transcripts")
    f4, f6 = builders.free_group_action(4), builders.free_group_action(6)
    f2, grid = builders.free_group_action(2), builders.grid_shift_action(4)
    line = builders.line_shift_action(2)
    named = PartialAction(line.graph, Generators([("up", "dn")]),
                          {"up": line.maps["t"], "dn": line.maps["T"]},
                          line.base)
    texts = {**MALFORMED, **NON_MEDIAN, **WALLSPACES,
             "q3-minus.graph": graph_to_text(builders.cube_minus_vertex()),
             "f2.graph": graph_to_text(f2.graph),
             "f2.action": action_to_text(f2),
             "f4.graph": graph_to_text(f4.graph),
             "f4.action": action_to_text(f4),
             "f6.graph": graph_to_text(f6.graph),
             "f6.action": action_to_text(f6),
             "grid.graph": graph_to_text(grid.graph),
             "grid.action": action_to_text(grid),
             "line.graph": graph_to_text(line.graph),
             "named.action": action_to_text(named),
             "sign.quotient": "perm a: (0 1)\nperm b: (0 1)\n",
             "pp.cert": PINGPONG_DEPTH_2,
             "stable.cert": CASES["stable"][2],
             "tampered.cert": PINGPONG_DEPTH_2.replace("disp 1: 4",
                                                       "disp 1: 5")}
    out = {}
    for name, text in texts.items():
        (d / name).write_text(text)
        out[name] = str(d / name)
    return out


def _run(argv, paths, capsys):
    code = run([paths.get(t, t) for t in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript(name, paths, capsys):
    argv, code, out, err = CASES[name]
    assert _run(argv, paths, capsys) == (code, out, err)


def test_pingpong_writes_the_certificate_stable_reads(paths, capsys):
    argv = ["pingpong", "f6.graph", "f6.action", "--quadruple",
            "H4+ H7+ H12+ H15+", "--g", "aa", "--h", "bb", "--m-max", "1"]
    assert _run(argv, paths, capsys) == (0, PINGPONG_DEPTH_2, "")


def test_a_non_median_file_is_refused_naming_vertex_ids(paths, capsys):
    # K_{2,3} with vertices p, x, y, z, q in order of first appearance:
    # the triple is reported by id, not by label
    path = paths["k23.graph"]
    assert _run(["hyperplanes", "k23.graph"], paths, capsys) == (
        2, "", f"error: {path} is not a median graph (triple (1, 2, 3))\n")


def test_a_bipartite_file_without_a_3_cube_is_refused(paths, capsys):
    # Q3 without 111 meets every condition but the 3-cube condition
    path = paths["q3-minus.graph"]
    assert _run(["hyperplanes", "q3-minus.graph"], paths, capsys) == (
        2, "", f"error: {path} is not a median graph (triple (3, 5, 6))\n")
