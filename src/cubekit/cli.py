"""Command-line front end.

Exit codes form a four-way contract: 0 = success, 1 = negative finding
(the property was checked and does not hold), 2 = error (bad input or
usage), 3 = inconclusive (a search budget or the truncation radius was
exhausted before a verdict).  Negative and inconclusive are never
conflated — most of the hypotheses checked here are undecidable from
finite data, and scripts need to tell the two apart.

All computations are sequential; ``--threads`` (default from the
CUBEKIT_THREADS environment variable) is accepted for interface stability
and does not change any output byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .median import GraphError, check_median, graph_to_text, load_graph
from .hyperplanes import (HyperplaneError, arrangement, facing_tuples,
                          hyperplane_report, irreducible_decomposition,
                          parse_halfspace, projection_pair,
                          strongly_separated)
from .sageev import (WallspaceError, build_dual, parse_wallspace,
                     roundtrip_check)
from .action import (ActionError, find_double_skewer, find_flipping,
                     hyperplane_orbit, load_action, load_quotient,
                     parse_word, word_str)
from .schottky import (CERT_PINGPONG, PingPongCertificate, PingPongRefutation,
                       SchottkyError, SearchBudgetExhausted,
                       _parse_cert_lines, build_quadruple,
                       elliptic_fixed_point, find_separated_translate,
                       pingpong_certify, sigma_analysis, stable_certify,
                       verify_certificate)
from .schreier import SchreierError, build_schreier, schreier_to_text, \
    spectral_series
from .report import shape_report

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str, validate: bool = True):
    g = load_graph(_read(path))
    if validate:
        res = check_median(g)
        if not res.ok:
            raise GraphError(
                f"{path} is not a median graph (triple {res.counterexample})")
    return g


def _load_action(gpath: str, apath: str, validate: bool = True):
    g = _load_graph(gpath)
    a = load_action(_read(apath), g)
    if validate:
        rep = a.validate()
        if not rep.valid:
            raise ActionError(f"{apath} is not a valid partial action: "
                              + "; ".join(rep.issues))
    return a


def _search_exhausted(what: str, L: int,
                      truncated: bool) -> SearchBudgetExhausted:
    cause = ("some transports left the action's domain (ball frontier or "
             "undefined map)" if truncated
             else "length budget exhausted; no transport left the action's "
                  "domain")
    return SearchBudgetExhausted(
        f"no {what} element within length {L} ({cause})")


def _hyperplane_id(token: str) -> int:
    return int(token.strip().removeprefix("H"))


def _emit(args, text: str, payload=None):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload if payload is not None
                         else {"output": text}, indent=2))
    else:
        print(text)


# -- subcommands ----------------------------------------------------------

def cmd_validate(args) -> int:
    g = _load_graph(args.graph, validate=False)
    res = check_median(g)
    if res.ok:
        k = arrangement(g).n_classes
        _emit(args, f"median: OK ({g.n} vertices, {k} hyperplanes)",
              {"median": True, "vertices": g.n, "hyperplanes": k})
        return EXIT_OK
    labs = tuple(g.labels[v] for v in res.counterexample)
    _emit(args, f"median: FAIL counterexample={labs} ({res.reason})",
          {"median": False, "counterexample": labs, "reason": res.reason})
    return EXIT_NEGATIVE


def cmd_hyperplanes(args) -> int:
    g = _load_graph(args.graph)
    _emit(args, hyperplane_report(g))
    return EXIT_OK


def cmd_separation(args) -> int:
    g = _load_graph(args.graph)
    arr = arrangement(g)
    h1 = arr.hyperplane(_hyperplane_id(args.h1))
    h2 = arr.hyperplane(_hyperplane_id(args.h2))
    if strongly_separated(h1, h2):
        e1, e2 = projection_pair(h1, h2)
        lab = lambda e: f"{g.labels[e[0]]}-{g.labels[e[1]]}"
        _emit(args, "strongly separated: yes\n"
              f"projection edges: {lab(e1)} / {lab(e2)}",
              {"strongly_separated": True,
               "projection_edges": [list(e1), list(e2)]})
        return EXIT_OK
    _emit(args, "strongly separated: no", {"strongly_separated": False})
    return EXIT_NEGATIVE


def cmd_facing(args) -> int:
    g = _load_graph(args.graph)
    tuples = facing_tuples(g, args.k, limit=args.limit)
    if not tuples:
        _emit(args, f"no facing {args.k}-tuples", {"tuples": []})
        return EXIT_NEGATIVE
    lines = [" ".join(repr(h) for h in t) for t in tuples]
    _emit(args, "\n".join(lines),
          {"tuples": [[repr(h) for h in t] for t in tuples]})
    return EXIT_OK


def cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    dec = irreducible_decomposition(g)
    lines = [f"irreducible factors: {dec.r}"]
    for i, f in enumerate(dec.factors):
        cls = ",".join(f"H{c}" for c in dec.partition[i])
        lines.append(f"factor {i}: n={f.n} m={f.m} classes={cls}")
    _emit(args, "\n".join(lines),
          {"factors": [{"n": f.n, "m": f.m, "classes": dec.partition[i]}
                       for i, f in enumerate(dec.factors)]})
    return EXIT_OK


def cmd_dual(args) -> int:
    w = parse_wallspace(_read(args.wallspace))
    g = build_dual(w)
    sys.stdout.write(graph_to_text(g))
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    g = _load_graph(args.graph)
    res = roundtrip_check(g)
    if res.ok:
        _emit(args, "roundtrip: OK", {"roundtrip": True})
        return EXIT_OK
    _emit(args, f"roundtrip: FAIL ({res.reason})",
          {"roundtrip": False, "reason": res.reason})
    return EXIT_NEGATIVE


def cmd_action_validate(args) -> int:
    a = _load_action(args.graph, args.action, validate=False)
    rep = a.validate()
    _emit(args, rep.render(),
          {"valid": rep.valid, "r_eff": rep.r_eff, "total": rep.total,
           "issues": rep.issues, "domain_sizes": rep.domain_sizes})
    return EXIT_OK if rep.valid else EXIT_NEGATIVE


def cmd_orbit(args) -> int:
    a = _load_action(args.graph, args.action)
    hs = parse_halfspace(arrangement(a.graph), args.halfspace)
    res = hyperplane_orbit(a, hs, args.L)
    lines = [f"{h!r} {word_str(w)}" for h, w in res.images]
    if res.truncated:
        lines.append("# truncated: some transports left the ball")
    _emit(args, "\n".join(lines),
          {"images": [[repr(h), word_str(w)] for h, w in res.images],
           "truncated": res.truncated})
    return EXIT_OK


def cmd_flip(args) -> int:
    a = _load_action(args.graph, args.action)
    hs = parse_halfspace(arrangement(a.graph), args.halfspace)
    res = find_flipping(a, hs, args.L)
    if not res.found:
        raise _search_exhausted("flipping", args.L, res.truncated)
    _emit(args, f"flip: {word_str(res.word)} -> {res.image!r}",
          {"word": word_str(res.word), "image": repr(res.image),
           "margin": res.margin})
    return EXIT_OK


def cmd_skewer(args) -> int:
    a = _load_action(args.graph, args.action)
    arr = arrangement(a.graph)
    k_hs = parse_halfspace(arr, args.k_halfspace)
    h_hs = parse_halfspace(arr, args.h_halfspace)
    res = find_double_skewer(a, k_hs, h_hs, args.L)
    if not res.found:
        raise _search_exhausted("double-skewer", args.L, res.truncated)
    _emit(args, f"skewer: {word_str(res.word)} -> {res.image!r}",
          {"word": word_str(res.word), "image": repr(res.image),
           "margin": res.margin})
    return EXIT_OK


def cmd_sigma(args) -> int:
    a = _load_action(args.graph, args.action)
    arr = arrangement(a.graph)
    base = parse_halfspace(arr, args.base)
    test = parse_halfspace(arr, args.test)
    data = sigma_analysis(a, base, test, args.L)
    _emit(args, data.render(a.graph))
    return EXIT_OK


def cmd_quadruple(args) -> int:
    a = _load_action(args.graph, args.action)
    arr = arrangement(a.graph)
    triple = tuple(parse_halfspace(arr, t) for t in args.triple.split())
    if len(triple) != 3:
        raise ActionError("--triple needs exactly three halfspaces")
    res = build_quadruple(a, triple, args.L)
    lines = ["quadruple: " + " ".join(repr(h) for h in res.quadruple),
             f"k: {word_str(res.k_word)}",
             f"g: {word_str(res.g_word) if res.g_word else 'not found'}",
             f"h: {word_str(res.h_word) if res.h_word else 'not found'}"]
    if res.refined:
        lines.append("refined: yes")
    if res.truncated:
        lines.append("# some searches were truncated")
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_pingpong(args) -> int:
    a = _load_action(args.graph, args.action)
    arr = arrangement(a.graph)
    quad = tuple(parse_halfspace(arr, t) for t in args.quadruple.split())
    if len(quad) != 4:
        raise ActionError("--quadruple needs exactly four halfspaces")
    g_w = parse_word(args.g, a.gens)
    h_w = parse_word(args.h, a.gens)
    res = pingpong_certify(a, quad, g_w, h_w, args.m_max)
    if isinstance(res, PingPongRefutation):
        _emit(args, f"refuted: {res.reason}", {"ok": False,
                                               "reason": res.reason})
        return EXIT_NEGATIVE
    sys.stdout.write(res.to_text())
    return EXIT_OK


def cmd_stable(args) -> int:
    a = _load_action(args.graph, args.action)
    arr = arrangement(a.graph)
    cert_text = _read(args.cert)
    kind, fields, _ = _parse_cert_lines(cert_text)
    if kind != CERT_PINGPONG:
        raise SchottkyError("--cert must point to a ping-pong certificate")
    ok, msg = verify_certificate(a, cert_text)
    if not ok:
        raise SchottkyError(f"supplied certificate is invalid: {msg}")
    quad = tuple(parse_halfspace(arr, t)
                 for t in fields["quadruple"].split())
    pp = PingPongCertificate(a.graph.digest(), a.digest(), quad,
                             parse_word(fields["g"], a.gens),
                             parse_word(fields["h"], a.gens),
                             int(fields["m-max"]), [], [], 0, None, [])
    h_hyp = arr.hyperplane(_hyperplane_id(args.hyperplane))
    cert = stable_certify(a, h_hyp, pp, args.sample_len)
    sys.stdout.write(cert.to_text())
    return EXIT_OK


def cmd_schreier(args) -> int:
    a = _load_action(args.graph, args.action)
    hs = parse_halfspace(arrangement(a.graph), args.halfspace)
    sg = build_schreier(a, hs, args.radius)
    sys.stdout.write(schreier_to_text(sg))
    return EXIT_OK


def cmd_spectral(args) -> int:
    a = _load_action(args.graph, args.action)
    hs = parse_halfspace(arrangement(a.graph), args.halfspace)
    radii = [int(x) for x in args.radii.split(",")] if args.radii \
        else [args.radius]
    ests = spectral_series(a, hs, radii, tol=args.tol)
    lines = ["radius,estimate,residual"] + [e.csv_line() for e in ests]
    _emit(args, "\n".join(lines),
          {"series": [{"radius": e.radius, "estimate": e.estimate,
                       "residual": e.residual,
                       "interior_nodes": e.interior_nodes} for e in ests]})
    return EXIT_OK


def cmd_elliptic(args) -> int:
    a = _load_action(args.graph, args.action)
    arr = arrangement(a.graph)
    words = [parse_word(t, a.gens) for t in args.words.split(",")]
    hyp = arr.hyperplane(_hyperplane_id(args.hyperplane)) \
        if args.hyperplane else None
    res = elliptic_fixed_point(a, words, args.L, hyperplane=hyp)
    if not res.found:
        _emit(args, "fixed point: not-found", {"kind": "not-found"})
        return EXIT_NEGATIVE
    labs = tuple(a.graph.labels[v] for v in res.locus)
    _emit(args, f"fixed {res.kind}: {' '.join(labs)}",
          {"kind": res.kind, "locus": list(labs)})
    return EXIT_OK


def cmd_translate(args) -> int:
    a = _load_action(args.graph, args.action)
    arr = arrangement(a.graph)
    hs = parse_halfspace(arr, args.halfspace)
    q = load_quotient(_read(args.quotient), a.gens)
    companions = None
    if args.companions:
        toks = args.companions.split()
        if len(toks) != 2:
            raise ActionError("--companions needs exactly two halfspaces")
        companions = (parse_halfspace(arr, toks[0]),
                      parse_halfspace(arr, toks[1]))
    res = find_separated_translate(a, hs, q, args.L, companions=companions)
    if res is None:
        raise SearchBudgetExhausted("no separated translate within budget")
    _emit(args, f"word: {word_str(res.word)}\nn0: {res.n0}\n"
          f"translate: {res.translate!r}",
          {"word": word_str(res.word), "n0": res.n0,
           "translate": repr(res.translate), "margin": res.margin})
    return EXIT_OK


def cmd_report(args) -> int:
    a = _load_action(args.graph, args.action) if args.action else None
    g = a.graph if a is not None else _load_graph(args.graph)
    rep = shape_report(g, a)
    if args.format == "json":
        print(rep.to_json())
    else:
        print(rep.render())
    return EXIT_OK


def cmd_verify(args) -> int:
    a = _load_action(args.graph, args.action)
    ok, msg = verify_certificate(a, _read(args.cert))
    _emit(args, msg, {"ok": ok, "message": msg})
    return EXIT_OK if ok else EXIT_NEGATIVE


# -- parser ---------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once a process; :func:`run` sets the --threads default."""
    p = argparse.ArgumentParser(
        prog="cubekit",
        description="finite median graphs, hyperplanes, and group actions")
    p.add_argument("--threads", type=int,
                   help="accepted for interface stability; execution is "
                        "sequential and outputs are schedule-independent")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", cmd_validate, help="median-graph check")
    sp.add_argument("graph")

    sp = add("hyperplanes", cmd_hyperplanes, help="hyperplane report")
    sp.add_argument("graph")

    sp = add("separation", cmd_separation,
             help="strong separation of two hyperplanes")
    sp.add_argument("graph")
    sp.add_argument("h1")
    sp.add_argument("h2")

    sp = add("facing", cmd_facing, help="facing tuples of halfspaces")
    sp.add_argument("graph")
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--limit", type=int, default=None)

    sp = add("decompose", cmd_decompose,
             help="irreducible product decomposition")
    sp.add_argument("graph")

    sp = add("dual", cmd_dual, help="dual median graph of a wallspace")
    sp.add_argument("wallspace")

    sp = add("roundtrip", cmd_roundtrip,
             help="graph -> wallspace -> dual isomorphism check")
    sp.add_argument("graph")

    sp = add("action-validate", cmd_action_validate,
             help="partial-action consistency report")
    sp.add_argument("graph")
    sp.add_argument("action")

    def action_sub(name, fn, **kw):
        sp = add(name, fn, **kw)
        sp.add_argument("graph")
        sp.add_argument("action")
        return sp

    sp = action_sub("orbit", cmd_orbit, help="halfspace orbit under words")
    sp.add_argument("--halfspace", required=True)
    sp.add_argument("-L", type=int, default=3)

    sp = action_sub("flip", cmd_flip, help="find a flipping element")
    sp.add_argument("--halfspace", required=True)
    sp.add_argument("-L", type=int, default=4)

    sp = action_sub("skewer", cmd_skewer,
                    help="find a double-skewer element")
    sp.add_argument("--k-halfspace", required=True)
    sp.add_argument("--h-halfspace", required=True)
    sp.add_argument("-L", type=int, default=4)

    sp = action_sub("sigma", cmd_sigma, help="stabilizer Sigma/A analysis")
    sp.add_argument("--base", required=True)
    sp.add_argument("--test", required=True)
    sp.add_argument("-L", type=int, default=4)

    sp = action_sub("quadruple", cmd_quadruple,
                    help="facing quadruple from a facing triple")
    sp.add_argument("--triple", required=True,
                    help="three halfspace tokens, space separated")
    sp.add_argument("-L", type=int, default=4)

    sp = action_sub("pingpong", cmd_pingpong,
                    help="ping-pong certificate for a free pair")
    sp.add_argument("--quadruple", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--h", required=True)
    sp.add_argument("--m-max", type=int, default=3)

    sp = action_sub("stable", cmd_stable,
                    help="stable-hyperplane certificate")
    sp.add_argument("--cert", required=True,
                    help="ping-pong certificate file")
    sp.add_argument("--hyperplane", required=True)
    sp.add_argument("--sample-len", type=int, default=8)

    sp = action_sub("schreier", cmd_schreier,
                    help="Schreier graph of a hyperplane stabilizer")
    sp.add_argument("--halfspace", required=True)
    sp.add_argument("--radius", type=int, required=True)

    sp = action_sub("spectral", cmd_spectral,
                    help="Dirichlet spectral estimates")
    sp.add_argument("--halfspace", required=True)
    sp.add_argument("--radius", type=int, default=6)
    sp.add_argument("--radii", default=None,
                    help="comma-separated list overriding --radius")
    sp.add_argument("--tol", type=float, default=1e-8)

    sp = action_sub("elliptic", cmd_elliptic,
                    help="common fixed locus of words")
    sp.add_argument("--words", required=True,
                    help="comma-separated words")
    sp.add_argument("--hyperplane", default=None)
    sp.add_argument("-L", type=int, default=3)

    sp = action_sub("translate", cmd_translate,
                    help="separated translate through a finite quotient")
    sp.add_argument("--halfspace", required=True)
    sp.add_argument("--quotient", required=True)
    sp.add_argument("--companions", default=None,
                    help="two halfspace tokens forming the facing triple")
    sp.add_argument("-L", type=int, default=6)

    sp = add("report", cmd_report, help="product-decomposition shape report")
    sp.add_argument("graph")
    sp.add_argument("action", nargs="?", default=None)

    sp = action_sub("verify", cmd_verify, help="re-check a certificate")
    sp.add_argument("cert")

    return p


def run(argv) -> int:
    parser = build_parser()
    parser.set_defaults(threads=os.environ.get("CUBEKIT_THREADS", "1"))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return int(exc.code or 0) and EXIT_ERROR
    if args.threads < 1:
        print("error: --threads must be positive", file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.fn(args)
    except SearchBudgetExhausted as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (GraphError, HyperplaneError, WallspaceError, ActionError,
            SchottkyError, SchreierError, OSError, ValueError,
            KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
