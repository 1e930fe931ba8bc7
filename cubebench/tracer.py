"""Span tracing from outside the program.

The traced run replaces each listed cubekit function or method with a
wrapper that records one span per call: name, start, end, parent span and
operation id.  Functions are replaced in their own module and in every
cubekit module that imported them by name; methods are replaced on their
class.  Spans are kept in flat in-memory arrays and written out when the
run ends.  Self time (a span minus the time covered by its child spans)
and per-name counters are accumulated as the calls happen.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

SETUP_OP = 0   # operation id of the set-up; passes number ops from 1


def _first_arg_lines(args, kwargs):
    text = args[0] if args else kwargs.get("text", "")
    return text.count("\n")


def _graph_size(res):
    if isinstance(res, tuple):
        res = res[0]
    g = getattr(res, "graph", res)
    return getattr(g, "n", 0)


class Tracer:
    """Records spans and counters for calls into cubekit.

    ``op`` is set by the runner before each operation, so every span
    carries the id of the operation that caused it."""

    def __init__(self):
        self.op = SETUP_OP
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []     # [child seconds, span index, name id]
        self.self_s: dict[tuple[int, int], float] = defaultdict(float)
        self.incl_s: dict[tuple[int, int], float] = defaultdict(float)
        self.calls: dict[tuple[int, int], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._builder_depth = 0

    # -- spans ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._name_id.get(name)
        if i is None:
            i = len(self.names)
            self._name_id[name] = i
            self.names.append(name)
        return i

    def wrap(self, fn, name: str, pre=None, post=None):
        nid = self.name_id(name)
        perf = time.perf_counter
        stack = self.stack
        tr = self

        def traced(*args, **kwargs):
            idx = len(tr.span_start)
            parent = stack[-1][1] if stack else -1
            tr.span_name.append(nid)
            tr.span_parent.append(parent)
            tr.span_op.append(tr.op)
            tr.span_start.append(0.0)
            tr.span_end.append(0.0)
            state = pre(args, kwargs) if pre is not None else None
            frame = [0.0, idx, nid]
            stack.append(frame)
            t0 = perf()
            tr.span_start[idx] = t0
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                key = (tr.op, nid)
                tr.self_s[key] += d - frame[0]
                tr.incl_s[key] += d
                tr.calls[key] += 1
                tr.span_end[idx] = t1
                if stack:
                    stack[-1][0] += d
            if post is not None:
                post(args, kwargs, res, state)
            return res

        traced.__wrapped__ = fn
        return traced

    def count_yields(self, fn, counter: str):
        counters = self.counters

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[counter] += 1
                yield item

        counted.__wrapped__ = fn
        return counted

    def parent_is(self, name: str) -> bool:
        nid = self._name_id.get(name)
        return bool(self.stack) and self.stack[-1][2] == nid

    # -- patching ---------------------------------------------------------

    def _replace_function(self, module: str, attr: str, make):
        mod = importlib.import_module(f"cubekit.{module}")
        orig = getattr(mod, attr, None)
        if orig is None:
            self.absent[f"{module}.{attr}"] = \
                f"cubekit.{module} has no attribute '{attr}'"
            return
        new = make(orig)
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "cubekit"
                                 or mname.startswith("cubekit.")):
                continue
            for k, v in list(vars(m).items()):
                if v is orig:
                    self._restore.append((m, k, orig))
                    setattr(m, k, new)

    def _replace_method(self, module: str, cls: str, attr: str, make):
        mod = importlib.import_module(f"cubekit.{module}")
        klass = getattr(mod, cls, None)
        orig = vars(klass).get(attr) if klass is not None else None
        if orig is None:
            self.absent[f"{module}.{cls}.{attr}"] = \
                f"cubekit.{module}.{cls} has no method '{attr}'"
            return
        self._restore.append((klass, attr, orig))
        setattr(klass, attr, make(orig))

    def function(self, module, attr, name=None, pre=None, post=None):
        self._replace_function(
            module, attr,
            lambda f: self.wrap(f, name or f"{module}.{attr}", pre, post))

    def method(self, module, cls, attr, name=None, pre=None, post=None):
        self._replace_method(
            module, cls, attr,
            lambda f: self.wrap(f, name or f"{module}.{cls}.{attr}", pre,
                                post))

    def install(self):
        """Wrap every call site the per-layer metrics are read from."""
        c = self.counters

        def add(counter, value=1):
            c[counter] += value

        # cli
        def cli_exit(args, kwargs, code, state):
            add("cli.exit1", code == 1)
            add("cli.exit3", code == 3)
        self.function("cli", "run", post=cli_exit)

        # median
        self.function("median", "load_graph", post=lambda a, k, r, s: add(
            "median.load_graph_lines", _first_arg_lines(a, k)))
        self.function("median", "check_median")
        self.function("median", "bfs_distances", post=lambda a, k, r, s: add(
            "median.dist_from_miss", self.parent_is(
                "median.MedianGraph.dist_from")))
        self.method("median", "MedianGraph", "__init__")
        self.method("median", "MedianGraph", "dist_from")
        self.method("median", "MedianGraph", "digest")

        # builders: vertices are counted on the outermost builder call
        def b_pre(args, kwargs):
            self._builder_depth += 1

        def b_post(args, kwargs, res, state):
            self._builder_depth -= 1
            if self._builder_depth == 0:
                add("builders.vertices", _graph_size(res))
        for fn in ("hypercube", "path_graph", "star", "grid_graph",
                   "triangle", "cube_minus_vertex", "random_tree",
                   "random_connected_graph", "random_median_factor",
                   "random_product", "free_group_ball", "free_group_action",
                   "line_shift_action", "grid_shift_action",
                   "trivial_action"):
            self.function("builders", fn, pre=b_pre, post=b_post)

        # hyperplanes
        def arr_post(args, kwargs, res, state):
            add("hyperplanes.squares", len(args[0].squares))
            add("hyperplanes.classes", args[0].n_classes)
        self.method("hyperplanes", "Arrangement", "__init__",
                    name="hyperplanes.arrangement", post=arr_post)

        def side_pre(args, kwargs):
            self_, c, side = args
            return (c, side) in self_._side_cache

        def side_post(args, kwargs, res, hit):
            if not hit:
                add("hyperplanes.side_vertices_size", len(res))
        self.method("hyperplanes", "Arrangement", "side_vertices",
                    name="hyperplanes.side_vertices", pre=side_pre,
                    post=side_post)
        for fn in ("halfspace_leq", "halfspaces_disjoint",
                   "strongly_separated", "projection_pair", "facing_tuples",
                   "irreducible_decomposition", "hyperplane_report"):
            self.function("hyperplanes", fn)

        # sageev
        self.function("sageev", "build_dual", post=lambda a, k, r, s: add(
            "sageev.dual_vertices", r.n))
        for fn in ("roundtrip_check", "wallspace_of_graph",
                   "parse_wallspace"):
            self.function("sageev", fn)

        # action
        self.method("action", "PartialAction", "transport_halfspace",
                    name="action.transport", post=lambda a, k, r, s: add(
                        "action.transport_ok", r.ok))
        for m in ("apply", "digest", "validate"):
            self.method("action", "PartialAction", m, name=f"action.{m}")
        self._replace_function("action", "reduced_words", lambda f:
                               self.count_yields(f, "action.words_enumerated"))
        for fn in ("load_action", "load_quotient", "hyperplane_orbit",
                   "stabilizer_words", "find_flipping",
                   "find_double_skewer"):
            self.function("action", fn)

        # schottky
        for fn in ("build_quadruple", "pingpong_certify", "stable_certify",
                   "verify_certificate", "sigma_analysis",
                   "find_separated_translate", "elliptic_fixed_point"):
            self.function("schottky", fn)

        # schreier
        self.function("schreier", "build_schreier", post=lambda a, k, r, s:
                      add("schreier.nodes", r.n))
        self.function("schreier", "spectral_estimate",
                      post=lambda a, k, r, s: add("schreier.eigen_iters",
                                                  r.iterations))
        self.function("schreier", "free_action_cert",
                      post=lambda a, k, r, s: add("schreier.freecert_words",
                                                  r.words_checked))
        for fn in ("spectral_series", "schreier_to_text"):
            self.function("schreier", fn)

        # report
        self.function("report", "shape_report")

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def write(self, path):
        """Write every span and the name table as gzipped JSON."""
        doc = {"names": self.names,
               "fields": ["name", "parent", "op", "start", "end"],
               "spans": [list(r) for r in zip(
                   self.span_name, self.span_parent, self.span_op,
                   self.span_start, self.span_end)]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def totals(self, pass_ops: bool = True):
        """Self seconds, inclusive seconds and calls per span name, over
        the pass (op ids >= 1) or over the set-up (op id 0)."""
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (op, nid), v in self.self_s.items():
            if (op != SETUP_OP) == pass_ops:
                self_s[self.names[nid]] += v
                incl_s[self.names[nid]] += self.incl_s[(op, nid)]
                calls[self.names[nid]] += self.calls[(op, nid)]
        return self_s, incl_s, calls

    def outermost_seconds(self, prefix: str, op_filter) -> float:
        """Busy seconds of the outermost spans whose name starts with
        ``prefix`` (inclusive time, nested spans not double counted)."""
        total = 0.0
        pref = tuple(i for i, n in enumerate(self.names)
                     if n.startswith(prefix))
        for i in range(len(self.span_start)):
            nid = self.span_name[i]
            if nid not in pref or not op_filter(self.span_op[i]):
                continue
            p = self.span_parent[i]
            if p >= 0 and self.span_name[p] in pref:
                continue
            total += self.span_end[i] - self.span_start[i]
        return total


def per_layer_metrics(tr: Tracer, run_s: float, overhead_s: float,
                      process: dict) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced pass (builders: of the set-up).

    ``run_s`` is the traced pass's wall time; ``overhead_s`` its scaled
    time minus the untraced reference pass's."""
    self_s, incl_s, calls = tr.totals(pass_ops=True)
    c = tr.counters

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(n, 0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    def module_self(mod):
        return sum(v for k, v in self_s.items() if k.startswith(mod + "."))

    dist_calls = n("median.MedianGraph.dist_from")
    m = {
        "cli.run_s": s("cli.run"),
        "cli.cmds": n("cli.run"),
        "cli.exit1": c["cli.exit1"],
        "cli.exit3": c["cli.exit3"],
        "median.load_graph_s": s("median.load_graph"),
        "median.load_graph_lines": c["median.load_graph_lines"],
        "median.check_median_s": s("median.check_median"),
        "median.check_median_calls": n("median.check_median"),
        "median.graph_init_s": s("median.MedianGraph.__init__"),
        "median.bfs_calls": n("median.bfs_distances"),
        "median.bfs_s": s("median.bfs_distances"),
        "median.dist_from_calls": dist_calls,
        "median.dist_from_miss_ratio": ratio(c["median.dist_from_miss"],
                                             dist_calls),
        "median.digest_calls": n("median.MedianGraph.digest"),
        "median.digest_s": s("median.MedianGraph.digest"),
        "median.self_s": module_self("median"),
        "builders.s": tr.outermost_seconds(
            "builders.", lambda op: op == SETUP_OP),
        "builders.vertices": c["builders.vertices"],
        "hyperplanes.arrangement_s": s("hyperplanes.arrangement"),
        "hyperplanes.squares": c["hyperplanes.squares"],
        "hyperplanes.classes": c["hyperplanes.classes"],
        "hyperplanes.side_vertices_calls": n("hyperplanes.side_vertices"),
        "hyperplanes.side_vertices_s": s("hyperplanes.side_vertices"),
        "hyperplanes.side_vertices_size": c["hyperplanes.side_vertices_size"],
        "hyperplanes.relation_calls": n("hyperplanes.halfspace_leq",
                                        "hyperplanes.halfspaces_disjoint"),
        "hyperplanes.relation_s": s("hyperplanes.halfspace_leq",
                                    "hyperplanes.halfspaces_disjoint"),
        "hyperplanes.strongly_separated_calls":
            n("hyperplanes.strongly_separated"),
        "hyperplanes.projection_s": s("hyperplanes.projection_pair"),
        "hyperplanes.facing_tuples_s": s("hyperplanes.facing_tuples"),
        "hyperplanes.decomposition_s":
            s("hyperplanes.irreducible_decomposition"),
        "hyperplanes.self_s": module_self("hyperplanes"),
        "sageev.build_dual_s": s("sageev.build_dual"),
        "sageev.roundtrip_s": s("sageev.roundtrip_check"),
        "sageev.dual_vertices": c["sageev.dual_vertices"],
        "sageev.self_s": module_self("sageev"),
        "action.transport_calls": n("action.transport"),
        "action.transport_s": s("action.transport"),
        "action.transport_ok_ratio": ratio(c["action.transport_ok"],
                                           n("action.transport")),
        "action.words_enumerated": c["action.words_enumerated"],
        "action.search_s": s("action.hyperplane_orbit",
                             "action.stabilizer_words",
                             "action.find_flipping",
                             "action.find_double_skewer"),
        "action.apply_calls": n("action.apply"),
        "action.load_action_s": s("action.load_action"),
        "action.digest_s": s("action.digest"),
        "action.self_s": module_self("action"),
        "schottky.quadruple_s": s("schottky.build_quadruple"),
        "schottky.pingpong_s": s("schottky.pingpong_certify"),
        "schottky.stable_s": s("schottky.stable_certify"),
        "schottky.verify_s": s("schottky.verify_certificate"),
        "schottky.sigma_s": s("schottky.sigma_analysis"),
        "schottky.translate_s": s("schottky.find_separated_translate"),
        "schottky.elliptic_s": s("schottky.elliptic_fixed_point"),
        "schottky.self_s": module_self("schottky"),
        "schreier.build_s": s("schreier.build_schreier"),
        "schreier.nodes": c["schreier.nodes"],
        "schreier.eigen_s": s("schreier.spectral_estimate"),
        "schreier.eigen_iters": c["schreier.eigen_iters"],
        "schreier.freecert_s": s("schreier.free_action_cert"),
        "schreier.freecert_words": c["schreier.freecert_words"],
        "schreier.self_s": module_self("schreier"),
        "report.shape_report_s": s("report.shape_report"),
        "process.cpu_s": process["cpu_s"],
        "process.gc_s": process["gc_s"],
        "process.gc_collections": process["gc_collections"],
        "trace.overhead_s": overhead_s,
        "trace.coverage": ratio(sum(self_s.values()), run_s),
        "trace.spans": len(tr.span_start),
    }
    detail = {
        "self_s": dict(sorted(self_s.items())),
        "incl_s": dict(sorted(incl_s.items())),
        "calls": dict(sorted(calls.items())),
        "module_share_of_run_s": {
            mod: ratio(module_self(mod), run_s)
            for mod in ("cli", "median", "hyperplanes", "sageev", "action",
                        "schottky", "schreier", "report")},
        "absent": tr.absent,
    }
    return m, detail
