#!/usr/bin/env python3
"""cubekit benchmark.

    python3 cubebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cubekit is imported from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer metrics of a separate traced pass.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record (provenance, per-operation times and output
digests, failures) goes to ``.cubebench/results/``.  See
``cubebench/README.md``.
"""

import os

# One caller on one core: numeric thread pools are capped before numpy
# loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".cubebench"
GOLDEN = BENCH / "golden.json"


def import_cubekit():
    """Import cubekit from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cubekit" / "__init__.py").is_file():
        sys.exit(f"cubebench: no cubekit sources under {src}")
    sys.path.insert(0, str(src))
    import cubekit
    if Path(cubekit.__file__).resolve().parent != src / "cubekit":
        sys.exit(f"cubebench: imported cubekit from {cubekit.__file__}, "
                 f"not from {src}")
    return cubekit


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(), "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "platform": platform.platform()}


class GcClock:
    """Collector pauses, from ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def set_up(wl, seed, small, work, cal, tracer=None):
    """Build the fixture and its operation list; returns the wall and
    the scaled seconds."""
    if tracer is not None:
        tracer.op = 0
    before = cal.sample()
    t0 = time.perf_counter()
    fx = wl.setup(seed, small, work)
    ops = wl.ops(fx, small)
    wall = time.perf_counter() - t0
    return fx, ops, wall, cal.scale(wall, (before + cal.sample()) / 2)


def run_pass(W, ops, cal, tracer=None):
    """Run the operation list once; only the calls themselves are timed,
    and the calibration kernel runs between them."""
    cli = W.M.cli
    results = {}
    before = cal.sample()
    for i, op in enumerate(ops, start=1):
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        value, error = None, ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                value = cli.run(op.argv) if op.argv else op.call()
            except Exception:
                error = traceback.format_exc(limit=-3)
            seconds = time.perf_counter() - t0
        after = cal.sample()
        kernel_s = (before + after) / 2
        scaled = cal.scale(seconds, kernel_s)
        before = after
        outcome, text = None, ""
        if not error:
            try:
                if op.argv:
                    outcome, value = value, out.getvalue()
                    text = f"exit {outcome}\n{value}"
                    if op.save_stdout is not None:
                        op.save_stdout.write_text(value)
                else:
                    outcome = op.kind(value)
                    text = f"{outcome}\n{op.render(value)}"
            except Exception:
                error = traceback.format_exc(limit=-3)
        if not error and outcome != op.expect:
            error = (f"expected {op.expect!r}, got {outcome!r}; stderr: "
                     f"{err.getvalue().strip()[:300]}")
        results[op.name] = W.OpResult(op.name, seconds, scaled, kernel_s,
                                      outcome, W.sha(text), value, error)
    return (results, sum(r.seconds for r in results.values()),
            sum(r.scaled for r in results.values()))


def oracles(wl, fx, results):
    """Output checks after a pass; ops that already failed are skipped."""
    if any(r.failed for r in results.values()):
        return []
    try:
        return wl.oracles(fx, results)
    except Exception:
        return [f"oracles: {traceback.format_exc(limit=-3)}"]


def digests_of(results):
    return {name: r.digest for name, r in results.items()}


def check_digests(digests, reference, label):
    return [f"{name}: digest differs from {label}"
            for name, d in digests.items()
            if name in reference and d != reference[name]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny fixtures, for the self-test")
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's output digests as golden")
    args = ap.parse_args(argv)

    import_cubekit()
    import workloads as W
    from calib import NOMINAL_S, Calibrator
    if args.workload not in W.WORKLOADS:
        sys.exit(f"cubebench: unknown workload {args.workload!r}; choose "
                 f"from {', '.join(W.WORKLOADS)}")
    wl = W.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}" + ("-small" if args.small
                                                 else "")
    work = OUT / f"work-{tag}-{os.getpid()}"
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden_key = f"{args.workload}/{args.seed}"
    cal = Calibrator()
    try:
        if args.trace:
            record = traced_run(W, wl, args, work, cal, results_dir / tag)
        else:
            record = untraced_run(W, wl, args, work, cal)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = record["failures"]
    digests = record["digests"]
    if args.write_golden:
        golden[golden_key] = digests
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                          + "\n")
    elif golden_key in golden and not args.small:
        failures += check_digests(digests, golden[golden_key],
                                  "the golden digest")
    failed_ops = {f.split(":")[0] for f in failures}
    attempted = record["attempted"]
    failed = min(attempted, len(failed_ops))
    for f in failures:
        print(f"cubebench: FAILED {f}", file=sys.stderr)
    record["calibration_s"] = {
        "nominal": NOMINAL_S, "samples": len(cal.samples),
        "median": statistics.median(cal.samples),
        "min": min(cal.samples), "max": max(cal.samples)}
    record.update({"provenance": provenance(args.seed),
                   "workload": args.workload, "trace": args.trace,
                   "small": args.small, "attempted": attempted,
                   "failed": failed, "fail_frac": failed / attempted,
                   "failures": failures})
    out_path = results_dir / f"{tag}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(W, wl, args, work, cal):
    """Passes on fresh fixtures until ``--seconds`` of pass wall time is
    measured; medians of the scaled set-up and pass times."""
    setups, setups_wall, passes, passes_wall, per_op = [], [], [], [], []
    failures, reference = [], None
    attempted = 0
    sizes = {}
    while True:
        fx, ops, wall, scaled = set_up(wl, args.seed, args.small, work, cal)
        setups_wall.append(wall)
        setups.append(scaled)
        results, wall, scaled = run_pass(W, ops, cal)
        passes_wall.append(wall)
        passes.append(scaled)
        attempted += len(results)
        failures += [f"{n}: {r.error}" for n, r in results.items()
                     if r.error]
        per_op.append({n: [r.seconds, r.kernel_s]
                       for n, r in results.items()})
        if reference is None:
            sizes = fx.sizes
            reference = digests_of(results)
            failures += oracles(wl, fx, results)
        else:
            failures += check_digests(digests_of(results), reference,
                                      "the first pass")
        del fx, ops, results
        gc.collect()
        if sum(passes_wall) >= args.seconds:
            break
    while len(setups) < wl.min_setups:
        fx, ops, wall, scaled = set_up(wl, args.seed, args.small, work, cal)
        setups_wall.append(wall)
        setups.append(scaled)
        del fx, ops
        gc.collect()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"sizes": sizes, "setup_s": setups, "setup_wall_s": setups_wall,
            "run_s": passes, "run_wall_s": passes_wall,
            "op_wall_and_kernel_s": per_op, "digests": reference,
            "attempted": attempted, "failures": failures,
            "metrics": {"setup_s": metric(statistics.median(setups), "s"),
                        "run_s": metric(statistics.median(passes), "s"),
                        "peak_rss_mb": metric(rss_mb, "MiB")}}


def traced_run(W, wl, args, work, cal, stem):
    """An untraced reference pass, then a traced set-up and pass on a fresh
    fixture.  Outputs of the two passes must match byte for byte."""
    from tracer import Tracer, per_layer_metrics
    fx, ops, _, _ = set_up(wl, args.seed, args.small, work, cal)
    with GcClock() as gcc:
        cpu0 = time.process_time()
        ref, ref_wall, ref_scaled = run_pass(W, ops, cal)
        cpu_s = time.process_time() - cpu0
    process = {"cpu_s": cpu_s, "gc_s": gcc.seconds,
               "gc_collections": gcc.collections}
    del fx, ops
    gc.collect()

    tr = Tracer()
    tr.install()
    try:
        fx, ops, _, _ = set_up(wl, args.seed, args.small, work, cal,
                               tracer=tr)
        results, wall, scaled = run_pass(W, ops, cal, tracer=tr)
    finally:
        tr.uninstall()
    failures = [f"{n}: {r.error}" for n, r in list(ref.items())
                + list(results.items()) if r.error]
    reference = digests_of(ref)
    failures += check_digests(digests_of(results), reference,
                              "the untraced pass")
    failures += oracles(wl, fx, results)
    layer, detail = per_layer_metrics(tr, wall, scaled - ref_scaled, process)
    spans_path = Path(f"{stem}-spans.json.gz")
    tr.write(spans_path)
    units = {"_s": "s", ".s": "s", "_ratio": "ratio", "coverage": "ratio"}
    metrics = {}
    for name, value in layer.items():
        unit = next((u for suf, u in units.items() if name.endswith(suf)),
                    "count")
        metrics[name] = metric(value, unit)
    return {"sizes": fx.sizes, "run_wall_s": wall, "run_s": scaled,
            "untraced_run_wall_s": ref_wall, "untraced_run_s": ref_scaled,
            "op_seconds_wall": {n: r.seconds for n, r in results.items()},
            "untraced_op_seconds_wall": {n: r.seconds
                                         for n, r in ref.items()},
            "digests": reference, "attempted": len(ref) + len(results),
            "failures": failures, "layers": detail,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
