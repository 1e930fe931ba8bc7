#!/usr/bin/env python3
"""Snapshot the cubekit benchmark into one committed JSON file.

    python3 tools/bench_snapshot.py --label NAME [--root CHECKOUT]

For every workload declared in ``BENCHMARK.json`` this runs
``python3 cubebench/run.py --workload W --seed S --seconds SEC --trace 0``
for seeds 1-6, then once with ``--seed 0 --trace 1``, all from the root of
``CHECKOUT`` (default: the checkout holding this script), one process at a
time; SEC is the benchmark's ``run_seconds``.  It writes
``BENCH_<label>.json`` at the root of this script's checkout, so a parent
commit checked out elsewhere is measured by the same script.  The file
holds the measured checkout's git ids (see :func:`git_ids`), the median
and quartiles of every end-to-end metric per workload, each run's values,
and the per-layer metrics of the traced seed-0 run.  Standard library
only; ``cubebench/`` is run, never imported.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEEDS = range(1, 7)


def git_ids(root: Path) -> dict:
    """The checkout's commit, the tree id of its ``src`` directory (which
    names the code measured even after commits that touch only other
    files), and whether ``src`` has uncommitted changes."""
    def git(*args):
        res = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True)
        return res.stdout.strip() if res.returncode == 0 else None

    try:
        return {"git_sha": git("rev-parse", "HEAD") or "unknown",
                "src_tree": git("rev-parse", "HEAD:src") or "unknown",
                "src_dirty": bool(git("status", "--porcelain", "--", "src"))}
    except OSError:
        return {"git_sha": "unknown (no git)", "src_tree": "unknown",
                "src_dirty": None}


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark process; its last stdout line parsed, plus wall time."""
    cmd = [sys.executable, "cubebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit(f"bench_snapshot: {' '.join(cmd)} exited "
                         f"{res.returncode}\n{res.stderr[-2000:]}")
    out = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    return {"seed": seed, "correct": out["correct"],
            "attempted": out["attempted"], "failed": out["failed"],
            "process_wall_s": round(wall, 2), "metrics": metrics}


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--root", type=Path, default=HERE,
                    help="checkout to benchmark (default: this one)")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    ids = git_ids(root)

    workloads = {}
    for w in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            r = run_once(root, w, seed, seconds, 0)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={r['metrics'][k]:.4g}" for k in end_to_end)
                + f" correct={r['correct']}", file=sys.stderr, flush=True)
            runs.append(r)
        traced = run_once(root, w, 0, seconds, 1)
        print(f"{w} seed 0 traced: correct={traced['correct']} "
              f"failed={traced['failed']}", file=sys.stderr, flush=True)
        workloads[w] = {
            "end_to_end": {k: summary([r["metrics"][k] for r in runs])
                           for k in end_to_end},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "runs": runs,
            "trace_seed0": traced,
        }

    doc = {"label": args.label, **ids,
           "command": spec["command"], "seconds": seconds,
           "seeds": list(SEEDS),
           "host": {"python": platform.python_version(),
                    "platform": platform.platform(),
                    "nproc": os.cpu_count()},
           "workloads": workloads}
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
