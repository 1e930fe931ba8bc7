#!/usr/bin/env python3
"""Self-test of the benchmark on tiny fixtures.

    python3 cubebench/selftest.py

Runs every workload untraced and traced on its tiny configuration (small
F2 balls, a 9x9 grid, a shortened CLI list) and checks that:

- every operation succeeds (``failed`` is 0) in both modes;
- the untraced metrics are exactly BENCHMARK.json's end-to-end metrics and
  the traced ones exactly its per-layer metrics, with matching units;
- every per-layer metric is nonzero on at least one workload, so a renamed
  cubekit function fails here instead of silently dropping a layer;
- the traced self times cover at least 95 % of each traced pass.
"""

import contextlib
import io
import json
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def result(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1",
                         "--seconds", "0", "--trace", str(trace),
                         "--small"])
    if code != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    problems = []
    nonzero = set()
    units = {m["name"]: m["unit"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for wl in (w["name"] for w in SPEC["workloads"]):
        for trace, spec_key in ((0, "end_to_end"), (1, "per_layer")):
            res = result(wl, trace)
            label = f"{wl} trace={trace}"
            if not res["correct"] or res["failed"]:
                problems.append(f"{label}: {res['failed']} of "
                                f"{res['attempted']} operations failed")
            want = {m["name"] for m in SPEC[spec_key]}
            got = set(res["metrics"])
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json"
                                f" (missing {sorted(want - got)}, extra "
                                f"{sorted(got - want)})")
            for name, m in res["metrics"].items():
                if units.get(name) != m["unit"]:
                    problems.append(f"{label}: {name} has unit {m['unit']}")
                if m["value"]:
                    nonzero.add(name)
            coverage = res["metrics"].get("trace.coverage", {}).get("value")
            if trace and (coverage or 0) < 0.95:
                problems.append(f"{label}: self times cover only "
                                f"{coverage} of run_s")
            print(f"{label}: {res['attempted']} operations, "
                  f"{res['failed']} failed", flush=True)
    for m in SPEC["per_layer"]:
        if m["name"] not in nonzero:
            problems.append(f"per-layer metric {m['name']} is 0 on every "
                            "workload")
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: PASS" if not problems else "selftest: FAIL")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
