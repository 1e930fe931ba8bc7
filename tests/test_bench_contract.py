"""Every cubekit name the benchmark tracer wraps must still exist, and every
workload must run correctly on its tiny fixtures, so a rename or a changed
graph attribute fails here in seconds rather than in cubebench/selftest.py
or a full benchmark run."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cubebench"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

from cubekit import builders  # noqa: E402
from cubekit.hyperplanes import arrangement  # noqa: E402


def test_tracer_finds_every_wrapped_name():
    tr = Tracer()
    tr.install()
    try:
        assert tr.absent == {}
        a = builders.free_group_action(2)
        hs = arrangement(a.graph).halfspace(0, 1)
        assert a.transport_halfspace(("a",), hs).ok
        _, _, calls = tr.totals(pass_ops=False)
        assert calls["action.transport"] == 1
    finally:
        tr.uninstall()


BENCH_ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads(
    (BENCH_ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_benchmark_run_is_correct(workload):
    """Each workload on its tiny fixtures, untraced: every operation, oracle
    and graph attribute the benchmark reads still works."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--small", "--seconds", "0",
                         "--trace", "0"])
    res = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0 and res["correct"] and res["failed"] == 0


def test_small_traced_cli_run_counts_sides():
    """cli-files on its tiny fixtures, traced: every wrapped name is found,
    every operation succeeds, and the roundtrip's sides are counted, so a
    change that breaks a name or a hook the tracer reads fails here."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "cli-files", "--small", "--seconds",
                         "0", "--trace", "1"])
    res = json.loads(out.getvalue().strip().splitlines()[-1])
    record = json.loads((run.OUT / "results" /
                         "cli-files-seed0-small-trace1.json").read_text())
    assert code == 0 and res["failed"] == 0
    assert record["layers"]["absent"] == {}
    assert res["metrics"]["hyperplanes.side_vertices_calls"]["value"] > 0
