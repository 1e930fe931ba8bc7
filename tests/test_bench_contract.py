"""Every cubekit name the benchmark tracer wraps must still exist, so a
rename fails here in seconds rather than in cubebench/selftest.py."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cubebench"))

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
