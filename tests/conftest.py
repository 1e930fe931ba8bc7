import pytest

_CRITERIA = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(name): acceptance criterion; one pass/fail line is "
        "printed per marked test")


def pytest_collection_modifyitems(items):
    for item in items:
        m = item.get_closest_marker("criterion")
        if m is not None:
            _CRITERIA[item.nodeid] = m.args[0]


def pytest_runtest_logreport(report):
    # emitted outside per-test capture so the line survives piping
    if report.when != "call":
        return
    name = _CRITERIA.get(report.nodeid)
    if name is not None:
        print(f"\n{name}: {'PASS' if report.passed else 'FAIL'}",
              end="", flush=True)


@pytest.fixture
def built_sides(monkeypatch):
    """Every (class, side) that ``Arrangement.side_vertices`` is asked for
    while the test runs, in call order: a test that builds no side leaves
    it empty."""
    from cubekit.hyperplanes import Arrangement
    calls, build = [], Arrangement.side_vertices

    def recording(arr, c, side):
        calls.append((c, side))
        return build(arr, c, side)

    monkeypatch.setattr(Arrangement, "side_vertices", recording)
    return calls
