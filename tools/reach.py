#!/usr/bin/env python3
"""List the statements of ``src/cubekit`` that the tier-1 tests never reach.

    python3 tools/reach.py [PYTEST_ARGS...]

Runs the tier-1 suite in this process under ``sys.settrace``, recording
line events only in frames whose code lives in ``src/cubekit``, and then
prints every statement no test reached as ``file:line  source``, followed
by one count line.  A compound statement (``if``, ``for``, ``def``, ...)
counts as reached when any line of its header runs; a simple statement
when any of its lines runs.  Extra arguments go to pytest (for example a
test path, to ask what one file reaches).

The sources are parsed before the run.  If one of them changes during the
run, or the trace hook is no longer this tool's when the run ends (a test
replaced or cleared it), the listing cannot be trusted: the tool says so
on stderr and exits 1 unless pytest's exit code is already nonzero.
Otherwise the exit code is pytest's.

Tests that run the CLI in a subprocess (``test_determinism`` in
``tests/test_acceptance.py``) are not traced, so the lines only they reach
are listed too.  Tracing slows the suite several-fold: a full run takes
minutes (about 2 min on a 2-vCPU VM, against 35 s untraced).  Standard
library only, apart from the pytest it runs.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cubekit"


def statements(path: Path, text: str) -> dict[int, range]:
    """First line -> the lines whose execution marks the statement reached,
    for every statement except docstrings."""
    out = {}
    for node in ast.walk(ast.parse(text, str(path))):
        if not isinstance(node, ast.stmt):
            continue
        value = getattr(node, "value", None)
        if isinstance(node, ast.Expr) and isinstance(value, ast.Constant) \
                and isinstance(value.value, str):
            continue                       # a docstring runs no line
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body and body[0].lineno > node.lineno \
            else node.end_lineno
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        out[node.lineno] = range(first, max(end, node.lineno) + 1)
    return out


def main(argv: list[str]) -> int:
    import pytest

    src = str(SRC)
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    spans = {path: statements(path, text) for path, text in sources.items()}
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        fn = frame.f_code.co_filename
        if not fn.startswith(src):
            return None
        hits.setdefault(fn, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    # the CLI subprocesses of test_determinism import the same checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    sys.settrace(global_trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            *(argv or [str(ROOT / "tests")])])
    finally:
        hook_lost = sys.gettrace() is not global_trace
        sys.settrace(None)

    missed = total = 0
    for path, text in sources.items():
        seen = hits.get(str(path), set())
        lines = text.splitlines()
        for lineno, span in sorted(spans[path].items()):
            total += 1
            if seen.isdisjoint(span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{lineno}  "
                      f"{lines[lineno - 1].strip()}")
    print(f"{missed} of {total} statements in src/cubekit not reached")
    untrusted = [f"{path.relative_to(ROOT)} changed during the run"
                 for path, text in sources.items()
                 if not path.is_file() or path.read_text() != text]
    if hook_lost:
        untrusted.append("the trace hook was replaced during the run, so "
                         "statements run after that are listed as unreached")
    for why in untrusted:
        print(f"reach: listing not trusted: {why}", file=sys.stderr)
    return int(code) or int(bool(untrusted))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
