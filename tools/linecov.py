"""Line coverage of ``src/galaxyck`` from the standard library.

Runs the Tier-1 suite inside this process under ``sys.monitoring``
(Python 3.12 and later; below it the tool exits 2) and lists every
executable line of ``src/galaxyck`` that no test reached, as
``path:line: source``.  The executable lines are those the compiler maps
bytecode to, in the module and every code object nested in it.  Only code
of ``src/galaxyck`` gets line events, so the rest of the suite runs
unmonitored; child processes are not followed.

An unreached line listed in ``ALLOWED`` with its reason is accepted, as
``tools/mutants.py`` accepts its equivalent mutants; any other makes the
tool exit 1.  A listed entry that the suite now reaches also exits 1, so
the list never outlives its reason.  A failing suite exits with pytest's code
and lists nothing.

    python tools/linecov.py                 # the whole suite
    python tools/linecov.py tests/test_cli.py -k model   # pytest arguments
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "galaxyck"

# Unreached lines that are accepted, with the reason no in-process test
# reaches them: a file name in src/galaxyck for the whole file, or
# "<file>: <line as written, stripped>" for each line that reads so.
ALLOWED = {
    "__main__.py": "runs only as `python -m galaxyck`, in child processes that are not monitored",
    "cli.py: sys.exit(main())": "runs only when cli.py is run as a script, in a child process",
}


def executable_lines(path: Path) -> set:
    """The lines of a source file that some bytecode of it maps to."""
    todo = [compile(path.read_bytes(), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def run_suite(pytest_args: list) -> tuple:
    """pytest's exit code and the reached lines by resolved file path.

    The first start of each code object turns on line events for it when
    it belongs to the package, and for no other code; each line event
    records its line and turns itself off.  So every line costs at most one
    callback, and the rest of the suite runs unmonitored."""
    import pytest  # imported before monitoring starts: no code of it is ours

    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    prefix = str(PACKAGE) + os.sep
    reached: dict = {}  # file name -> lines reached

    def start(code, offset):
        if code.co_filename.startswith(prefix):
            mon.set_local_events(tool, code, mon.events.LINE)
        return mon.DISABLE

    def line(code, lineno):
        reached.setdefault(code.co_filename, set()).add(lineno)
        return mon.DISABLE

    mon.use_tool_id(tool, "linecov")
    mon.register_callback(tool, mon.events.PY_START, start)
    mon.register_callback(tool, mon.events.LINE, line)
    mon.set_events(tool, mon.events.PY_START)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    by_path: dict = {}
    for filename, lines in reached.items():
        by_path.setdefault(Path(filename).resolve(), set()).update(lines)
    return code, by_path


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if sys.version_info < (3, 12):
        print("linecov: needs sys.monitoring, which Python 3.12 added", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    code, reached = run_suite(args)
    if code != 0:
        print(f"linecov: the suite failed (exit {int(code)}); no coverage listed", file=sys.stderr)
        return int(code)
    unlisted, used, total = [], set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(lines - reached.get(path.resolve(), set())):
            text = source[line - 1].strip()
            key = path.name if path.name in ALLOWED else f"{path.name}: {text}"
            if key in ALLOWED:
                used.add(key)
            else:
                unlisted.append(f"src/galaxyck/{path.name}:{line}: {text}")
    stale = sorted(ALLOWED.keys() - used)
    print(f"linecov: {total} executable lines in src/galaxyck, {len(unlisted)} unreached and unlisted")
    for entry in unlisted:
        print(entry)
    for key in stale:
        print(f"linecov: {key} is reached now; take it out of ALLOWED")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
