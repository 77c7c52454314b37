"""Line coverage of ``src/galaxyck`` from the standard library.

Runs the Tier-1 suite inside this process under ``sys.settrace`` and lists
every executable line of ``src/galaxyck`` that no test reached, as
``path:line: source``.  The executable lines are those the compiler maps
bytecode to, in the module and every code object nested in it.  The tracer
follows only frames of ``src/galaxyck``, so the rest of the suite runs
untraced; child processes are not followed.

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
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "galaxyck"
IDLE_EVENTS = 100_000  # line events of one code object, in one test, with no new line

# Unreached lines that are accepted, with the reason no in-process test
# reaches them: a file name in src/galaxyck for the whole file, or
# "<file>: <line as written, stripped>" for each line that reads so.
ALLOWED = {
    "__main__.py": "runs only as `python -m galaxyck`, in child processes the tracer does not follow",
    "cli.py: sys.exit(main())": "runs only when cli.py is run as a script, in a child process",
}


def _code_lines(code: types.CodeType) -> set:
    """The lines that a code object's own bytecode maps to."""
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path: Path) -> set:
    """The lines of a source file that some bytecode of it maps to."""
    todo = [compile(path.read_bytes(), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines |= _code_lines(code)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def run_suite(pytest_args: list) -> tuple:
    """pytest's exit code and the reached lines by resolved file path.

    Each code object of the package is traced line by line until every
    line of it has been reached; from then on its frames run untraced.  A
    code object whose frames run ``IDLE_EVENTS`` line events without
    reaching a new line runs untraced until the next test starts, so a hot
    loop or a hot method with an error branch costs at most that many trace
    calls per test.  Either way a line can only be missed, never counted
    reached when it was not."""
    import pytest  # imported before tracing starts: no frame of it is ours

    prefix = str(PACKAGE) + os.sep
    # id(code) -> [lines still unreached or None, lines reached, idle events]
    # for the package's code, None for any other code; ``keep`` holds each
    # code object, so no other code ever takes its id.
    codes: dict = {}
    keep: list = []
    reached: list = []  # (file name, entry) per traced code object

    def trace(frame, event, arg):
        code = frame.f_code
        try:
            entry = codes[id(code)]
        except KeyError:
            entry = None
            if code.co_filename.startswith(prefix):
                entry = [_code_lines(code), set(), 0]
                reached.append((code.co_filename, entry))
            codes[id(code)] = entry
            keep.append(code)
        if entry is None or not entry[0] or entry[2] >= IDLE_EVENTS:
            return None
        todo, done = entry[0], entry[1]

        def line(frame, event, arg):
            lineno = frame.f_lineno
            if lineno not in todo:
                entry[2] += 1
                return None if entry[2] >= IDLE_EVENTS else line
            entry[2] = 0
            todo.discard(lineno)
            done.add(lineno)
            if todo:
                return line
            entry[0] = None  # every line reached: no frame of it is traced again
            return None

        return line(frame, event, arg)

    class Wake:
        """Traces every idle code object again at the start of each test."""

        @staticmethod
        def pytest_runtest_setup(item):
            for _, entry in reached:
                entry[2] = 0

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[Wake()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict = {}
    for filename, entry in reached:
        by_path.setdefault(Path(filename).resolve(), set()).update(entry[1])
    return code, by_path


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
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
