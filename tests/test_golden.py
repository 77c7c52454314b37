"""Golden reports: the exact stdout bytes and exit code of every CLI subcommand.

``golden/cases.json`` maps each case name to its argv and expected exit code;
``golden/<name>.out`` holds the exact stdout bytes.  Every case runs from the
``golden`` directory, so a model file is named by the same relative path the
report echoes back.  A change to any golden file changes what users see and
needs a CHANGES.md entry saying why.

Re-record after an intended report change with ``python tests/test_golden.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_case(argv):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "galaxyck", *argv], capture_output=True, cwd=GOLDEN, env=env
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    case = CASES[name]
    result = run_case(case["argv"])
    assert result.returncode == case["exit"], result.stderr.decode()
    assert result.stdout == (GOLDEN / f"{name}.out").read_bytes()


def record() -> None:
    for name, case in CASES.items():
        result = run_case(case["argv"])
        case["exit"] = result.returncode
        (GOLDEN / f"{name}.out").write_bytes(result.stdout)
    with open(GOLDEN / "cases.json", "w", encoding="utf-8") as handle:
        handle.write("{\n")
        lines = [f"  {json.dumps(name)}: {json.dumps(case)}" for name, case in CASES.items()]
        handle.write(",\n".join(lines))
        handle.write("\n}\n")


if __name__ == "__main__":
    record()
