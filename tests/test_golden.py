"""Golden reports: the exact stdout bytes and exit code of every CLI subcommand.

``golden/cases.json`` maps each case name to its argv and expected exit code;
``golden/<name>.out`` holds the exact stdout bytes.  Every case runs from the
``golden`` directory, so a model file is named by the same relative path the
report echoes back.  A change to any golden file changes what users see and
needs a CHANGES.md entry saying why.

Re-record after an intended report change with ``python tests/test_golden.py``.
"""

import json
import sys

import pytest

from helpers import CASES, GOLDEN, SRC, run_cli


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    case = CASES[name]
    result = run_cli(case["argv"], cwd=GOLDEN)
    assert result.code == case["exit"], result.stderr
    assert result.stdout.encode() == (GOLDEN / f"{name}.out").read_bytes()


def record() -> None:
    for name, case in CASES.items():
        result = run_cli(case["argv"], cwd=GOLDEN)
        case["exit"] = result.code
        (GOLDEN / f"{name}.out").write_bytes(result.stdout.encode())
    with open(GOLDEN / "cases.json", "w", encoding="utf-8") as handle:
        handle.write("{\n")
        lines = [f"  {json.dumps(name)}: {json.dumps(case)}" for name, case in CASES.items()]
        handle.write(",\n".join(lines))
        handle.write("\n}\n")


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    record()
