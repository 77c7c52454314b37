"""Worst-case inputs: each CLI input bound run at its limit.

Each case runs ``python -m galaxyck`` in a child Python that first caps its
own CPU time at 10 s and its address space at 1 GiB.  A case must end with
its exit code (0, 1 or 2, never 3) and no traceback; a child that exceeds a
cap is killed by a signal or fails with ``MemoryError``, and so fails here.
"""

import json
import subprocess
import sys

import pytest

from galaxyck.cli import MAX_FILE_BYTES
from helpers import CASES, GOLDEN, subprocess_env

# Sets the caps, then runs galaxyck as ``-m`` would, with the same argv.
LIMITED_MAIN = (
    "import resource, runpy\n"
    "resource.setrlimit(resource.RLIMIT_CPU, (10, 10))\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "runpy.run_module('galaxyck', run_name='__main__', alter_sys=True)\n"
)

# The largest legal count texts: 1000 characters, the cap in galaxyck.cli.
FINITE = "9" * 1000
HUGE = "9" * 498 + "*w-" + "9" * 499
DEEP = 100_000  # nesting of the JSON array given as a model file
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def run_limited(argv, cwd):
    result = subprocess.run(
        [sys.executable, "-c", LIMITED_MAIN, *argv],
        capture_output=True,
        cwd=cwd,
        env=subprocess_env(),
    )
    assert b"Traceback" not in result.stderr, result.stderr.decode()
    return result


@pytest.mark.parametrize(
    "code,argv",
    [
        pytest.param(
            0,
            ["sorites", "demo", "--alpha", FINITE, "--probes", f"{FINITE},{HUGE}"],
            id="sorites-finite-alpha",
        ),
        pytest.param(
            0, ["sorites", "demo", "--alpha", HUGE, "--probes", HUGE], id="sorites-huge-alpha"
        ),
        pytest.param(0, ["emailgame", "monotone", "--samples", f"{FINITE},{HUGE}"], id="monotone"),
        pytest.param(1, ["emailgame", "ast-ck", "--t", FINITE], id="ast-ck-finite"),
        pytest.param(0, ["emailgame", "ast-ck", "--t", HUGE], id="ast-ck-huge"),
        pytest.param(
            0, ["emailgame", "equilibrium", "--huge-samples", HUGE], id="equilibrium-huge"
        ),
        pytest.param(
            0,
            ["emailgame", "equilibrium", "--finite-samples", "300000", "--huge-samples", "w+0"],
            id="equilibrium-large-finite",
        ),
        pytest.param(
            0,
            ["emailgame", "equilibrium", "--huge-samples", ",".join(["w+0"] * 10_000)],
            id="equilibrium-longest-huge-list",
        ),
        pytest.param(0, ["emailgame", "impossibility", "--T", "1000"], id="impossibility-max-T"),
    ],
)
def test_longest_counts(code, argv, tmp_path):
    assert len(FINITE) == len(HUGE) == 1000
    assert run_limited(argv, tmp_path).returncode == code


def test_deepest_json_model_is_a_usage_error(tmp_path):
    (tmp_path / "deep.json").write_text("[" * DEEP + "]" * DEEP, encoding="ascii")
    argv = ["model", "check", "--file", "deep.json", "--event", "E", "--state", "x"]
    result = run_limited(argv, tmp_path)
    assert result.returncode == 2
    assert result.stderr.decode().startswith("error: deep.json: invalid JSON:")


def _base36(i):
    name = DIGITS[i % 36]
    while i >= 36:
        i //= 36
        name = DIGITS[i % 36] + name
    return name


def _pairs(names):
    return [names[i : i + 2] for i in range(0, len(names), 2)]


def test_model_just_under_the_file_cap(tmp_path):
    # 560 000 states named in base 36, two agents whose cells of two chain
    # them all together, and E = every other state: E is not common
    # knowledge at state 0, so the check fails with exit 1.
    names = [_base36(i) for i in range(560_000)]
    doc = {
        "states": names,
        "agents": [
            {"name": "a", "partition": _pairs(names)},
            {"name": "b", "partition": [names[:1]] + _pairs(names[1:])},
        ],
        "events": {"E": names[::2]},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    del names, doc  # not held while the child runs
    assert MAX_FILE_BYTES - (1 << 20) < path.stat().st_size <= MAX_FILE_BYTES
    argv = ["model", "check", "--file", path.name, "--event", "E", "--state", "0"]
    assert run_limited(argv, tmp_path).returncode == 1


def test_unencodable_state_name_in_text_mode():
    assert run_limited(CASES["model-lone-surrogate-text"]["argv"], GOLDEN).returncode == 0
