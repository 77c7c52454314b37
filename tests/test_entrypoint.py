"""``python -m galaxyck`` as a process: exit status, stdout bytes and stderr.

Every other CLI test calls ``galaxyck.cli.main`` in the pytest process
(``helpers.run_cli``).  These start a child Python, because what they test is
the process itself: the ``__main__`` module, the exit status that
``sys.exit`` hands the shell, and reports that do not depend on the hash seed.
"""

import errno
import json
import os
import subprocess
import sys

import pytest

from helpers import CASES, GOLDEN, subprocess_env


def run_module(name, **env):
    """Run golden case ``name`` as ``python -m galaxyck`` from ``golden/`` at
    the goldens' width of 80 columns; require its golden exit code and stdout
    bytes."""
    result = subprocess.run(
        [sys.executable, "-m", "galaxyck", *CASES[name]["argv"]],
        capture_output=True,
        cwd=GOLDEN,
        env=subprocess_env(COLUMNS="80", **env),
    )
    assert result.returncode == CASES[name]["exit"], result.stderr.decode()
    assert result.stdout == (GOLDEN / f"{name}.out").read_bytes()
    return result


@pytest.mark.parametrize(
    "code,name,last_stderr_line",
    [
        (0, "impossibility-T5", []),
        (1, "model-classical-fail", []),
        (
            2,
            "usage-missing-subcommand",
            [b"galaxyck emailgame: error: the following arguments are required: subcommand"],
        ),
        # A real stdout encodes strictly: a lone surrogate must reach it escaped.
        (0, "model-lone-surrogate-text", []),
    ],
    ids=["exit0", "exit1", "exit2", "unencodable-state-name"],
)
def test_exit_status_stdout_and_stderr(code, name, last_stderr_line):
    assert CASES[name]["exit"] == code
    # The usage line above argparse's error wraps with the terminal width.
    assert run_module(name).stderr.splitlines()[-1:] == last_stderr_line


def test_reports_are_deterministic():
    # String hashes, and so set and dict orders, differ between the seeds.
    for name in ("equilibrium-default", "model-classical-pass"):
        for seed in ("1", "2"):
            assert json.loads(run_module(name, PYTHONHASHSEED=seed).stdout)  # round-trips


def cannot_write(code):
    """The stderr of a report that could not be written, for an errno."""
    return f"error: cannot write the report: {OSError(code, os.strerror(code))}\n".encode()


def test_a_closed_stdout_exits_three_with_one_line():
    # About 1.5 MB of report, more than a pipe holds: the child is still
    # writing when the reader closes its end after the first line.
    probes = ",".join(map(str, range(10_000)))
    child = subprocess.Popen(
        [sys.executable, "-m", "galaxyck", "sorites", "demo", "--probes", probes],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=subprocess_env(),
    )
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    assert child.wait(timeout=60) == 3  # stderr is one short line: no pipe fills
    assert child.stderr.read() == cannot_write(errno.EPIPE)
    child.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_full_device_exits_three_with_one_line():
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "galaxyck", "emailgame", "impossibility", "--T", "5"],
            stdout=full,
            stderr=subprocess.PIPE,
            env=subprocess_env(),
            timeout=60,
        )
    assert result.returncode == 3
    assert result.stderr == cannot_write(errno.ENOSPC)
