"""Self-test of the benchmark's gates at tiny sizes.

    python3 perfbench/selftest.py                  # run the self-test
    python3 perfbench/selftest.py --write-digests  # re-record digests.json

For every workload it checks that:

* the tiny reference round at the default seed passes its oracles and
  matches the stored report digests, and tiny rounds at other seeds pass
  their oracles;
* a deliberately flipped verdict (``CheckReport.passed`` negated) fails the
  oracles, with the digests out of play;
* a one-byte change in each report (a space of the indentation turned into
  a tab, which leaves the parsed JSON the same) passes the oracles but fails
  the digests.

Exits 0 when every expectation holds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import workloads
from oracles import Oracles
from worker import DIGESTS, ROOT, WORK, Executor, Loop, load_digests

EXTRA_SEEDS = (1, 2, 3)


def one_byte(out: bytes) -> bytes:
    return out.replace(b" ", b"\t", 1)


def selftest() -> list:
    from galaxyck.reports import CheckReport

    problems = []

    def expect(ok: bool, what: str, loop: Loop) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)
            for line in loop.failures[:5]:
                print(f"       {line}")

    for workload in workloads.WORKLOADS:
        loop = Loop(workload, Oracles())
        attempted, failed, _ = loop.reference(load_digests(workload))
        expect(failed == 0, f"{workload}: {attempted} reference checks pass oracles and digests", loop)
        for seed in EXTRA_SEEDS:
            loop = Loop(workload, Oracles())
            items = Executor(workload, seed, tiny=True).round(0)
            bad = sum(not loop.run_one(item, check)[3] for item, check in items)
            expect(bad == 0, f"{workload}: {len(items)} tiny checks at seed {seed} pass oracles", loop)

        original = CheckReport.passed
        CheckReport.passed = property(lambda self: not original.fget(self))
        try:
            loop = Loop(workload, Oracles())
            attempted, failed, _ = loop.reference(None)
        finally:
            CheckReport.passed = original
        expect(failed == attempted, f"{workload}: flipped verdicts fail {failed}/{attempted} oracle checks", loop)

        loop = Loop(workload, Oracles(), mutate=one_byte)
        _, oracle_failed, _ = loop.reference(None)
        loop = Loop(workload, Oracles(), mutate=one_byte)
        attempted, failed, _ = loop.reference(load_digests(workload))
        expect(
            oracle_failed == 0 and failed == attempted,
            f"{workload}: a one-byte change passes the oracles ({oracle_failed} failed)"
            f" and fails the digests ({failed}/{attempted})",
            loop,
        )
    return problems


def write_digests() -> list:
    problems, table = [], {}
    for workload in workloads.WORKLOADS:
        loop = Loop(workload, Oracles())
        _, failed, seen = loop.reference(None)
        if failed:
            problems.append(f"{workload}: {failed} reference checks fail their oracles")
        table[workload] = seen
    if not problems:
        DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        os.chdir(workdir)
        problems = write_digests() if args.write_digests else selftest()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
