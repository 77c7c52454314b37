"""One workload process: set up, run checks in a closed loop, judge them.

Started by ``run.py``: one client and one thread, each check issued only
after the previous one returned.  Prints ``READY`` when set-up is done (just
before the first timed check) and, as its last line, a JSON object with the
measured numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import workloads
from calibrate import SLICE_EVERY_S, calibration_slice, rescale
from oracles import Oracles
from tracing import Tracer, fit_exponent, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".bench_work"


def digest(code, out: bytes) -> str:
    return hashlib.sha256(f"{code}\n".encode() + out).hexdigest()


class Executor:
    """Turns a workload's plain-data items into calls into galaxyck.

    Functions are looked up on their modules at call time, so a tracer that
    rebinds them sees every call.
    """

    def __init__(self, workload: str, seed: int, tiny: bool):
        from galaxyck import cli, emailgame, epistemic, hypernat, reports, sorites

        self.cli, self.epistemic, self.hypernat = cli, epistemic, hypernat
        self.reports, self.sorites = reports, sorites
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.docs: list = []
        self.models: dict = {}
        if workload == "chain-ck":
            T = (workloads.TINY_CHAIN_T if tiny else workloads.CHAIN_T)[-1]
            model = emailgame.truncated_model(T)
            self.models[T] = (model, {int(emailgame.chain_position(s)): s for s in model.states})
        elif workload == "model-files":
            rng = workloads.rng_for(workload, seed, "tiny" if tiny else "full", "docs")
            self.docs = workloads.model_docs(rng, tiny, prefix="ref/" if tiny else "")
            for name, doc, *_ in self.docs:
                path = Path(name)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(doc), encoding="utf-8")

    def round(self, r: int) -> list:
        """Items of round ``r``, each paired with its prepared check."""
        items = workloads.make_round(self.workload, self.seed, r, self.tiny, self.docs)
        return [(item, self.prepare(item)) for item in items]

    def cli_check(self, argv: list):
        def check():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
            return code, out.getvalue().encode()

        return check

    def prepare(self, item):
        spec = item.spec
        if item.kind == "audit":
            return self.prepare_audit(spec)
        if item.kind in ("ck", "knows", "link", "meet"):
            return self.prepare_chain(item)
        if item.kind == "impossibility":
            argv = ["emailgame", "impossibility", "--T", str(spec["T"])]
        elif item.kind == "model":
            argv = ["model", "check", "--file", spec["file"], "--event", spec["event"]]
            argv += ["--state", spec["state"], "--mode", spec["mode"]]
        elif item.kind == "equilibrium":
            argv = ["emailgame", "equilibrium"]
            for key in ("M", "L", "p", "eps"):
                argv += [f"--{key}", spec[key]]
            argv += ["--finite-samples", spec["finite"], "--huge-samples", spec["huge"]]
        elif item.kind == "monotone":
            argv = ["emailgame", "monotone", "--samples", spec["samples"]]
        elif item.kind == "ast-ck":
            argv = ["emailgame", "ast-ck", "--t", spec["t"]]
        else:
            raise ValueError(f"unknown check kind {item.kind!r}")
        return self.cli_check(argv)

    def prepare_audit(self, spec: dict):
        h, sorites = self.hypernat, self.sorites
        points = [h.finite(k) if c == 0 else h.huge(c, k) for c, k in spec["points"]]
        if spec["ladder"] == "2^n":
            ladder = sorites.GeneratingSequence.powers_of_two()
        else:
            t = workloads.LADDERS[spec["ladder"]]
            ladder = sorites.GeneratingSequence(lambda n: h.finite(t(n)))
        rel = sorites.chain_relation(ladder)
        n_max = spec["n_max"]
        return lambda: (None, rel.verify_generating_axioms(points, n_max).to_json().encode())

    def prepare_chain(self, item):
        """Sweeps over a truncation built once in set-up, rendered as reports."""
        spec, epistemic, CheckReport = item.spec, self.epistemic, self.reports.CheckReport
        model, by_position = self.models[spec["T"]]
        windows = spec.get("windows", ())
        event = frozenset(by_position[q] for lo, hi in windows for q in range(lo, hi + 1))
        params = {k: v for k, v in spec.items() if k != "probes"}
        if item.kind == "ck":
            probes = [by_position[q] for q in spec["probes"]]

            def check():
                report = CheckReport("ck-sweep", params)
                for state in probes:
                    verdict = epistemic.ck_subjective(model, event, state)
                    report.add(
                        {"state": str(state)},
                        "common knowledge",
                        "common knowledge" if verdict else "not common knowledge",
                        verdict,
                    )
                return None, report.to_json().encode()

        elif item.kind == "meet":

            def check():
                return None, epistemic.meet_equals_galaxies(model).to_json().encode()

        else:

            def check():
                if item.kind == "knows":
                    states = epistemic.knows_group(model, event)
                else:
                    states = epistemic.link_iter(model, event, spec["n"])
                report = CheckReport(f"{item.kind}-sweep", params)
                report.add({"windows": windows}, "state set", states, True)
                return None, report.to_json().encode()

        return check


class Record(NamedTuple):
    item: workloads.Item
    seconds: float  # wall time of the check
    slice_s: float | None  # wall time of the calibration slice run just before it
    nbytes: int  # report bytes
    ok: bool


class Loop:
    """Runs prepared checks in a closed loop and judges each one."""

    def __init__(self, workload: str, oracles: Oracles, tracer=None, mutate=None):
        self.workload, self.oracles, self.tracer = workload, oracles, tracer
        self.mutate = mutate  # self-test hook that corrupts output bytes
        self.records: list = []
        self.failures: list = []

    def run_one(self, item, check) -> tuple:
        """Times one check, then judges it untimed: (seconds, code, out, ok).
        A tracer, if any, records only while the check runs."""
        tracer = self.tracer
        if tracer is not None:
            tracer.check_id = len(self.records)
            tracer.active = True
        start = time.perf_counter()
        try:
            code, out = check()
        except Exception as exc:  # a crash is a failed check, not a failed benchmark
            self.failures.append(f"{item.kind} {item.size}: raised {exc!r}")
            code, out = None, None
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        if out is None:
            return seconds, None, b"", False
        if self.mutate is not None:
            out = self.mutate(out)
        try:
            errors = self.oracles.judge(item, code, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            errors = [f"unreadable output: {exc!r}"]
        if errors:
            self.failures.append(f"{item.kind} {item.size}: {'; '.join(errors)}")
        return seconds, code, out, not errors

    def run(self, executor: Executor, first_round: int, budget: float, prepared=None) -> int:
        """Whole rounds until the checks' summed latency reaches ``budget``;
        returns the next round number."""
        timed, r, since_slice = 0.0, first_round, SLICE_EVERY_S
        while True:
            for item, check in prepared or executor.round(r):
                slice_s = None
                if since_slice >= SLICE_EVERY_S:
                    slice_s, since_slice = calibration_slice(), 0.0
                seconds, _, out, ok = self.run_one(item, check)
                self.records.append(Record(item, seconds, slice_s, len(out), ok))
                timed += seconds
                since_slice += seconds
            prepared, r = None, r + 1
            if timed >= budget:
                return r

    def reference(self, digests) -> tuple:
        """Runs the tiny default-seed round and, unless ``digests`` is None,
        compares each output with its stored digest.  Returns (attempted,
        failed, digests of this run)."""
        executor = Executor(self.workload, workloads.DEFAULT_SEED, tiny=True)
        failed, seen = 0, []
        for i, (item, check) in enumerate(executor.round(0)):
            _, code, out, ok = self.run_one(item, check)
            seen.append(digest(code, out))
            if digests is not None and (i >= len(digests) or digests[i] != seen[-1]):
                self.failures.append(f"{item.kind} {item.size}: report bytes differ from digest {i}")
                ok = False
            failed += not ok
        if digests is not None and len(digests) != len(seen):
            self.failures.append(f"reference round has {len(seen)} checks, {len(digests)} digests")
            failed += 1
        return len(seen), failed, seen


def load_digests(workload: str) -> list:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]


def rescaled(records: list) -> list:
    return rescale([r.seconds for r in records], [r.slice_s for r in records])


def timing(seconds: list) -> dict:
    return {
        "checks": len(seconds),
        "checks_per_s": len(seconds) / sum(seconds),
        "check_ms_p50": statistics.median(seconds) * 1000,
        "check_ms_p90": statistics.quantiles(seconds, n=10)[8] * 1000,
    }


# (metric prefix, check kind, size tag, smallest size class in the fit)
SCALING = (
    ("sorites.audit", "audit", "S", 0),
    ("epistemic.impossibility", "impossibility", "T", 0),
    # below K=1000 the CLI's fixed cost hides the arithmetic
    ("emailgame.audit", "equilibrium", "K", 1000),
)


def scaling(records: list) -> dict:
    """Per-size-class median latency (ms) and the fitted log-log exponents.

    Every metric is present on every workload; a workload without a check
    kind reports 0 for it.
    """
    classes = {
        "audit": workloads.AXIOM_SIZES,
        "impossibility": workloads.CHAIN_T,
        "equilibrium": tuple(k or 10 for k in workloads.EQ_K),
    }
    out = {}
    for prefix, kind, tag, min_fit in SCALING:
        by_size: dict = {}
        for record, seconds in zip(records, rescaled(records)):
            if record.item.kind == kind:
                by_size.setdefault(record.item.size, []).append(seconds * 1000)
        medians = {size: statistics.median(v) for size, v in by_size.items()}
        out[f"{prefix}.exp_{tag}"] = fit_exponent({s: m for s, m in medians.items() if s >= min_fit})
        for size in classes[kind]:
            out[f"{prefix}.ms_{tag}{size}"] = medians.get(size, 0.0)
    return out


def run(args) -> dict:
    """Set-up, the timed (and with ``--trace 1`` the traced) loop, then the
    reference round against the stored digests."""
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # set-up is traced too, for the construction spans
        tracer.active = True
    executor = Executor(args.workload, args.seed, tiny=False)
    prepared = executor.round(0)
    if tracer is not None:
        tracer.uninstall()
        setup_totals, _ = tracer.take()
        prepared = None  # round 0 was prepared with the tracer in place
    print("READY", flush=True)
    if args.setup_only:
        return {}

    loop = Loop(args.workload, Oracles())
    budget = args.seconds / 2 if tracer is not None else args.seconds
    next_round = loop.run(executor, 0 if prepared else 1, budget, prepared)
    untraced = timing(rescaled(loop.records))
    detail = {
        "untraced": untraced,
        "untraced_wall": timing([r.seconds for r in loop.records]),
        "slice_ms_median": statistics.median(r.slice_s for r in loop.records if r.slice_s) * 1000,
    }
    if tracer is None:
        metrics = {k: untraced[k] for k in ("checks_per_s", "check_ms_p50", "check_ms_p90")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        records, failures = loop.records, loop.failures
    else:
        traced_loop = Loop(args.workload, loop.oracles, tracer)
        tracer.install()
        traced_loop.run(executor, next_round, budget)
        tracer.uninstall()
        totals, counters = tracer.take()
        traced = timing(rescaled(traced_loop.records))
        check_s = sum(r.seconds for r in traced_loop.records)
        metrics = layer_metrics(totals, counters, setup_totals, traced["checks"], check_s)
        metrics["reports.bytes"] = sum(r.nbytes for r in traced_loop.records) / traced["checks"]
        metrics.update(scaling(loop.records))
        metrics["trace.overhead"] = untraced["checks_per_s"] / traced["checks_per_s"]
        spans = WORK / f"spans-{args.workload}-{args.seed}.json"
        tracer.write_spans(spans)
        detail.update(traced=traced, spans={"file": str(spans.relative_to(ROOT)), "count": len(tracer.spans)})
        records, failures = loop.records + traced_loop.records, loop.failures + traced_loop.failures
    ref = Loop(args.workload, loop.oracles)
    ref_attempted, ref_failed, _ = ref.reference(load_digests(args.workload))
    for line in (failures + ref.failures)[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    return {
        "attempted": len(records) + ref_attempted,
        "failed": sum(1 for r in records if not r.ok) + ref_failed,
        "metrics": metrics,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        os.chdir(workdir)  # model files are named relative to it, so reports hold no paths
        result = run(args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
