"""galaxyck benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload axiom-audit --seed 1 --seconds 20 --trace 0

Run from the repository root; it imports galaxyck from ``src/``.  The checks
of one workload run in their own process, one client in a closed loop.  Set-up
is measured several times, each in a fresh process, and reported as the
median.  With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  Every metric is
printed by name with its unit on stderr; the last line of stdout is the JSON
result, and the line before it records the run's environment and sample
counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import SLICE_S, calibration_slice
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9  # set-up-only processes besides the measured one; untraced runs only
DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def start_worker(args, deadline: float, setup_only: bool) -> tuple:
    """Starts a workload process and waits for its READY line.

    Returns the process, the seconds from its start to READY (its set-up
    time, rescaled by calibration slices run just before the start), the
    raw seconds and whatever it printed after READY so far.
    """
    speed = SLICE_S / statistics.median(calibration_slice() for _ in range(7))
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        buf = b""
        while b"\n" not in buf:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                raise BenchError("workload set-up timed out")
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                raise BenchError("workload process ended during set-up")
            buf += chunk
        setup_s = time.perf_counter() - start
        line, rest = buf.split(b"\n", 1)
        if line != b"READY":
            raise BenchError(f"unexpected worker output {line[:80]!r}")
        return proc, setup_s * speed, setup_s, rest
    except BaseException:
        stop(proc)
        raise


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc, rest: bytes, deadline: float) -> bytes:
    """Waits for a started workload process; returns the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload run timed out") from None
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return rest + out


def measure(args) -> tuple:
    deadline = time.monotonic() + DEADLINE_S
    setups, raw = [], []
    for _ in range(0 if args.trace else SETUP_RUNS):
        proc, setup_s, raw_s, rest = start_worker(args, deadline, setup_only=True)
        finish(proc, rest, deadline)
        setups.append(setup_s)
        raw.append(raw_s)
    proc, setup_s, raw_s, rest = start_worker(args, deadline, setup_only=False)
    setups.append(setup_s)
    raw.append(raw_s)
    lines = finish(proc, rest, deadline).decode().strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1]), setups, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "galaxyck" / "__init__.py").is_file():
        print(f"error: no galaxyck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        result, setups, raw_setups = measure(args)
    except (BenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(setups)
    values["pass_ratio"] = 1 - failed / attempted
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 thread",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "setup_samples_s": setups,
        "setup_samples_wall_s": raw_setups,
        "detail": result["detail"],
    }
    print(json.dumps(environment))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
