"""Run one ppmkit benchmark workload and print its result.

    python3 bench/run.py --workload fit-full|predict-mix|report-fast \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in fresh worker
processes (bench/workloads.py): with ``--trace 0`` it sets up several
times, reports the median set-up time, and measures the timed part once
untraced; with ``--trace 1`` it reports per-layer metrics from a traced
repeat of the timed part.  Every workload reports every metric of its mode
that BENCHMARK.json lists.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the machine record, the drift probe,
the output digest and any failure reasons.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
TIME_BUDGET_S = 170.0  # whole run, so that it exits within 180 s


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "numba": "absent" if importlib.util.find_spec("numba") is None else "present",
        "jax": "absent" if importlib.util.find_spec("jax") is None else "present",
    }


def drift_probe() -> dict:
    """Time a fixed pure-Python loop and a fixed numpy loop.  Stored beside
    the metrics to show how fast the host was; never used to scale them."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i % 7
    python_s = time.perf_counter() - start
    x = np.random.default_rng(0).standard_normal(1_000_000)
    start = time.perf_counter()
    for _ in range(30):
        x = np.tanh(x) * 0.5 + x * 0.5
    numpy_s = time.perf_counter() - start
    return {"python_loop_s": python_s, "numpy_loop_s": numpy_s}


def _worker(args, index: int, setup_only: bool, deadline: float) -> dict:
    workdir = WORK / f"{args.workload}-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "PPM_SEED"}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args) -> tuple[dict, dict]:
    """(record, result) of one benchmark run."""
    deadline = time.monotonic() + TIME_BUDGET_S
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(), "drift_probe": drift_probe()}
    setups = []
    if not args.trace:
        for k in range(SETUP_REPEATS - 1):
            setups.append(_worker(args, k, True, deadline)["setup_s"])
    out = _worker(args, SETUP_REPEATS, False, deadline)
    setups.append(out["setup_s"])
    metrics = dict(out["metrics"])
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        record["setup_runs_s"] = setups
    if set(metrics) != set(units):
        raise RuntimeError(f"worker reported {sorted(metrics)}, expected {sorted(units)}")
    record.update(digest=out["digest"], failures=out["failures"], errors=out["errors"])
    result = {
        "correct": out["failed"] == 0 and not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    return record, result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # SIGTERM unwinds like an error, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (ROOT / "src" / "ppmkit" / "__init__.py").is_file():
        print(f"error: no ppmkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record, result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
