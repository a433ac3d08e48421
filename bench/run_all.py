"""Run every benchmark workload and print its metrics by name, with units.

    python3 bench/run_all.py [--seed N] [--seconds S] [--out FILE]

Each workload runs twice untraced and once traced with the same seed
through bench/run.py, each run in fresh processes.  The table lists every
end-to-end metric (median over the two untraced runs), every per-layer
metric of the traced run, failed / attempted operations, and whether the
output digest repeated across the three runs.  A digest that does not
repeat makes the workload incorrect and the exit code 1.  ``--out`` writes
every record and result as JSON, as in bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

UNTRACED_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return {**json.loads(record_line), "result": json.loads(result_line)}


def summarize(workload: str, runs: list[dict], digest_repeats: bool) -> list[str]:
    lines = []
    names = sorted({m for r in runs for m in r["result"]["metrics"]})
    for name in names:
        vals = [r["result"]["metrics"][name] for r in runs if name in r["result"]["metrics"]]
        value = statistics.median(v["value"] for v in vals)
        lines.append(f"  {name:<44} {value:>14.6g} {vals[0]['unit']}")
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    correct = digest_repeats and all(r["result"]["correct"] for r in runs)
    lines.append(f"  failed / attempted: {failed} / {attempted}; "
                 f"correct: {correct}; digest repeats: {digest_repeats}")
    for r in runs:
        lines += [f"  failure: {f}" for f in r["record"]["failures"] + r["record"]["errors"]]
    return [f"{workload}:"] + lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    report, all_correct = {}, True
    for workload in WORKLOADS:
        runs = [run_once(workload, args.seed, args.seconds, 0) for _ in range(UNTRACED_RUNS)]
        traced = run_once(workload, args.seed, args.seconds, 1)
        repeats = len({r["record"]["digest"] for r in runs + [traced]}) == 1
        print("\n".join(summarize(workload, runs, repeats)), flush=True)
        print("\n".join(summarize(f"{workload} (traced)", [traced], repeats)), flush=True)
        report[workload] = {"untraced": runs, "traced": traced}
        all_correct = all_correct and repeats and all(
            r["result"]["correct"] for r in runs + [traced])
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
