"""Steadiness report: run one workload in two separate sets and compare them.

    python3 perfbench/steadiness.py --workload paper-cold

Each set is ten runs of ``perfbench/run.py``, each with its own seed (set
``k`` uses seeds ``first_seed + 10 * k`` onwards) and ``run_seconds`` from
BENCHMARK.json.  For every end-to-end metric the report prints each set's
median and quartiles, the spread (interquartile distance over the median),
and how far the second set's median moved from the first's, both against the
metric's bound.  It also prints each set's share of failed operations, which
must be identical across sets.  The bounds in BENCHMARK.json are set from
this report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

ROOT = Path(__file__).resolve().parents[1]

#: Runs per set, and sets per report.
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    reps = [line.split()[-7] for line in done.stderr.splitlines() if "repetition" in line]
    print(f"  repetitions: {' '.join(reps)}", flush=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def compare(
    workload: str, sets: Sequence[Sequence[Mapping[str, object]]], bounds: Mapping[str, float]
) -> bool:
    """Print the report for the given sets of results; True if every bound holds.

    Every metric's spread in every set, and every later set's median shift in
    either direction, must stay within the metric's bound.
    """
    steady = True
    print(f"\n{workload}: {len(sets[0])} runs per set")
    for name, bound in bounds.items():
        medians = []
        for index, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            medians.append(median)
            steady &= spread <= bound
            flag = "" if spread <= bound / 3 else "  <-- above a third of bound"
            flag = flag if spread <= bound else "  <-- ABOVE BOUND"
            print(
                f"  {name:12s} set {index + 1}: median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                f"spread {spread:.3f} (bound {bound}){flag}"
            )
        for index, median in enumerate(medians[1:], start=2):
            change = median / medians[0] - 1.0
            steady &= abs(change) <= bound
            flag = "" if abs(change) <= bound else "  <-- ABOVE BOUND"
            print(f"  {name:12s} set {index} vs set 1: {change:+.3f} (bound {bound}){flag}")
    shares = [
        (sum(r["failed"] for r in results), sum(r["attempted"] for r in results))
        for results in sets
    ]
    print("  failed/attempted per set: " + ", ".join(f"{f}/{a}" for f, a in shares))
    steady &= len({f / a for f, a in shares}) == 1
    steady &= all(r["correct"] for results in sets for r in results)
    print("STEADY" if steady else "NOT STEADY")
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description="Two-set steadiness report for one workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}

    sets: List[List[Dict[str, object]]] = []
    for index in range(SETS):
        results = []
        for run in range(RUNS):
            seed = args.first_seed + index * RUNS + run
            result = run_once(args.workload, seed, bench["run_seconds"])
            values = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"set {index + 1} seed {seed}: {json.dumps(values)}", flush=True)
            results.append(result)
        sets.append(results)
    return 0 if compare(args.workload, sets, bounds) else 1


if __name__ == "__main__":
    sys.exit(main())
