"""Steadiness: run each workload repeatedly and summarise every metric.

    python3 perfbench/steady.py --runs 10 --out results.json
    python3 perfbench/steady.py --runs 5 --workload service_sharded --first-seed 100

Without ``--workload`` it runs the workloads ``BENCHMARK.json`` lists.
Each run is ``run.py`` in its own process with its own seed (``first-seed``
upward), for ``BENCHMARK.json``'s ``run_seconds``, as the benchmark is
always run.  For every workload and metric
it prints the median, the IQR (``statistics.quantiles(values, n=4)``,
Q3 - Q1) as a share of the median, the min-max range, and the share of
failed operations; ``--out`` saves the raw results for ``compare.py``.
The spreads it prints are what the bounds in ``BENCHMARK.json`` rest on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {"median": middle, "iqr_share": (q3 - q1) / middle if middle else 0.0,
            "min": min(values), "max": max(values)}


def summarise(results: dict[str, list[dict]]) -> None:
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        ok = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct={ok}, "
              f"failed share={sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:42s} median {s['median']:12.4f} {unit:6s} "
                  f"IQR {100 * s['iqr_share']:6.2f}%  "
                  f"range {s['min']:.4f}-{s['max']:.4f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the raw results here (JSON)")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    results: dict[str, list[dict]] = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results[workload] = [
            run_once(workload, args.first_seed + i, spec["run_seconds"], args.trace)
            for i in range(args.runs)
        ]
    summarise(results)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)


if __name__ == "__main__":
    main()
