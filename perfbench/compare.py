"""Compare two result sets against the bounds in ``BENCHMARK.json``.

    python3 perfbench/compare.py parent.json change.json

Both files are ``steady.py --out`` results.  For each workload and
metric it prints both medians and IQR shares and a verdict:

* ``worse``      the change's median is worse than the parent's by more
                 than the metric's bound;
* ``better``     the change's median is better by more than the parent's
                 own IQR, and at least nine in ten of all (parent, change)
                 run pairs favour the change;
* ``unresolved`` neither, and the parent's IQR is wider than the bound, so
                 "unchanged" cannot be told apart from noise -- unless
                 every change run beats every parent run (``better``);
* ``unchanged``  otherwise.

A workload is ``invalid`` as a whole, and its metrics get no verdict,
if any change run reports ``correct: false`` or fails a larger share of
its operations than the parent's runs: a gain that comes with wrong
answers or more failures does not count.

Per-layer metrics (traced results) have no bound: times get no verdict,
counts are reported ``same`` or ``differs``, since counts repeat exactly.
Exits 1 if any verdict is ``worse`` or any workload is ``invalid``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    old_med, new_med = statistics.median(old), statistics.median(new)
    # Positive: the change is worse, as a share of the parent's median.
    worse_by = sign * (new_med - old_med) / old_med
    if worse_by > bound:
        return "worse"
    pairs = [(o, n) for o in old for n in new]
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    if -worse_by * old_med > _iqr(old) and wins >= 0.9 * len(pairs):
        return "better"
    if _iqr(old) / old_med > bound:
        return "better" if wins == len(pairs) else "unresolved"
    return "unchanged"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.benchmark) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    with open(args.parent) as fh:
        parent = json.load(fh)
    with open(args.change) as fh:
        change = json.load(fh)
    any_bad = False
    for workload in parent:
        if workload not in change:
            print(f"{workload}: missing from {args.change}")
            continue
        old_runs, new_runs = parent[workload], change[workload]
        old_share = [r["failed"] / r["attempted"] for r in old_runs]
        new_share = [r["failed"] / r["attempted"] for r in new_runs]
        correct = all(r["correct"] for r in new_runs)
        invalid = not correct or max(new_share) > max(old_share)
        any_bad |= invalid
        print(f"\n{workload}: failed share {sorted(set(old_share))} -> "
              f"{sorted(set(new_share))}, change correct={correct}"
              f"{'  INVALID' if invalid else ''}")
        for name, first in old_runs[0]["metrics"].items():
            old = [r["metrics"][name]["value"] for r in old_runs]
            new = [r["metrics"][name]["value"] for r in new_runs if name in r["metrics"]]
            if len(new) != len(new_runs):
                print(f"  {name:42s} missing from the change")
                continue
            if invalid:
                v = "invalid"
            elif name in spec:
                v = verdict(old, new, spec[name]["better"], spec[name]["bound"])
                any_bad |= v == "worse"
            elif first["unit"] == "count":
                v = "same" if set(old) == set(new) else "differs"
            else:
                v = ""
            print(f"  {name:42s} {statistics.median(old):12.4f} "
                  f"(IQR {_iqr(old):9.4f}) -> {statistics.median(new):12.4f} "
                  f"(IQR {_iqr(new):9.4f}) {first['unit']:6s} {v}")
    return 1 if any_bad else 0


if __name__ == "__main__":
    sys.exit(main())
