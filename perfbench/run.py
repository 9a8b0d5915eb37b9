"""The end-to-end benchmark of the implicit-calculus reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload source_corpus --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it measures one workload for ``--seconds`` and prints
the end-to-end metrics; with ``--trace 1`` it runs the traced layer
sweep (:mod:`layers`) and prints the per-layer metrics.  The last line
of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

Workloads, metrics and how each layer metric maps to an end-to-end one:
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import cli_load
import corpus
import layers
import service
from common import BenchError, remove_run_dir, require_program

WORKLOADS = ("cli_examples", "source_corpus", "service_single", "service_sharded")


async def measure(workload: str, seed: int, seconds: float) -> dict:
    if workload == "cli_examples":
        return await cli_load.run(seed, seconds)
    if workload == "source_corpus":
        return await corpus.run(seed, seconds)
    return await service.run(seed, seconds, sharded=workload == "service_sharded")


def render(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
        if args.trace:
            result = asyncio.run(layers.sweep(args.seed))
        else:
            result = asyncio.run(measure(args.workload, args.seed, args.seconds))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_run_dir()
    for error in result.pop("errors", []):
        print(f"perfbench: wrong answer: {error}", file=sys.stderr)
    print(render(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
