"""``cli_examples``: one cold ``python -m repro`` process per operation.

A round is the six example commands of :data:`gen.EXAMPLES` in a seeded
order; two rounds' commands run at a time at most (two in flight), and a
run only starts a round while time is left, so it always ends on whole
rounds.  Interpreter start and ``import repro`` dominate each call.
"""

from __future__ import annotations

import asyncio
import random
import re
import time

import gen
from common import BenchError, children_peak_rss_mb, median, repro_argv, spawn

IN_FLIGHT = 2
SETUP_SAMPLES = 7
_LINT_CODE = re.compile(r"\b(?:error|warning)\[(IC\d{4})\]")


async def _call(args: list[str]) -> tuple[float, int, str, str]:
    start = time.perf_counter()
    proc = await spawn(
        repro_argv(*args),
        stdin=asyncio.subprocess.DEVNULL,
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.PIPE,
    )
    out, err = await proc.communicate()
    elapsed = (time.perf_counter() - start) * 1000.0
    return elapsed, proc.returncode, out.decode(), err.decode()


def _answer_ok(example, code: int, out: str, err: str) -> bool:
    args, expected, exit_code = example
    if code != exit_code:
        return False
    if args[0] == "lint":
        return _LINT_CODE.findall(out + err) == expected
    lines = out.strip().splitlines()
    return bool(lines) and lines[-1] == expected


async def setup_seconds(samples: int = SETUP_SAMPLES) -> list[float]:
    """Spawn to the first ``repro --version`` output, ``samples`` times."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = await spawn(
            repro_argv("--version"),
            stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL,
        )
        first = await proc.stdout.readline()
        times.append(time.perf_counter() - start)
        await proc.wait()
        if not first.startswith(b"repro "):
            raise BenchError(f"unexpected --version output {first!r}")
    return times


async def measure(seed: int, seconds: float | None, rounds: int | None = None,
                  in_flight: int = IN_FLIGHT) -> dict:
    """Run whole rounds for ``seconds`` (or exactly ``rounds``)."""
    rng = random.Random(f"cli:{seed}")
    queue: list = []
    started = time.perf_counter()
    rounds_started = 0

    def next_example():
        nonlocal rounds_started
        if not queue:
            more = (rounds_started < rounds) if rounds is not None else (
                time.perf_counter() - started < seconds
            )
            if not more:
                return None
            order = list(gen.EXAMPLES)
            rng.shuffle(order)
            queue.extend(order)
            rounds_started += 1
        return queue.pop(0)

    latencies: list[float] = []
    wrong: list[str] = []

    async def worker() -> None:
        while (example := next_example()) is not None:
            elapsed, code, out, err = await _call(example[0])
            latencies.append(elapsed)
            if not _answer_ok(example, code, out, err):
                wrong.append(f"{' '.join(example[0])}: exit {code}: {out[-200:]}{err[-200:]}")

    await asyncio.gather(*(worker() for _ in range(in_flight)))
    wall = time.perf_counter() - started
    return {
        "latencies_ms": latencies,
        "wall_s": wall,
        "wrong": wrong,
    }


async def run(seed: int, seconds: float) -> dict:
    # One untimed call first, so compiled bytecode is on disk before timing.
    await setup_seconds(1)
    setup = await setup_seconds()
    result = await measure(seed, seconds)
    lat = result["latencies_ms"]
    return {
        "correct": not result["wrong"],
        "errors": result["wrong"],
        "attempted": len(lat),
        "failed": len(result["wrong"]),
        "metrics": {
            "setup_s": (median(setup), "s"),
            "ops_s": (len(lat) / result["wall_s"], "1/s"),
            "op_ms_p50": (median(lat), "ms"),
            "peak_rss_mb": (children_peak_rss_mb(), "MB"),
        },
    }
