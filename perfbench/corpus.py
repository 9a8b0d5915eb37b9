"""``source_corpus``: in-process ``run_source`` over generated programs.

The programs run in one worker process (:mod:`inproc`), one at a time;
the benchmark process only starts it, times its start and reads back
per-program timings.  Start-up cost is set-up here, not per operation.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from common import BenchError, children_peak_rss_mb, fresh_dir, inproc_argv, median, reap, spawn

SETUP_SAMPLES = 7


async def start_worker(log_path: str) -> tuple[float, asyncio.subprocess.Process]:
    """Start a worker; return (seconds until it reported ready, process)."""
    start = time.perf_counter()
    with open(log_path, "ab") as err:
        proc = await spawn(
            inproc_argv(),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=err,
        )
    line = await proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line != b"ready\n":
        await reap(proc, 5.0)
        raise BenchError(f"in-process worker did not start: {_tail(log_path)}")
    return elapsed, proc


async def run_job(proc: asyncio.subprocess.Process, job: dict, log_path: str) -> dict:
    """Send one job to a started worker and wait for its result."""
    proc.stdin.write((json.dumps(job) + "\n").encode())
    await proc.stdin.drain()
    proc.stdin.close()
    line = await proc.stdout.readline()
    await reap(proc)
    if not line:
        raise BenchError(f"in-process worker failed: {_tail(log_path)}")
    return json.loads(line)


async def worker_job(job: dict, name: str) -> dict:
    log_path = os.path.join(fresh_dir(name), "worker.log")
    _, proc = await start_worker(log_path)
    return await run_job(proc, job, log_path)


def _tail(path: str) -> str:
    with open(path, errors="replace") as fh:
        return fh.read()[-600:]


async def run(seed: int, seconds: float) -> dict:
    log_path = os.path.join(fresh_dir("corpus"), "worker.log")
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        elapsed, proc = await start_worker(log_path)
        proc.stdin.close()
        await reap(proc)
        setup.append(elapsed)
    elapsed, proc = await start_worker(log_path)
    setup.append(elapsed)
    result = await run_job(proc, {"job": "corpus", "seed": seed, "seconds": seconds}, log_path)
    lat = result["latencies_ms"]
    return {
        "correct": not result["wrong"],
        "errors": result["wrong"][:5],
        "attempted": len(lat),
        "failed": len(result["wrong"]),
        "metrics": {
            "setup_s": (median(setup), "s"),
            "ops_s": (len(lat) / result["busy_s"], "1/s"),
            "op_ms_p50": (median(lat), "ms"),
            "peak_rss_mb": (children_peak_rss_mb(), "MB"),
        },
    }
