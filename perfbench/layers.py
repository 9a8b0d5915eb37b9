"""The traced run: every per-layer metric, from spans around public calls.

The program itself is not instrumented.  Each layer is timed from the
benchmark's side of its boundary -- a fresh interpreter for import, the
library functions of each pipeline phase in one worker process, the
server's ``/proc`` CPU clock and ``server/stats`` counters for the
service, and an in-process shard supervisor's own wire counters -- so the sweep covers every layer whichever workload is named,
and the same seed gives the same work.  Work counts (tokens, queries,
steps, nodes, bytes) therefore repeat exactly from one traced run of a
seed to the next; times do not.

Service traffic here runs one request at a time, so per-request compute
can be paired with its round trip.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

import cli_load
import corpus
import service
from common import BenchError, fresh_dir, median, spawn

#: Fresh interpreters per import sample set.
IMPORT_SAMPLES = 7
#: Sessions of service traffic: 33 x 31 requests gives over 1000, so the
#: p99 has at least ten samples beyond it.
SESSIONS = 33

_COUNT_MODULES = (
    "import sys, repro.cli; "
    "print(sum(1 for m in sys.modules if m == 'repro' or m.startswith('repro.')))"
)


async def _python(code: str) -> tuple[float, str]:
    start = time.perf_counter()
    proc = await spawn(
        [sys.executable, "-c", code],
        stdin=asyncio.subprocess.DEVNULL,
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.PIPE,
    )
    out, err = await proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"python -c {code!r} failed: {err.decode()[-400:]}")
    return (time.perf_counter() - start) * 1000.0, out.decode()


async def _import_layer() -> dict:
    """Fresh-process ``import repro.cli`` against a bare interpreter."""
    await _python("import repro.cli")  # bytecode on disk before timing
    bare, loaded = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append((await _python("pass"))[0])
        loaded.append((await _python("import repro.cli"))[0])
    _, out = await _python(_COUNT_MODULES)
    return {"bare_ms": median(bare), "import_total_ms": median(loaded),
            "modules": int(out.strip())}


def _paired_median(rtt: list[float], compute: list[float]) -> float:
    if len(rtt) != len(compute):
        raise BenchError("round trips and compute samples do not pair up")
    return median([r - c for r, c in zip(rtt, compute)])


async def sweep(seed: int) -> dict:
    errors: list[str] = []

    imp = await _import_layer()
    cli = await cli_load.measure(seed, None, rounds=2, in_flight=1)
    errors += cli["wrong"]

    lay = await corpus.worker_job({"job": "layers", "seed": seed}, "layers")
    errors += lay["wrong"]
    store_dir = os.path.join(fresh_dir("compute-store"), "store")
    computed = {}
    for name, cache_dir, shards in (("plain", None, False), ("store", store_dir, False),
                                    ("sharded", None, True)):
        job = {"job": "compute", "seed": seed, "sessions": SESSIONS, "cache_dir": cache_dir,
               "sharded": shards}
        computed[name] = await corpus.worker_job(job, f"compute-{name}")
        errors += computed[name]["wrong"]

    single = await service.run_service(seed, False, sessions=SESSIONS, in_flight=1,
                                       setup_samples=1)
    sharded = await service.run_service(seed, True, sessions=SESSIONS, in_flight=1,
                                        setup_samples=1)
    for figures in (single, sharded):
        errors += figures["traffic"].wrong

    n = lay["programs"]
    per_program = {k: v * 1000.0 / n for k, v in lay["totals_s"].items()}
    counts = lay["counts"]
    cache = computed["plain"]["counters"]
    single_traffic, sharded_traffic = single["traffic"], sharded["traffic"]
    requests = single["requests"]
    wire = computed["sharded"]["counters"]
    totals = lay["totals_s"]
    metrics = {
        "import.ms": (imp["import_total_ms"] - imp["bare_ms"], "ms"),
        "import.modules": (imp["modules"], "count"),
        "cli.work_ms": (median(cli["latencies_ms"]) - imp["import_total_ms"], "ms"),
        "source.lexer.ms": (per_program["lexer"], "ms"),
        "source.lexer.tokens": (counts["tokens"], "count"),
        "source.parser.ms": (per_program["parser"], "ms"),
        "source.infer.ms": (per_program["infer"], "ms"),
        "core.resolution.ms": (per_program["resolution"], "ms"),
        "core.resolution.queries": (counts["queries"], "count"),
        "core.resolution.steps": (counts["steps"], "count"),
        "core.resolution.unify_calls": (counts["unify_calls"], "count"),
        "core.cache.hit_ratio": (
            cache["cache_hits"] / max(1, cache["cache_hits"] + cache["cache_misses"]), "ratio"),
        "elaborate.ms": (per_program["elaborate"], "ms"),
        "elaborate.fterm_nodes": (counts["fterm_nodes"], "count"),
        "systemf.eval.ms": (per_program["eval"], "ms"),
        # The split path tokenizes once more than run_source does; beyond
        # that it adds only the timed resolver and the stats collection.
        "trace.overhead_pct": (
            100.0 * (totals["split"] - totals["lexer"] - totals["whole"]) / totals["whole"], "%"),
        "service.compute_ms_p50": (median(computed["plain"]["latencies_ms"]), "ms"),
        "service.transport_ms_p50": (
            _paired_median(single_traffic.all[:requests], computed["store"]["latencies_ms"]),
            "ms"),
        "service.shards.transport_ms_p50": (
            _paired_median(sharded_traffic.all, computed["plain"]["latencies_ms"]), "ms"),
        "service.server.cpu_ms_per_op": (1000.0 * single["cpu_s"][0] / requests, "ms"),
        "service.shards.supervisor_cpu_ms_per_op": (
            1000.0 * sharded["cpu_s"][0] / sharded["requests"], "ms"),
        "service.shard_worker.cpu_ms_per_op": (
            1000.0 * sum(sharded["cpu_s"][1:]) / sharded["requests"], "ms"),
        "service.wire.bytes_per_op": (
            (wire["wire_bytes_in"] + wire["wire_bytes_out"]) / wire["shard_dispatches"], "bytes"),
        "store.bytes": (single["stats"]["store"]["counters"]["store_bytes"], "bytes"),
        "store.loads": (single["restart_stats"]["store"]["counters"]["store_loads"], "count"),
        "service_single.restart_s": (single["restart_s"], "s"),
    }
    for prefix, figures in (("service_single", single), ("service_sharded", sharded)):
        for name, value in service.op_latencies(figures).items():
            metrics[f"{prefix}.{name}"] = (value, "ms")
    attempted = (len(cli["latencies_ms"]) + 2 * n
                 + sum(len(c["latencies_ms"]) for c in computed.values())
                 + single_traffic.attempted + sharded_traffic.attempted)
    failed = (len(cli["wrong"]) + len(lay["wrong"]) + sum(c["failed"] for c in computed.values())
              + single_traffic.failed + sharded_traffic.failed)
    return {
        "correct": not errors,
        "errors": errors[:5],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


