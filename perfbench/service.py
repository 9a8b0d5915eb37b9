"""``service_single`` and ``service_sharded``: traffic through ``repro serve``.

One connection (the server's stdin/stdout), a closed loop: sessions run
in batches of ``in_flight`` at once, each sending a request only after
the answer to its previous one, and a batch starts only while time is
left, so a run always ends on whole sessions.  The session mix is
:func:`gen.service_session`.

``service_single`` runs ``repro serve --stdio --cache-dir DIR``; at the
end a few sessions are left open, the server is stopped, started again
on the same directory and timed until every journaled session has
answered one ``resolve`` (the disk-warm restart).  ``service_sharded``
runs ``repro serve --stdio --workers 2`` with no store and no restart.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import defaultdict

import gen
from common import (
    BenchError,
    LineClient,
    child_pids,
    children_peak_rss_mb,
    cpu_seconds,
    fresh_dir,
    median,
    percentile,
    repro_argv,
)

SETUP_SAMPLES = 7
IN_FLIGHT = 2
#: Sessions left open when the single server is stopped.
OPEN_AT_SHUTDOWN = 4
#: Index offset of the sessions left open (no clash with the traffic).
OPEN_INDEX = 1_000_000


def server_argv(sharded: bool, cache_dir: str | None) -> list[str]:
    args = ["serve", "--stdio"]
    if sharded:
        args += ["--workers", "2"]
    if cache_dir is not None:
        args += ["--cache-dir", cache_dir]
    return repro_argv(*args)


async def start_server(argv: list[str], log_path: str) -> tuple[float, LineClient]:
    """Spawn a server; seconds until it answered ``ping`` and ``server/stats``.

    ``server/stats`` is answered by every shard of a sharded server, so
    the time includes the shard workers' start, not just the front end.
    """
    start = time.perf_counter()
    client = await LineClient.start(argv, log_path)
    try:
        for op in ("ping", "server/stats"):
            _, response = await asyncio.wait_for(client.call(op), 60.0)
            if not response.get("ok"):
                raise BenchError(f"{op} failed: {response}")
    except BaseException:
        await client.kill()
        raise
    return time.perf_counter() - start, client


def _peak_rss_mb(pid: int) -> float:
    """Largest VmHWM of a live server process and its children, in MB."""
    peak = 0.0
    for p in [pid, *child_pids(pid)]:
        with open(f"/proc/{p}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]) / 1024.0)
    return peak


class Traffic:
    """Latencies and outcomes of the requests one run sent.

    ``failed`` counts every request not answered right: the known
    failure (:data:`gen.KNOWN_FAILURE`, accepted from a sharded server
    only) and every wrong answer, which also goes to ``wrong``.
    """

    def __init__(self, sharded: bool) -> None:
        self.sharded = sharded
        self.by_op: dict[str, list[float]] = defaultdict(list)
        self.all: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def record(self, req: gen.Request, ms: float | None, response: dict) -> bool:
        """Check one answer; ``ms`` is None for a request that is not timed.

        Returns whether the answer was right.
        """
        self.attempted += 1
        if ms is not None:
            self.all.append(ms)
            self.by_op[req.op].append(ms)
        verdict = gen.judge(req, response, self.sharded)
        if verdict is None:
            return True
        self.failed += 1
        if verdict != "known":
            self.wrong.append(verdict)
        return False


async def drive(
    client: LineClient,
    seed: int,
    traffic: Traffic,
    *,
    seconds: float | None = None,
    sessions: int | None = None,
    in_flight: int = IN_FLIGHT,
) -> float:
    """Run whole batches of ``in_flight`` concurrent sessions.

    Batches start while ``seconds`` have not passed (or until ``sessions``
    have run).  Starting a batch's sessions together fixes which sessions
    overlap, and a sharded server routes each session by its name, so the
    same seed always puts the same pairs of sessions on the shards.

    Returns the wall seconds they took.
    """
    started = time.perf_counter()
    count = 0

    async def session(index: int) -> None:
        for req in gen.service_session(seed, index, f"s{index}"):
            ms, response = await client.call(req.op, req.params)
            traffic.record(req, ms, response)

    while (sessions is None or count < sessions) and (
        seconds is None or time.perf_counter() - started < seconds
    ):
        await asyncio.gather(*(session(count + i) for i in range(in_flight)))
        count += in_flight
    return time.perf_counter() - started


async def _restart(argv: list[str], log_path: str, traffic: Traffic,
                   left_open: list[tuple[gen.Request, dict]]) -> tuple[float, dict]:
    """Restart on the same store; time until every open session answered."""
    start = time.perf_counter()
    client = await LineClient.start(argv, log_path)
    try:
        answers = await asyncio.wait_for(
            asyncio.gather(*(client.call(req.op, req.params) for req, _ in left_open)), 60.0
        )
        restart_s = time.perf_counter() - start
        # These answers waited for the server to start: restart_s times
        # them, the per-request latencies do not.
        for (req, before), (_, after) in zip(left_open, answers):
            if traffic.record(req, None, after) and after["result"] != before:
                traffic.failed += 1
                traffic.wrong.append(f"after restart {after} != before {before}")
        _, stats = await client.call("server/stats")
    finally:
        await client.close()
    return restart_s, stats["result"]


async def run_service(
    seed: int,
    sharded: bool,
    *,
    seconds: float | None = None,
    sessions: int | None = None,
    in_flight: int = IN_FLIGHT,
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """One run of a service workload; every figure it measured."""
    work_dir = fresh_dir("sharded" if sharded else "single")
    log_path = os.path.join(work_dir, "server.log")

    def argv(name: str) -> list[str]:
        return server_argv(sharded, None if sharded else os.path.join(work_dir, name))

    # Untimed start first, so compiled bytecode is on disk before timing.
    setup = []
    for i in range(setup_samples):
        elapsed, client = await start_server(argv(f"setup{i}"), log_path)
        await client.close()
        if i:
            setup.append(elapsed)
    elapsed, client = await start_server(argv("store"), log_path)
    setup.append(elapsed)

    traffic = Traffic(sharded)
    left_open: list[tuple[gen.Request, dict]] = []
    try:
        pids = [client.proc.pid, *child_pids(client.proc.pid)]
        cpu_before = [cpu_seconds(p) for p in pids]
        wall = await drive(client, seed, traffic, seconds=seconds,
                           sessions=sessions, in_flight=in_flight)
        cpu = [cpu_seconds(p) - c for p, c in zip(pids, cpu_before)]
        requests = len(traffic.all)
        _, stats = await client.call("server/stats")
        stats = stats["result"]
        if not sharded:
            for i in range(OPEN_AT_SHUTDOWN):
                reqs = gen.service_session(seed, OPEN_INDEX + i, f"open{i}")
                for req in reqs[:3]:
                    ms, response = await client.call(req.op, req.params)
                    traffic.record(req, ms, response)
                left_open.append((reqs[2], response.get("result")))
        peak = _peak_rss_mb(client.proc.pid)
    except BaseException:
        await client.kill()
        raise
    await client.close()

    figures = {
        "setup_s": median(setup),
        "requests": requests,
        "wall_s": wall,
        "cpu_s": cpu,
        "stats": stats,
    }
    if not sharded:
        figures["restart_s"], figures["restart_stats"] = await _restart(
            argv("store"), log_path, traffic, left_open
        )
        # The store's own view: the server-wide counters miss the loads
        # made while journaled sessions are restored at start-up.
        loads = figures["restart_stats"]["store"]["counters"]["store_loads"]
        restored = figures["restart_stats"].get("sessions_restored")
        if loads <= 0 or restored != OPEN_AT_SHUTDOWN:
            traffic.wrong.append(f"restart not disk-warm: store_loads={loads}, "
                                 f"sessions_restored={restored}")
    figures["peak_rss_mb"] = max(peak, children_peak_rss_mb())
    figures["traffic"] = traffic
    return figures


def end_to_end(figures: dict) -> dict:
    traffic: Traffic = figures["traffic"]
    return {
        "correct": not traffic.wrong,
        "errors": traffic.wrong[:5],
        "attempted": traffic.attempted,
        "failed": traffic.failed,
        "metrics": {
            "setup_s": (figures["setup_s"], "s"),
            "ops_s": (figures["requests"] / figures["wall_s"], "1/s"),
            "op_ms_p50": (median(traffic.all), "ms"),
            "peak_rss_mb": (figures["peak_rss_mb"], "MB"),
        },
    }


def op_latencies(figures: dict) -> dict:
    """Per-op medians and the p99 of all requests, in ms."""
    traffic: Traffic = figures["traffic"]
    if len(traffic.all) < 1000:
        raise BenchError("p99 needs at least 1000 requests (ten beyond it)")
    return {
        "op_ms_p99": percentile(traffic.all, 99),
        "resolve_ms_p50": median(traffic.by_op["resolve"]),
        "push_ms_p50": median(traffic.by_op["session/push_rules"]),
        "run_source_ms_p50": median(traffic.by_op["run_source"]),
    }


async def run(seed: int, seconds: float, sharded: bool) -> dict:
    return end_to_end(await run_service(seed, sharded, seconds=seconds))
