"""Shared plumbing: paths, child processes, statistics, a JSON-lines client.

The benchmark process itself never imports ``repro``; every measured
call runs in a child process started from the checkout's ``src``.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout root: the benchmark is always run from it.
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
#: This process's scratch space (server stores, logs); removed when a run ends.
RUN_DIR = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))

#: asyncio stream limit: ``server/stats`` of a sharded server is one long line.
LINE_LIMIT = 1 << 24


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed process)."""


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {SRC}/repro is missing")
    if not os.path.isdir(os.path.join(ROOT, "examples", "programs")):
        raise BenchError("no example programs: examples/programs is missing")


def child_env() -> dict:
    """Environment of every child: the checkout's ``src`` first, fixed hashing.

    A fixed hash seed keeps set iteration order, and with it the work
    counters of the traced run, identical from run to run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def inproc_argv() -> list[str]:
    return [sys.executable, os.path.join(HERE, "inproc.py")]


def fresh_dir(name: str) -> str:
    path = os.path.join(RUN_DIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_run_dir() -> None:
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(RUN_DIR))
    except OSError:  # another run still uses it, or it never existed
        pass


def children_peak_rss_mb() -> float:
    """Largest resident set of any waited-for descendant, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids(pid: int) -> list[int]:
    pids: list[int] = []
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        with open(f"{task_dir}/{tid}/children") as fh:
            pids += [int(p) for p in fh.read().split()]
    return pids


async def spawn(argv: list[str], **kwargs) -> asyncio.subprocess.Process:
    return await asyncio.create_subprocess_exec(
        *argv, cwd=ROOT, env=child_env(), limit=LINE_LIMIT, **kwargs
    )


async def reap(proc: asyncio.subprocess.Process, timeout: float = 20.0) -> None:
    """Wait for ``proc``; kill it if it does not end in ``timeout``."""
    try:
        await asyncio.wait_for(proc.wait(), timeout)
    except asyncio.TimeoutError:
        proc.kill()
        await proc.wait()


class LineClient:
    """A pipelined JSON-lines connection to ``repro serve --stdio``.

    Requests carry increasing ids; a reader task matches responses to
    waiting callers and stamps each with its arrival time, so a reply
    is timed when it arrives, not when its caller resumes.
    """

    def __init__(self, proc: asyncio.subprocess.Process):
        self.proc = proc
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._reader = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def start(cls, argv: list[str], stderr_path: str) -> "LineClient":
        with open(stderr_path, "ab") as err:
            proc = await spawn(
                argv,
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
                stderr=err,
            )
        return cls(proc)

    async def _read(self) -> None:
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                break
            arrived = time.perf_counter()
            message = json.loads(line)
            future = self._pending.pop(message.get("id"), None)
            if future is not None and not future.done():
                future.set_result((arrived, message))
        for future in self._pending.values():
            if not future.done():
                future.set_exception(BenchError("server closed its output"))
        self._pending.clear()

    async def call(self, op: str, params: dict | None = None) -> tuple[float, dict]:
        """Send one request; return (round trip in ms, response)."""
        self._next_id += 1
        rid = self._next_id
        future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        line = json.dumps({"id": rid, "op": op, "params": params or {}}) + "\n"
        sent = time.perf_counter()
        self.proc.stdin.write(line.encode())
        await self.proc.stdin.drain()
        arrived, message = await future
        return (arrived - sent) * 1000.0, message

    async def close(self) -> None:
        """Ask the server to stop, then wait for it and the reader."""
        try:
            if self.proc.returncode is None:
                await asyncio.wait_for(self.call("shutdown"), 20.0)
                self.proc.stdin.close()
        except (BenchError, ConnectionError, asyncio.TimeoutError):
            pass
        await reap(self.proc)
        await self._reader

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
        await self.proc.wait()
        await self._reader
