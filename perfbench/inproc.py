"""In-process worker: the program's library API, called from one process.

Started by the benchmark with the checkout's ``src`` on ``PYTHONPATH``.
It imports the pipeline, runs one warm-up program, prints ``ready``,
then reads one JSON job from stdin and prints one JSON result:

* ``{"job": "corpus", "seed": S, "seconds": T}`` -- ``run_source`` over
  whole rounds of :func:`gen.corpus_round`, after one untimed round drawn
  from another seed;
* ``{"job": "layers", "seed": S}`` -- one corpus round split by layer
  (lexer, parser, inference, resolution, elaboration, evaluation), each
  program also run whole to measure the split's own overhead;
* ``{"job": "compute", "seed": S, "sessions": N, "cache_dir": D,
  "sharded": B}`` -- the service traffic of ``N`` sessions through an
  in-process ``ResolutionService.handle_sync`` (with a store in ``D``, or
  none when it is null), or, if ``B``, a ``ShardSupervisor`` over two
  workers: compute time without transport, and the service's counters.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import gen
from repro.pipeline import run_source

#: Seed offset of the programs used only to warm up.
WARM_SEED = 1_000_003


def _corpus(seed: int, seconds: float) -> dict:
    for prog in gen.corpus_round(seed + WARM_SEED, 0):
        run_source(prog.source)
    times: list[float] = []
    busy = 0.0
    wrong = []
    rounds = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        programs = gen.corpus_round(seed, rounds)
        round_start = time.perf_counter()
        for prog in programs:
            t0 = time.perf_counter()
            value = run_source(prog.source)
            times.append((time.perf_counter() - t0) * 1000.0)
            if value != prog.expected:
                wrong.append(f"round {rounds}: {value!r} != {prog.expected!r}")
        busy += time.perf_counter() - round_start
        rounds += 1
    return {"latencies_ms": times, "busy_s": busy, "wrong": wrong}


def _fterm_nodes(root) -> int:
    from repro.systemf.ast import FExpr

    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, FExpr):
            count += 1
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
        elif isinstance(node, (tuple, list)):
            stack.extend(node)
    return count


def _layers(seed: int) -> dict:
    from repro.core.resolution import Resolver
    from repro.elaborate.translate import Elaborator
    from repro.obs import ResolutionStats, collecting
    from repro.source.infer import compile_program
    from repro.source.lexer import tokenize
    from repro.source.parser import parse_program
    from repro.systemf.eval import feval

    spans: list[float] = []

    @dataclasses.dataclass(frozen=True)
    class TimedResolver(Resolver):
        """Times the outermost ``resolve`` calls the elaborator makes."""

        def resolve(self, env, rho):
            t0 = time.perf_counter()
            try:
                return super().resolve(env, rho)
            finally:
                spans.append(time.perf_counter() - t0)

    totals = dict.fromkeys(
        ("lexer", "parser", "infer", "resolution", "elaborate", "eval", "split", "whole"), 0.0
    )
    counts = {"tokens": 0, "queries": 0, "steps": 0, "unify_calls": 0, "fterm_nodes": 0}
    wrong = []
    for prog in gen.corpus_round(seed + WARM_SEED, 0):
        run_source(prog.source)
    for prog in gen.corpus_round(seed, 0):
        start = time.perf_counter()
        value = run_source(prog.source)
        totals["whole"] += time.perf_counter() - start

        start = time.perf_counter()
        tokens = tokenize(prog.source)
        t_lex = time.perf_counter()
        parsed = parse_program(prog.source)
        t_parse = time.perf_counter()
        compiled = compile_program(parsed)
        t_infer = time.perf_counter()
        stats = ResolutionStats()
        spans.clear()
        elaborator = Elaborator(signature=compiled.signature, resolver=TimedResolver())
        with collecting(stats):
            _, target = elaborator.elaborate_program(compiled.expr)
        t_elab = time.perf_counter()
        traced_value = feval(target)
        t_eval = time.perf_counter()

        totals["lexer"] += t_lex - start
        totals["parser"] += (t_parse - t_lex) - (t_lex - start)
        totals["infer"] += t_infer - t_parse
        totals["resolution"] += sum(spans)
        totals["elaborate"] += (t_elab - t_infer) - sum(spans)
        totals["eval"] += t_eval - t_elab
        totals["split"] += t_eval - start
        counts["tokens"] += len(tokens)
        counts["queries"] += stats.queries
        counts["steps"] += stats.resolve_steps
        counts["unify_calls"] += stats.unify_calls
        counts["fterm_nodes"] += _fterm_nodes(target)
        for got in (value, traced_value):
            if got != prog.expected:
                wrong.append(f"{got!r} != {prog.expected!r}")
    return {"programs": len(gen.ROUND_SIZES), "totals_s": totals, "counts": counts, "wrong": wrong}


def _compute(seed: int, sessions: int, cache_dir: str | None, sharded: bool) -> dict:
    """The traffic through an in-process service, one request at a time.

    Sharded, the service is a :class:`ShardSupervisor` over two worker
    processes, and its own wire counters are read directly: a
    ``server/stats`` round trip would add the shards' stats answers,
    whose ``uptime_s`` field varies in length, to the bytes counted.
    """
    from repro.service.server import ResolutionService
    from repro.service.shards import ShardSupervisor

    if sharded:
        service = ShardSupervisor(workers=2)
    else:
        service = ResolutionService(workers=1, cache_dir=cache_dir)
    times: list[float] = []
    wrong = []
    failed = 0
    try:
        for index in range(sessions):
            for req in gen.service_session(seed, index, f"s{index}"):
                payload = {"id": 1, "op": req.op, "params": req.params}
                t0 = time.perf_counter()
                response = service.handle_sync(payload)
                times.append((time.perf_counter() - t0) * 1000.0)
                verdict = gen.judge(req, response, sharded)
                if verdict is not None:
                    failed += 1
                    if verdict != "known":
                        wrong.append(verdict)
        if sharded:
            counters = service.stats.as_dict()
        else:
            counters = service.handle_sync({"id": 0, "op": "server/stats"})["result"]["counters"]
    finally:
        service.shutdown()
    return {"latencies_ms": times, "counters": counters, "failed": failed, "wrong": wrong}


def main() -> None:
    warm = gen.program(WARM_SEED, 0, 1000)
    if run_source(warm.source) != warm.expected:
        raise SystemExit("warm-up program gave a wrong answer")
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:  # a set-up sample: started, warmed up, done
        return
    job = json.loads(line)
    if job["job"] == "corpus":
        result = _corpus(job["seed"], job["seconds"])
    elif job["job"] == "layers":
        result = _layers(job["seed"])
    elif job["job"] == "compute":
        result = _compute(job["seed"], job["sessions"], job["cache_dir"], job["sharded"])
    else:
        raise SystemExit(f"unknown job {job['job']!r}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
