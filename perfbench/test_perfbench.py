"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench -q

They check that inputs depend on the seed alone, that the independent
answers agree with the example programs' hand-written ones, and that
every workload and the traced run complete briefly with correct output.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import gen
from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _inputs_digest(seed: int) -> str:
    digest = hashlib.sha256()
    for prog in gen.corpus_round(seed, 3):
        digest.update(prog.source.encode())
        digest.update(repr(prog.expected).encode())
    for req in gen.service_session(seed, 5, "s5"):
        digest.update(json.dumps([req.op, req.params, repr(req.expect)]).encode())
    return digest.hexdigest()


def test_same_seed_same_inputs_in_any_process():
    here = _inputs_digest(7)
    code = "import test_perfbench as t; print(t._inputs_digest(7))"
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=HERE)
    there = subprocess.run([sys.executable, "-c", code], env=env, cwd=HERE,
                           capture_output=True, text=True, check=True).stdout.strip()
    assert here == there
    assert _inputs_digest(8) != here


def test_corpus_round_sizes():
    sizes = [len(p.source) for p in gen.corpus_round(1, 0)]
    assert all(target <= size < target + 1500 for size, target in zip(sizes, gen.ROUND_SIZES))


def test_expected_values_match_the_examples():
    answers = {tuple(args): expected for args, expected, _ in gen.EXAMPLES}
    # eq.impl: p1 = (4, True), p2 = (8, True) under primEqInt, then isEven.
    eq = tuple(
        gen._equal(("Int", "Bool"), (4, True), (8, True), int_eq, gen._BOOL_EQS[0][1])
        for _, int_eq in gen._INT_EQS[:2]
    )
    assert repr(eq) == answers[("run", "examples/programs/eq.impl")]
    # show.impl: comma, then space, over [1, 2, 3].
    show = tuple(sep.join(str(x) for x in (1, 2, 3)) for sep in (",", " "))
    assert repr(show) == answers[("run", "examples/programs/show.impl")]
    # sort.impl: ltInt, then the descending override, over [2, 1, 3].
    src, key, reverse = gen._COMPARATORS[0]
    assert src == "\\x y . y < x" and key is None and reverse
    sort = (tuple(sorted([2, 1, 3])), tuple(sorted([2, 1, 3], reverse=True)))
    assert repr(sort) == answers[("run", "examples/programs/sort.impl")]
    assert answers[("lint", "examples/programs/broken.impl")] == [
        "IC0402", "IC0301", "IC0501", "IC0401"]


def test_sessions_answer_by_construction():
    reqs = gen.service_session(3, 0, "s0")
    resolves = [r for r in reqs if r.op == "resolve"]
    assert len(resolves) == gen.RESOLVES
    assert len({json.dumps(r.params) for r in resolves}) < gen.RESOLVES  # repeats
    for r in resolves:
        assert r.expect["size"] >= 1 and r.expect["query"] == r.params["type"]
    assert [r.op for r in reqs].count("subtyping/check") == 1


def _run(workload: str, seconds: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", str(seconds),
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run(workload):
    proc = _run(workload, 1, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "service_sharded":
        # The known fault: one failed subtyping/check per 31-request session.
        assert result["failed"] * 31 == result["attempted"]
    else:
        assert result["failed"] == 0


def test_traced_counts_repeat_exactly():
    names = {m["name"] for m in _spec()["per_layer"]}
    results = []
    for _ in range(2):
        proc = _run("source_corpus", 1, 1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for result in results:
        assert result["correct"]
        assert set(result["metrics"]) == names
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "bytes", "ratio")}
              for r in results]
    assert counts[0] == counts[1]


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".perfbench_run", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_examples", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:  # a benchmark run still uses it
            pass
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_known_failure_is_accepted_from_a_sharded_server_only():
    req = next(r for r in gen.service_session(3, 0, "s0") if r.op == "subtyping/check")
    response = {"ok": False, "error": {"code": "unknown_op", "message": "unknown op"}}
    assert gen.judge(req, response, sharded=True) == "known"
    assert gen.judge(req, response, sharded=False) not in (None, "known")


def _compare(tmp_path, parent: list[dict], change: list[dict]) -> subprocess.CompletedProcess:
    files = []
    for name, runs in (("parent", parent), ("change", change)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"source_corpus": runs}))
        files.append(str(path))
    return subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), *files],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)


def _result(ops_s: float, failed: int = 0, correct: bool = True) -> dict:
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in _spec()["end_to_end"]}
    metrics["ops_s"]["value"] = ops_s
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}


def test_compare_refuses_a_gain_with_wrong_answers_or_more_failures(tmp_path):
    parent = [_result(10.0 + i / 10) for i in range(5)]
    faster = [_result(20.0 + i / 10) for i in range(5)]
    proc = _compare(tmp_path, parent, faster)
    assert proc.returncode == 0 and "better" in proc.stdout, proc.stdout
    for change in ([_result(20.0 + i / 10, correct=i > 0) for i in range(5)],
                   [_result(20.0 + i / 10, failed=1) for i in range(5)]):
        proc = _compare(tmp_path, parent, change)
        assert proc.returncode == 1 and "invalid" in proc.stdout, proc.stdout
        assert "better" not in proc.stdout
