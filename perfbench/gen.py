"""Seeded inputs for the benchmark, each with its answer computed here.

Nothing in this module imports ``repro``: the expected values are worked
out in plain Python from how each input was built, so the program under
test is checked against an answer it did not produce.

* :func:`corpus_round` -- one round of generated source programs (the
  ``source_corpus`` workload and the service ``run_source`` requests);
* :func:`service_session` -- one session of service traffic;
* :data:`EXAMPLES` -- the example programs' hand-written answers.

Every generator takes ``(seed, index)`` and draws from its own
``random.Random``, so the same seed gives byte-identical inputs whatever
was generated before.  ``python3 perfbench/gen.py --seed 1 --dump DIR``
writes one round of each to ``DIR`` for inspection.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass

#: Target sizes in bytes of the programs of one corpus round.  Every round
#: has the same size mix, so throughput does not depend on which seeds
#: fall into a run; an odd count puts the median inside one size class.
ROUND_SIZES = (1000, 1500, 2500, 4000, 6000, 9000, 12000)

PRELUDE = """\
interface Eq a = { eq : a -> a -> Bool };

def eqv : forall a . {Eq a} => a -> a -> Bool = eq ?;
def show : forall a . {a -> String} => a -> String = ?;
def isort : forall a . {a -> a -> Bool} => [a] -> [a] = \\xs . sortBy ? xs;
"""

# Int equalities: (source text, Python meaning).
_INT_EQS = (
    ("primEqInt", lambda x, y: x == y),
    ("\\x y . isEven x && isEven y", lambda x, y: x % 2 == 0 and y % 2 == 0),
    ("\\x y . primEqInt (mod x 3) (mod y 3)", lambda x, y: x % 3 == y % 3),
)
_BOOL_EQS = (
    ("primEqBool", lambda x, y: x == y),
    ("\\x y . True", lambda x, y: True),
)
# Int comparators: (source text, sort key, reverse).
_COMPARATORS = (
    ("\\x y . y < x", None, True),
    ("\\x y . mod x 10 < mod y 10", lambda v: v % 10, False),
    ("\\x y . mod y 7 < mod x 7", lambda v: v % 7, True),
)
_SEPARATORS = (",", " ", ";", " | ", "-", "::")


def _rng(*parts: object) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


@dataclass(frozen=True)
class Program:
    """A source program and the value ``run_source`` must return."""

    source: str
    expected: object


# ---------------------------------------------------------------------------
# Source programs
# ---------------------------------------------------------------------------


def _shape(rng: random.Random, depth: int):
    """A pair type over Int/Bool leaves: 'Int', 'Bool' or (left, right)."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(("Int", "Bool"))
    return (_shape(rng, depth - 1), _shape(rng, depth - 1))


def _type_text(shape) -> str:
    if isinstance(shape, str):
        return shape
    return f"({_type_text(shape[0])}, {_type_text(shape[1])})"


def _value(rng: random.Random, shape):
    if shape == "Int":
        return rng.randrange(0, 20)
    if shape == "Bool":
        return rng.random() < 0.5
    return (_value(rng, shape[0]), _value(rng, shape[1]))


def _perturb(rng: random.Random, shape, value):
    """``value`` with about a third of its leaves redrawn."""
    if isinstance(shape, str):
        return _value(rng, shape) if rng.random() < 0.35 else value
    return (_perturb(rng, shape[0], value[0]), _perturb(rng, shape[1], value[1]))


def _value_text(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, int):
        return str(value)
    return f"({_value_text(value[0])}, {_value_text(value[1])})"


def _equal(shape, x, y, int_eq, bool_eq) -> bool:
    if shape == "Int":
        return int_eq(x, y)
    if shape == "Bool":
        return bool_eq(x, y)
    return _equal(shape[0], x[0], y[0], int_eq, bool_eq) and _equal(
        shape[1], x[1], y[1], int_eq, bool_eq
    )


def _pairs(ty):
    """Nest a list of (type text, value) into a right-nested pair."""
    if len(ty) == 1:
        return ty[0]
    rest = _pairs(ty[1:])
    return (f"({ty[0][0]}, {rest[0]})", (ty[0][1], rest[1]))


def _eq_unit(rng: random.Random, k: int) -> tuple[list[str], str, str, object]:
    """Eq with pair instances under nested implicit scopes."""
    shape = _shape(rng, rng.randint(1, 3))
    if isinstance(shape, str):
        shape = (shape, "Int")
    p = _value(rng, shape)
    q = _perturb(rng, shape, p) if rng.random() < 0.7 else p
    ints = rng.sample(range(len(_INT_EQS)), 2)
    bool_i = rng.randrange(len(_BOOL_EQS))
    t = _type_text(shape)
    defs = [
        f"def eqIntA{k} : Eq Int = Eq {{ eq = {_INT_EQS[ints[0]][0]} }};",
        f"def eqIntB{k} : Eq Int = Eq {{ eq = {_INT_EQS[ints[1]][0]} }};",
        f"def eqBool{k} : Eq Bool = Eq {{ eq = {_BOOL_EQS[bool_i][0]} }};",
        f"def eqPair{k} : forall a b . {{Eq a, Eq b}} => Eq (a, b) =\n"
        f"  Eq {{ eq = \\x y . eqv (fst x) (fst y) && eqv (snd x) (snd y) }};",
        f"def p{k} : {t} = {_value_text(p)};",
        f"def q{k} : {t} = {_value_text(q)};",
    ]
    # Scopes alternate the two Int instances; the innermost one decides.
    depth = rng.randint(2, 4)
    order = [ints[i % 2] for i in range(depth)]
    bool_eq = _BOOL_EQS[bool_i][1]
    results = [_equal(shape, p, q, _INT_EQS[i][1], bool_eq) for i in order]
    names = {ints[0]: f"eqIntA{k}", ints[1]: f"eqIntB{k}"}
    body = f"eqv p{k} q{k}"
    for level in range(depth - 1, 0, -1):
        body = f"(eqv p{k} q{k}, implicit {names[order[level]]} in {body})"
    expr = f"implicit {{{names[order[0]]}, eqBool{k}, eqPair{k}}} in {body}"
    ty, value = _pairs([("Bool", r) for r in results])
    return defs, ty, expr, value


def _show_unit(rng: random.Random, k: int) -> tuple[list[str], str, str, object]:
    """Higher-order Show rules with a local override of the element show."""
    sep_a, sep_b = rng.sample(_SEPARATORS, 2)
    xs = [rng.randrange(0, 100) for _ in range(rng.randint(2, 6))]
    lst = "[" + ", ".join(str(x) for x in xs) + "]"
    defs = [
        f"def sepA{k} : forall a . {{a -> String}} => [a] -> String =\n"
        f"  \\xs . intercalate {json.dumps(sep_a)} (map ? xs);",
        f"def sepB{k} : forall a . {{a -> String}} => [a] -> String =\n"
        f"  \\xs . intercalate {json.dumps(sep_b)} (map ? xs);",
        f"def brack{k} : Int -> String = \\n . \"<\" ++ showInt n ++ \">\";",
        f"def o{k} : {{Int -> String, {{Int -> String}} => [Int] -> String}} => String =\n"
        f"  show {lst};",
    ]
    expr = (
        f"implicit showInt in (implicit sepA{k} in o{k}, "
        f"implicit brack{k} in implicit sepB{k} in o{k})"
    )
    value = (sep_a.join(str(x) for x in xs), sep_b.join(f"<{x}>" for x in xs))
    return defs, "(String, String)", expr, value


def _sort_unit(rng: random.Random, k: int) -> tuple[list[str], str, str, object]:
    """Implicit comparators with a local override (paper section 1)."""
    src, key, reverse = _COMPARATORS[rng.randrange(len(_COMPARATORS))]
    xs = [rng.randrange(0, 50) for _ in range(rng.randint(3, 8))]
    lst = "[" + ", ".join(str(x) for x in xs) + "]"
    defs = [f"def cmp{k} : Int -> Int -> Bool = {src};"]
    expr = f"implicit ltInt in (isort {lst}, implicit cmp{k} in isort {lst})"
    # A stable sort by a strict order; Python's sort is stable too.  With
    # ``reverse`` the order is "greater key first", stable within a key.
    if key is None:
        key = lambda v: v  # noqa: E731
    overridden = sorted(xs, key=lambda v: -key(v) if reverse else key(v))
    return defs, "([Int], [Int])", expr, (tuple(sorted(xs)), tuple(overridden))


_UNITS = (_eq_unit, _show_unit, _sort_unit)


def program(seed: int, index: int, target_bytes: int) -> Program:
    """A program of about ``target_bytes``: units until the size is reached.

    The unit kinds take turns, so programs of one size do the same kinds
    of work whatever the seed; the seed picks what is inside each unit.
    """
    rng = _rng("program", seed, index)
    parts = [PRELUDE]
    size = len(PRELUDE)
    results: list[tuple[str, object]] = []
    k = 0
    while size < target_bytes or not results:
        defs, ty, expr, value = _UNITS[(index + k) % len(_UNITS)](rng, k)
        defs.append(f"def r{k} : {ty} =\n  {expr};")
        chunk = "\n".join(defs) + "\n\n"
        parts.append(chunk)
        size += len(chunk)
        results.append((f"r{k}", value))
        k += 1
    main = results[-1][0]
    for name, _ in reversed(results[:-1]):
        main = f"({name}, {main})"
    parts.append(main + "\n")
    expected = results[-1][1]
    for _, value in reversed(results[:-1]):
        expected = (value, expected)
    return Program("".join(parts), expected)


def corpus_round(seed: int, round_index: int) -> list[Program]:
    """One round: one program per entry of :data:`ROUND_SIZES`."""
    return [
        program(seed, round_index * len(ROUND_SIZES) + i, size)
        for i, size in enumerate(ROUND_SIZES)
    ]


# ---------------------------------------------------------------------------
# Service traffic
# ---------------------------------------------------------------------------

#: Constructors in one session's wide frame.
WIDE = 100
#: ``resolve`` requests per session, and the share of them that repeat an
#: earlier query of the same session (derivation-cache hits).
RESOLVES = 24
REPEAT_SHARE = 0.25


@dataclass(frozen=True)
class Request:
    """One request of a session and the check its answer must pass.

    ``expect`` is the exact ``result`` object, or for ``run_source`` the
    Python value whose ``repr`` the result's ``value`` must be.
    """

    op: str
    params: dict
    expect: object


def _wide_frame(rng: random.Random) -> tuple[list[str], dict[str, tuple[str, int]]]:
    """~100 distinct-constructor rules and two polymorphic ones.

    Constructor ``Tj`` is either a ground fact or needs ``Int`` and
    ``T(j-1)``.  Returns the rule texts (exactly as the server prints
    them) and, per head, its rule and derivation size.
    """
    pair_rule, list_rule = "forall a b . {a, b} => (a, b)", "forall a . {a} => [a]"
    rules = ["Int", "Bool", pair_rule, list_rule]
    heads = {"Int": ("Int", 1), "Bool": ("Bool", 1), "pair": (pair_rule, 1), "list": (list_rule, 1)}
    for j in range(WIDE):
        if j == 0 or rng.random() < 0.2:
            rule, size = f"T{j}", 1
        else:
            rule, size = f"{{Int, T{j - 1}}} => T{j}", heads[f"T{j - 1}"][1] + 2
        rules.append(rule)
        heads[f"T{j}"] = (rule, size)
    return rules, heads


def _query(rng: random.Random, heads: dict[str, tuple[str, int]]) -> tuple[str, str, int]:
    """A resolvable query, its matched rule text and its derivation size."""
    atom = f"T{rng.randrange(WIDE)}"
    shape = rng.randrange(3)
    if shape == 0:
        return (atom, *heads[atom])
    if shape == 1:
        other = rng.choice((f"T{rng.randrange(WIDE)}", "Int", "Bool"))
        return f"({atom}, {other})", heads["pair"][0], 1 + heads[atom][1] + heads[other][1]
    return f"[{atom}]", heads["list"][0], 1 + heads[atom][1]


def service_session(seed: int, index: int, name: str) -> list[Request]:
    """One session: new, wide push, resolves, subtyping, run_source, pop/push, close."""
    rng = _rng("session", seed, index)
    rules, heads = _wide_frame(rng)
    reqs = [
        Request("session/new", {"name": name}, {"session": name, "depth": 0}),
        Request("session/push_rules", {"session": name, "rules": rules},
                {"session": name, "depth": 1}),
    ]
    asked: list[Request] = []
    for _ in range(RESOLVES):
        if asked and rng.random() < REPEAT_SHARE:
            reqs.append(rng.choice(asked))
            continue
        query, matched, size = _query(rng, heads)
        req = Request(
            "resolve",
            {"session": name, "type": query},
            {"resolved": True, "query": query, "matched": matched, "size": size},
        )
        asked.append(req)
        reqs.append(req)
    # Half the checks ask for a constructor outside the frame: "fails".
    if rng.random() < 0.5:
        query, holds, verdict = f"T{rng.randrange(WIDE)}", True, "holds"
    else:
        query, holds, verdict = f"U{rng.randrange(WIDE)}", False, "fails"
    reqs.append(Request("subtyping/check", {"session": name, "type": query},
                        {"query": query, "holds": holds, "verdict": verdict}))
    prog = program(seed, 10_000_000 + index, 300)
    reqs.append(Request("run_source", {"session": name, "program": prog.source},
                        prog.expected))
    reqs += [
        Request("session/pop", {"session": name}, {"session": name, "depth": 0}),
        Request("session/push_rules", {"session": name, "rules": rules},
                {"session": name, "depth": 1}),
        Request("session/close", {"session": name}, {"session": name, "closed": True}),
    ]
    return reqs


def check_result(req: Request, result: dict) -> bool:
    """Whether ``result`` (an ``ok`` response's result) answers ``req``."""
    if req.op == "run_source":
        return result.get("value") == repr(req.expect)
    if req.op == "subtyping/check":
        return all(result.get(k) == v for k, v in req.expect.items())
    return result == req.expect


#: The one failure a sharded server is known to give: it does not route
#: ``subtyping/check`` (the op is missing from its work-op table).
KNOWN_FAILURE = ("subtyping/check", "unknown_op")


def judge(req: Request, response: dict, sharded: bool) -> str | None:
    """``None`` if ``response`` answers ``req`` right, ``"known"`` for the
    known sharded failure, else a description of the wrong answer."""
    if response.get("ok"):
        if check_result(req, response["result"]):
            return None
        return f"{req.op} {req.params.get('type', '')}: {response['result']}"
    if sharded and (req.op, response["error"]["code"]) == KNOWN_FAILURE:
        return "known"
    return f"{req.op}: {response['error']}"


# ---------------------------------------------------------------------------
# The example programs
# ---------------------------------------------------------------------------

#: ``(argv after "python -m repro", expected stdout value line, exit code)``
#: -- answers from the paper and the programs' own headers.  For ``lint``
#: the expected value is the exact list of codes reported.
EXAMPLES = (
    (["run", "examples/programs/eq.impl"], "(False, True)", 0),
    (["run", "examples/programs/show.impl"], "('1,2,3', '1 2 3')", 0),
    (["run", "examples/programs/sort.impl"], "((1, 2, 3), (3, 2, 1))", 0),
    (["run", "--strategy", "corecursive", "examples/programs/recursive_eq.impl"], "True", 0),
    (["check", "examples/programs/eq.impl"], "(Bool, Bool)", 0),
    (["lint", "examples/programs/broken.impl"], ["IC0402", "IC0301", "IC0501", "IC0401"], 1),
)


def _dump(seed: int, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    for i, prog in enumerate(corpus_round(seed, 0)):
        with open(os.path.join(out, f"corpus_{i}.impl"), "w") as fh:
            fh.write(prog.source)
        with open(os.path.join(out, f"corpus_{i}.expected"), "w") as fh:
            fh.write(repr(prog.expected) + "\n")
    with open(os.path.join(out, "session_0.jsonl"), "w") as fh:
        for req in service_session(seed, 0, "s0"):
            fh.write(json.dumps({"op": req.op, "params": req.params,
                                 "expect": req.expect if req.op != "run_source"
                                 else repr(req.expect)}) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dump", required=True, metavar="DIR")
    args = parser.parse_args()
    _dump(args.seed, args.dump)
