"""Workload inputs, timed steps and output checks.

Each workload turns a seed into model texts (the benchmark's inputs) and the
parsed networks into a list of steps.  A step is one call into bnkit's public
API; its result is checked after timing, outside any traced region.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from bnkit import (
    Cube,
    GenSpec,
    attractors,
    build_stg,
    closure,
    fixed_points,
    generate_bnet,
    is_trap_space,
    maximal_trap_spaces,
    minimal_trap_spaces,
    reachability,
)
from bnkit.generator import FAMILIES

import oracle

# Why these sizes: see README.md in this directory.
SCALE_SIZES = (200,)
SCALE_PER_FAMILY = 100
ENUM_SIZES = (8, 8, 10, 12, 14, 16, 18) * 100
MP_SIZES = (6,) * 250
MP_PAIRS_PER_NET = 4
MP_RESAMPLE = 20
# A step that has not answered by then counts as failed.  No step of the
# benchmark's workloads came near it: the slowest seen took 2 s.
QUERY_DEADLINE_S = 20.0
# scale-max only: enough for every first max answer that arrives at all.
SCALE_MAX_DEADLINE_S = 5.0


@dataclass
class Step:
    group: str  # label of the model (and pair) the step belongs to
    kind: str
    run: Callable  # run(deadline) -> result
    check: Callable  # check(result) -> error message or None


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable  # inputs(seed) -> [(label, bnet text, extra)]
    steps: Callable  # steps([(label, text, net, extra)]) -> [Step]
    latency_kinds: tuple  # step kinds whose times make the latency samples
    detail: Callable  # detail({kind: [seconds]}) -> {metric: value}
    deadline_s: float = QUERY_DEADLINE_S  # a step that runs out counts as failed


# ---------------------------------------------------------------------------
# Input builders


def random_expression(rng, names):
    """Random clause-list function; about a quarter are 2-input XORs."""
    r = rng.random()
    if r < 0.05:
        return rng.choice(["0", "1"])
    if r < 0.30:
        a, b = rng.sample(names, 2)
        return "(%s & !%s) | (!%s & %s)" % (a, b, a, b)
    clauses = []
    for _ in range(rng.randint(1, 3)):
        width = rng.randint(1, min(3, len(names)))
        lits = [
            name if rng.random() < 0.5 else "!" + name
            for name in rng.sample(names, width)
        ]
        clauses.append("(" + " & ".join(lits) + ")")
    return " | ".join(clauses)


def random_bnet(rng, n):
    names = ["n%d" % i for i in range(n)]
    lines = ["targets, factors"]
    lines.extend("%s, %s" % (name, random_expression(rng, names)) for name in names)
    return "\n".join(lines) + "\n"


def _random_state(rng, n):
    return tuple(rng.randint(0, 1) for _ in range(n))


def scale_first_inputs(seed):
    rng = random.Random(seed)
    out = []
    for n in SCALE_SIZES:
        for family in FAMILIES:
            for k in range(SCALE_PER_FAMILY):
                spec = GenSpec(n=n, family=family, seed=rng.randrange(2**31))
                out.append(("%s-%d-%d" % (family, n, k), generate_bnet(spec), None))
    return out


def enum_small_inputs(seed):
    rng = random.Random(seed)
    return [
        ("rand-%d-%d" % (n, k), random_bnet(rng, n), None)
        for k, n in enumerate(ENUM_SIZES)
    ]


def mp_reach_inputs(seed):
    """Model texts; the extra item seeds the choice of (x, y) pairs."""
    rng = random.Random(seed)
    return [
        ("rand-%d-%d" % (n, k), random_bnet(rng, n), rng.randrange(2**31))
        for k, n in enumerate(MP_SIZES)
    ]


def mp_reach_pairs(functions, pair_seed):
    """(x, y, closure of x) triples.

    Pair 0 draws y uniformly, so some queries end at the closure test.  The
    others draw x with a non-trivial closure and y != x inside it, so they
    need the search; a fixed share of each keeps the latency mix steady.
    """
    rng = random.Random(pair_seed)
    n = len(functions)
    pairs = []
    for k in range(MP_PAIRS_PER_NET):
        for _ in range(MP_RESAMPLE):
            x = _random_state(rng, n)
            trap = oracle.closure(functions, x)
            if oracle.FREE in trap:
                break
        if k == 0 or oracle.FREE not in trap:
            y = _random_state(rng, n)
        else:
            y = x
            while y == x:
                y = tuple(v if v != oracle.FREE else rng.randint(0, 1) for v in trap)
        pairs.append((x, y, trap))
    return pairs


# ---------------------------------------------------------------------------
# Checks


def check_fixed(net, states):
    for x in states:
        if net.image(x) != tuple(x):
            return "fixed point %s is not fixed" % (x,)
    return None


def check_traps(net, cubes, kind):
    for cube in cubes:
        if not is_trap_space(net, cube):
            return "%s answer %s is not a trap space" % (kind, cube)
    for a, b in combinations(cubes, 2):
        if kind == "min" and a.intersect(b) is not None:
            return "minimal trap spaces %s and %s overlap" % (a, b)
        if kind == "max" and (a.subset(b) or b.subset(a)):
            return "maximal trap spaces %s and %s are nested" % (a, b)
    if kind == "max" and Cube.full(net.n) in cubes:
        return "the full cube was reported as a maximal trap space"
    return None


def _check_solver(net, kind, result, oracle_answers):
    error = check_fixed(net, result) if kind == "fix" else check_traps(net, result, kind)
    expected = oracle_answers(kind) if oracle_answers else None
    if error is None and expected is not None:
        got = {tuple(r) if kind == "fix" else r.values for r in result}
        if got != expected or len(got) != len(result):
            error = "%s answers differ from the brute-force oracle" % kind
    return error


SOLVERS = {
    "fix": fixed_points,
    "min": minimal_trap_spaces,
    "max": maximal_trap_spaces,
}


def _solver_step(label, net, kind, limit, oracle_answers=None):
    enumerate_ = SOLVERS[kind]
    return Step(
        label,
        kind,
        lambda deadline: list(enumerate_(net, limit=limit, deadline=deadline)),
        lambda result: _check_solver(net, kind, result, oracle_answers),
    )


# ---------------------------------------------------------------------------
# Steps


def scale_first_steps(models):
    return [
        _solver_step(label, net, kind, 1)
        for label, _, net, _ in models
        for kind in ("fix", "min")
    ]


def scale_max_steps(models):
    return [_solver_step(label, net, "max", 1) for label, _, net, _ in models]


def enum_small_steps(models):
    steps = []
    for label, text, net, _ in models:
        answers = {}

        def expected(kind, net=net, text=text, answers=answers):
            if net.n > oracle.ORACLE_MAX_N:
                return None
            if not answers:
                answers.update(zip(SOLVERS, oracle.answers(text)))
            return answers[kind]

        steps.extend(_solver_step(label, net, kind, None, expected) for kind in SOLVERS)
    return steps


def _check_reach(net, x, y, trap, result):
    if not isinstance(result, bool):
        return "reachability returned %r" % (result,)
    if result and not oracle.contains(trap, y):
        return "mp reach %s -> %s is true outside closure(x)" % (x, y)
    if not result and reachability(net, x, y, "asynchronous"):
        return "asynchronously reachable %s -> %s is not mp-reachable" % (x, y)
    return None


def _check_attractors(net, x, trap, result):
    if not result:
        return "no attractor reachable from %s" % (x,)
    if closure(net, Cube.from_state(x)).values != trap:
        return "closure(%s) differs from the brute-force closure" % (x,)
    for cube in result:
        if not oracle.subset(cube.values, trap):
            return "attractor %s lies outside closure(%s)" % (cube, x)
    return check_traps(net, result, "min")


def _check_stg(net, stg):
    if len(stg.nodes) != 2**net.n:
        return "asynchronous STG has %d nodes" % len(stg.nodes)
    for src, dst in stg.edges:
        if sum(a != b for a, b in zip(src, dst)) != 1:
            return "asynchronous STG edge %s -> %s flips several components" % (src, dst)
    return None


def mp_reach_steps(models):
    steps = []
    for label, text, net, pair_seed in models:
        pairs = mp_reach_pairs(oracle.compile_bnet(text), pair_seed)
        for k, (x, y, trap) in enumerate(pairs):
            group = "%s/%d" % (label, k)
            steps.append(Step(
                group,
                "reach",
                lambda deadline, net=net, x=x, y=y: reachability(net, x, y, "mp"),
                lambda result, net=net, x=x, y=y, trap=trap: _check_reach(
                    net, x, y, trap, result),
            ))
            steps.append(Step(
                group,
                "attractors",
                lambda deadline, net=net, x=x: list(
                    attractors(net, reachable_from=x, deadline=deadline)
                ),
                lambda result, net=net, x=x, trap=trap: _check_attractors(
                    net, x, trap, result),
            ))
        steps.append(Step(
            label,
            "stg",
            lambda deadline, net=net: build_stg(net, "asynchronous"),
            lambda result, net=net: _check_stg(net, result),
        ))
    return steps


# ---------------------------------------------------------------------------
# Named per-workload figures (reported alongside the common metrics)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _sums(suffix):
    def detail(times):
        return {"%s.%s" % (kind, suffix): sum(v) for kind, v in times.items()}

    return detail


def _mp_detail(times):
    reach = times["reach"]
    return {
        "reach.p50_s": statistics.median(reach),
        "reach.p95_s": percentile(reach, 95),
        "reach.samples": len(reach),
        "attractors_s": sum(times["attractors"]),
        "stg_s": sum(times["stg"]),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scale-first", scale_first_inputs, scale_first_steps,
                 ("fix", "min"), _sums("ttfs_s")),
        Workload("enum-small", enum_small_inputs, enum_small_steps,
                 ("fix", "min", "max"), _sums("all_s")),
        Workload("mp-reach", mp_reach_inputs, mp_reach_steps,
                 ("reach", "attractors"), _mp_detail),
    )
}

# Not benchmark workloads: some of their steps never answer, so they show a
# known defect as a failure count instead of a time (see README.md).
DIAGNOSTICS = {
    w.name: w
    for w in (
        Workload("scale-max", scale_first_inputs, scale_max_steps,
                 ("max",), _sums("ttfs_s"), SCALE_MAX_DEADLINE_S),
    )
}
