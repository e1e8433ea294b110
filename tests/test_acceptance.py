"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` — the per-test verdicts are
the pass/fail lines.  Budgets are asserted from wall-clock time.
"""

import random
import time
from itertools import product

import pytest

from bnkit import (
    Cube,
    GenSpec,
    eval_on_cube,
    fixed_points,
    generate_bnet,
    maximal_trap_spaces,
    minimal_trap_spaces,
    parse_bnet,
    reachability,
    successors,
)
from bnkit import bench
from bnkit.cli import main as cli_main
from bnkit.dynamics import attractors
from bnkit.network import export_bnet
from nettools import (
    _mp_reachable_states,
    eval_oracle,
    image_table,
    is_unate,
    oracle_fixed_points,
    oracle_maximal_traps,
    oracle_minimal_traps,
    oracle_suite,
    prime_oracle,
    random_expression,
    read_function,
)
from bnkit import closure

EXAMPLE = "targets, factors\na, !b\nb, !a\nc, !(a & !b) & !c\n"


def _report(num, label, elapsed, budget):
    print("criterion %d (%s): PASS in %.2fs (budget %gs)" % (num, label, elapsed, budget))
    assert elapsed < budget


def _cli(*argv):
    import io

    out, err = io.StringIO(), io.StringIO()
    code = cli_main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_worked_example():
    t0 = time.monotonic()
    net = parse_bnet(EXAMPLE)
    names = net.names
    assert set(fixed_points(net)) == {(1, 0, 0)}
    assert set(minimal_trap_spaces(net)) == {
        Cube.parse("01*", names),
        Cube.parse("100", names),
    }
    assert set(maximal_trap_spaces(net)) == {
        Cube.parse("10*", names),
        Cube.parse("01*", names),
    }
    assert reachability(net, (0, 0, 0), (1, 1, 1), "mp") is True
    assert reachability(net, (0, 1, 0), (1, 0, 0), "mp") is False
    _report(1, "worked-example exactness", time.monotonic() - t0, 1.0)


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    suite = oracle_suite(200)
    assert len(suite) >= 200
    saw_non_unate = False
    for seed, net in suite:
        assert net.n <= 7
        saw_non_unate = saw_non_unate or not all(map(is_unate, net.functions))
        table = image_table(net)
        assert set(fixed_points(net)) == oracle_fixed_points(net, table=table)
        assert set(minimal_trap_spaces(net)) == oracle_minimal_traps(net, table=table)
        assert set(maximal_trap_spaces(net)) == oracle_maximal_traps(net, table=table)
    assert saw_non_unate
    _report(2, "oracle equivalence, %d networks" % len(suite), time.monotonic() - t0, 120.0)


def test_criterion_3_mp_consistency():
    t0 = time.monotonic()
    nets = [(seed, net) for seed, net in oracle_suite(200) if net.n <= 6]
    assert nets
    for seed, net in nets:
        mins = set(minimal_trap_spaces(net))
        for state in product((0, 1), repeat=net.n):
            reach = _mp_reachable_states(net, state)
            for target in product((0, 1), repeat=net.n):
                assert reachability(net, state, target, "mp") == (target in reach)
            for nxt in successors(net, state, "asynchronous"):
                assert nxt in reach
            hull = closure(net, Cube.from_state(state))
            assert all(hull.contains(y) for y in reach)
            expected = {t for t in mins if any(t.contains(y) for y in reach)}
            assert set(attractors(net, reachable_from=state)) == expected
    _report(3, "MP consistency, %d networks" % len(nets), time.monotonic() - t0, 300.0)


def test_criterion_4_eval_on_cube():
    t0 = time.monotonic()
    rng = random.Random(404)
    non_unate = 0
    for trial in range(10000):
        k = 16 if trial % 500 == 0 else min(rng.randint(1, 16), rng.randint(1, 16))
        names = ["v%d" % i for i in range(k)]
        index = {name: i for i, name in enumerate(names)}
        fn = read_function(random_expression(rng, names), index)
        assert len(fn.support) <= 16
        cube = Cube(tuple(rng.randint(0, 2) for _ in range(k)))
        assert eval_on_cube(fn, cube) == eval_oracle(fn, cube)
        if is_unate(fn):
            assert fn.primes is fn.dnf
        else:
            non_unate += 1
            if len(fn.support) <= 4:
                assert fn.primes.clauses == prime_oracle(fn)
    assert non_unate > 0
    _report(4, "eval exactness, %d non-unate of 10000" % non_unate, time.monotonic() - t0, 60.0)


def test_criterion_5_scaled_performance(tmp_path):
    path = tmp_path / "big.bnet"
    path.write_text(generate_bnet(GenSpec(n=10000, family="inhibitor-dominant", seed=0)))
    t0 = time.monotonic()
    net = parse_bnet(path.read_text())
    first = next(minimal_trap_spaces(net, deadline=t0 + 120.0), None)
    t_min = time.monotonic() - t0
    assert first is not None
    t1 = time.monotonic()
    fp = next(fixed_points(net, deadline=t1 + 120.0), None)
    t_fix = time.monotonic() - t1
    assert fp is not None
    print("criterion 5 (scaled performance, n=10000): PASS, min %.1fs fix %.1fs (budget 120s each)"
          % (t_min, t_fix))
    assert t_min <= 120.0 and t_fix <= 120.0


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("suite")
    for seed in range(10):
        text = generate_bnet(GenSpec(n=12, seed=seed))
        (root / ("m%02d.bnet" % seed)).write_text(text)
    return root


def test_criterion_6_bench_fidelity(suite_dir):
    t0 = time.monotonic()
    records = bench.run_suite(suite_dir, "min", timeout=60.0)
    assert len(records) == 10
    summary = bench.format_summary(records)
    header = [cell for cell in summary.splitlines()[0].split("\t") if cell]
    assert header == ["<0.5s", "<2s", "<10s", "<1min", "<10min", "<1h"]
    for rec, line in zip(records, bench.to_tsv(records).splitlines()):
        model, problem, seconds, status = line.split("\t")
        assert (model, problem, status) == (rec.model, "min", rec.status)
        assert abs(float(seconds) - rec.seconds) < 1e-6
        assert status == "ok" and rec.seconds <= 60.0
    forced = bench.run_model(suite_dir / "m00.bnet", "min", 0.0)
    assert forced.status == "timeout"
    _report(6, "bench fidelity", time.monotonic() - t0, 120.0)


def test_criterion_7_roundtrip_and_determinism(suite_dir):
    t0 = time.monotonic()
    for path in sorted(suite_dir.glob("*.bnet")):
        once = export_bnet(parse_bnet(path.read_text()))
        assert export_bnet(parse_bnet(once)) == once
    model = str(sorted(suite_dir.glob("*.bnet"))[0])
    for args in (
        ("trapspaces", "--min", model),
        ("trapspaces", "--max", model),
        ("fixpoints", model),
        ("attractors", model),
        ("generate", "--nodes", "30", "--seed", "5"),
    ):
        a, b = _cli(*args), _cli(*args)
        assert a == b and a[0] == 0
    _report(7, "round-trip and determinism", time.monotonic() - t0, 120.0)
