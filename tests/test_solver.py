import hashlib
import random
import time

import pytest

from bnkit import (
    Cube,
    GenSpec,
    Query,
    fixed_points,
    generate_bnet,
    maximal_trap_spaces,
    minimal_trap_spaces,
    parse_bnet,
    solver,
)
from bnkit.cubes import FREE, closure, eval_mask, is_trap_space
from bnkit.generator import FAMILIES
from nettools import (
    _maximal_trap_spaces as restart_max,
    _minimal_trap_spaces as restart_min,
    _scc_value_domains as sweep,
    image_table,
    is_maximal_trap,
    is_minimal_trap,
    oracle_fixed_points,
    oracle_maximal_traps,
    oracle_minimal_traps,
    oracle_suite,
    oracle_trap_spaces,
    random_network,
)

EXAMPLE = "targets, factors\na, !b\nb, !a\nc, !(a & !b) & !c\n"


@pytest.fixture(scope="module")
def example():
    return parse_bnet(EXAMPLE)


def states(stream):
    return {tuple(s) for s in stream}


def cubes(stream):
    return set(stream)


def test_fixed_points_worked_example(example):
    assert states(fixed_points(example)) == {(1, 0, 0)}
    assert states(fixed_points(example, Cube.parse("01*", example.names))) == set()


def test_fixed_points_identity():
    net = parse_bnet("a, a\nb, b")
    assert states(fixed_points(net)) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_minimal_worked_example(example):
    names = example.names
    assert cubes(minimal_trap_spaces(example)) == {
        Cube.parse("01*", names),
        Cube.parse("100", names),
    }
    assert cubes(minimal_trap_spaces(example, Cube.parse("100", names))) == {
        Cube.parse("100", names)
    }


def test_minimal_two_node_mutual():
    net = parse_bnet("a, b\nb, a")
    assert cubes(minimal_trap_spaces(net)) == {Cube((0, 0)), Cube((1, 1))}


def test_maximal_worked_example(example):
    names = example.names
    assert cubes(maximal_trap_spaces(example)) == {
        Cube.parse("10*", names),
        Cube.parse("01*", names),
    }
    assert cubes(maximal_trap_spaces(example, Cube.parse("01*", names))) == {
        Cube.parse("01*", names)
    }


def test_maximal_single_identity():
    net = parse_bnet("x, x")
    assert cubes(maximal_trap_spaces(net)) == {Cube((0,)), Cube((1,))}


def test_count_solutions(example):
    def count(net, query):
        return sum(1 for _ in solver.run_query(net, query))

    assert count(example, Query("minimal-trap-spaces")) == 2
    assert count(example, Query("fixed-points")) == 1
    assert count(parse_bnet(""), Query("fixed-points")) == 1


def test_empty_network():
    empty = parse_bnet("")
    assert states(fixed_points(empty)) == {()}
    assert cubes(minimal_trap_spaces(empty)) == {Cube(())}
    assert cubes(maximal_trap_spaces(empty)) == set()


def test_limit_is_prefix():
    net = parse_bnet("a, a\nb, b\nc, c")
    full = list(fixed_points(net))
    assert list(fixed_points(net, limit=3)) == full[:3]
    mins = list(minimal_trap_spaces(net))
    assert list(minimal_trap_spaces(net, limit=2)) == mins[:2]
    with pytest.raises(ValueError):
        list(fixed_points(net, limit=0))
    rng = random.Random(31)
    for _seed, net in oracle_suite(30):
        cube = Cube(tuple(rng.choice((0, 1, 2, 2)) for _ in range(net.n)))
        for within in (None, cube):
            for enum in (fixed_points, minimal_trap_spaces, maximal_trap_spaces):
                full = list(enum(net, within))
                for k in range(1, 5):
                    assert list(enum(net, within, limit=k)) == full[:k]


def identity_cases():
    """Nets and restrictions: `oracle_suite()` without `within`, with a
    random cube and with a trap space (the closure of a random state), and
    100 random nets with n = 2..12."""
    rng = random.Random(2024)
    for _seed, net in oracle_suite():
        yield net, None
        yield net, Cube(tuple(rng.choice((0, 1, 2, 2)) for _ in range(net.n)))
        state = tuple(rng.randint(0, 1) for _ in range(net.n))
        yield net, closure(net, Cube.from_state(state))
    for seed in range(100):
        yield random_network(7000 + seed, 2 + seed % 11), None


def test_drains_match_restart_per_answer_reference():
    # One search per drain must give the streams, order included, of a
    # fresh search per answer.
    kinds = {False: 0, True: 0}
    for net, within in identity_cases():
        if within is not None:
            kinds[is_trap_space(net, within)] += 1
        assert list(minimal_trap_spaces(net, within)) == list(restart_min(net, within))
        assert list(maximal_trap_spaces(net, within)) == list(restart_max(net, within))
    assert min(kinds.values()) > 100


# Nets whose streams depend on the order of the level-0 checks: which check
# fixes a component first decides whether it steers branching.  Their min
# streams are 110111, 111000 and 1000, 0010.
ORDER_CASES = [
    ("a, b\nb, a | d\nd, !e\ne, !d\np, e\nq, e", (1, 2, 2, 2, 2, 2)),
    (
        "n0, (n0 & !n3) | (!n0 & n3)\nn1, (n3 & !n1) | (!n3 & n1)\n"
        "n2, (!n3 & n1 & n2) | (n1 & n2 & n0) | (!n0)\nn3, (n1 & !n2)",
        (2, 0, 2, 2),
    ),
]

# SHA-256 of the fix, min and max streams, in order, of `identity_cases()`
# and `ORDER_CASES` (every answer) and of `generated_nets(200, range(20))`
# (first 3 answers each).  A change that reorders a stream must update it
# and list the change in CHANGES.md.
STREAM_DIGEST = "0ab485a5070a72d85ac4940d4fc64664740269d7751a30a8fefad37810d1d5f2"


def test_stream_order_is_pinned():
    digest = hashlib.sha256()
    cases = [(net, within, None) for net, within in identity_cases()]
    cases += [(parse_bnet(text), Cube(within), None) for text, within in ORDER_CASES]
    cases += [(net, None, 3) for net in generated_nets(200, range(20))]
    for net, within, limit in cases:
        for kind in ("fixed-points", "minimal-trap-spaces", "maximal-trap-spaces"):
            digest.update(kind.encode())
            for cube in solver.run_query(net, Query(kind, within, limit)):
                digest.update(b" " + str(cube).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == STREAM_DIGEST


class CountedList(list):
    """A list that counts its item lookups."""

    lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)


def test_scoped_search_reads_only_its_scope_dependents(monkeypatch):
    # A scoped search is set up over its scope alone: it looks up the
    # dependents of no component outside it.
    net = parse_bnet(generate_bnet(GenSpec(n=2000, seed=0)))
    scoped = []
    search = solver._trap_search

    def recorded(*args, **kwargs):
        if kwargs.get("scope") is not None:
            scoped.append((args, kwargs))
        return search(*args, **kwargs)

    monkeypatch.setattr(solver, "_trap_search", recorded)
    next(minimal_trap_spaces(net))
    assert scoped
    dependents = net.dependents
    for args, kwargs in scoped:
        net.dependents = CountedList(dependents)
        next(search(*args, **kwargs), None)
        assert net.dependents.lookups <= len(kwargs["scope"])


@pytest.fixture
def searches(monkeypatch):
    """Record every `_trap_search` call made without `scope`; scoped calls
    certify a single answer and are not counted."""
    calls = []
    search = solver._trap_search

    def counted(*args, **kwargs):
        if kwargs.get("scope") is None:
            calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(solver, "_trap_search", counted)
    return calls


def test_a_drain_runs_one_search(searches):
    rng = random.Random(5)
    answers = 0
    for _seed, net in oracle_suite(60):
        cube = Cube(tuple(rng.choice((0, 1, 2, 2)) for _ in range(net.n)))
        for within in (None, cube):
            for enum in (minimal_trap_spaces, maximal_trap_spaces):
                searches.clear()
                answers += len(list(enum(net, within)))
                assert len(searches) == 1
    assert answers > 200
    searches.clear()
    net = random_network(3, 6)
    assert len(list(minimal_trap_spaces(net, limit=1))) == 1
    assert searches == []


def random_within(rng, net, table):
    if rng.random() < 0.5:
        return None, Cube.full(net.n)
    cube = Cube(tuple(rng.choice((0, 1, 2)) for _ in range(net.n)))
    return cube, cube


@pytest.mark.parametrize("seed", range(40))
def test_oracle_equivalence_sample(seed):
    net = random_network(seed, (seed % 6) + 2)
    table = image_table(net)
    rng = random.Random(seed + 999)
    within, oracle_within = random_within(rng, net, table)
    assert states(fixed_points(net, within)) == oracle_fixed_points(
        net, oracle_within, table
    )
    assert cubes(minimal_trap_spaces(net, within)) == oracle_minimal_traps(
        net, oracle_within, table
    )
    assert cubes(maximal_trap_spaces(net, within)) == oracle_maximal_traps(
        net, oracle_within, table
    )


def reverse_branch_order(monkeypatch):
    forward = solver._branch_order
    monkeypatch.setattr(
        solver, "_branch_order", lambda net, scope: forward(net, scope)[::-1]
    )


def test_contradictory_terms_do_not_hide_regulators():
    # v's contradictory terms (b & !b), (d & !d) drop out of f; not f must
    # not keep b and d, which v's check is never re-run for.  Branching on
    # v, a, c first once let (a, c, v) = (0, 0, 1) through as a fixed point.
    net = parse_bnet(
        "a, a\nc, c\nv, (a & !c) | (!a & c) | (b & !b) | (d & !d)\nb, b\nd, d\n"
        "p, v\nq, v\nr, v\ns, v\n"
    )
    assert solver._branch_order(net, range(net.n))[:3] == [2, 0, 1]
    table = image_table(net)
    assert states(fixed_points(net)) == oracle_fixed_points(net, None, table)
    assert cubes(minimal_trap_spaces(net)) == oracle_minimal_traps(net, None, table)
    assert cubes(maximal_trap_spaces(net)) == oracle_maximal_traps(net, None, table)


@pytest.mark.parametrize("seed", range(12))
def test_branch_order_independence(seed, monkeypatch):
    net = random_network(seed, 5)

    def answers():
        return (
            states(fixed_points(net)),
            cubes(minimal_trap_spaces(net)),
            cubes(maximal_trap_spaces(net)),
        )

    forward = answers()
    reverse_branch_order(monkeypatch)
    assert answers() == forward


@pytest.mark.parametrize("reverse", [False, True])
def test_first_search_answer_is_extremal(reverse, monkeypatch):
    # The enumerators yield first answers of `_trap_search` unchecked: with
    # FREE tried last (first), the first answer under disjointness
    # (not-full and not-subset) clauses must already be minimal (maximal)
    # among all trap spaces in `within`.
    if reverse:
        reverse_branch_order(monkeypatch)
    rng = random.Random(4242)
    clock = solver._Deadline(None)
    answered = {False: 0, True: 0}
    for _seed, net in oracle_suite():
        table = image_table(net)
        within = Cube.full(net.n)
        if rng.random() < 0.5:
            within = Cube(tuple(rng.choice((0, 1, 2, 2)) for _ in range(net.n)))
        allowed = solver._allowed_within(within)
        blocks = [
            Cube(tuple(rng.choice((0, 1, 2)) for _ in range(net.n)))
            for _ in range(rng.randint(0, 3))
        ]
        for prefer_free, oracle, clause, admitted in (
            (False, oracle_minimal_traps, solver._disjoint_clause,
             lambda t: all(t.intersect(b) is None for b in blocks)),
            (True, oracle_maximal_traps, solver._not_subset_clause,
             lambda t: not any(t.subset(b) for b in blocks)),
        ):
            clauses = [clause(b) for b in blocks]
            if prefer_free:
                clauses.append([(i, {0, 1}) for i in range(net.n)])
            found = next(
                solver._trap_search(net, allowed, clauses, prefer_free, clock),
                None,
            )
            expect = {t for t in oracle(net, within, table) if admitted(t)}
            if found is None:
                assert not expect
            else:
                assert found in expect
                answered[prefer_free] += 1
    assert min(answered.values()) > 50


def test_free_components_of_minimal_traps_are_unconstrained():
    # The minimality rule of FREE-last searches: a free component i of a
    # minimal trap space S has a non-constant f_i on S, else fixing i to
    # that constant would give a smaller trap space in `within`.
    rng = random.Random(77)
    checked = 0
    for _seed, net in oracle_suite():
        table = image_table(net)
        for _ in range(3):
            within = Cube(tuple(rng.choice((0, 1, 2, 2)) for _ in range(net.n)))
            for trap in oracle_minimal_traps(net, within, table):
                for i, v in enumerate(trap.values):
                    if v == FREE:
                        assert eval_mask(net.functions[i], trap.values) == 3
                        checked += 1
    assert checked > 50


@pytest.mark.parametrize("seed", range(20))
def test_solution_invariants(seed):
    net = random_network(seed, 6)
    rng = random.Random(seed)
    within = Cube(tuple(rng.choice((2, 2, 2, 0, 1)) for _ in range(6)))
    mins = list(minimal_trap_spaces(net, within))
    for t in mins:
        assert is_trap_space(net, t)
        assert t.subset(within)
    for i, a in enumerate(mins):
        for b in mins[i + 1:]:
            assert a.intersect(b) is None  # pairwise disjoint
    maxs = list(maximal_trap_spaces(net, within))
    for t in maxs:
        assert is_trap_space(net, t)
        assert t.subset(within)
        assert t != Cube.full(net.n)
    fps = states(fixed_points(net))
    if within == Cube.full(net.n):
        min_states = {t.values for t in mins if t.is_state}
        assert fps <= min_states


def test_fixed_points_appear_in_minimal():
    for seed in range(15):
        net = random_network(seed, 5)
        mins = cubes(minimal_trap_spaces(net))
        for s in fixed_points(net):
            assert Cube.from_state(s) in mins


def test_determinism():
    net = random_network(42, 6)
    first = list(minimal_trap_spaces(net))
    second = list(minimal_trap_spaces(net))
    assert first == second
    assert list(maximal_trap_spaces(net)) == list(maximal_trap_spaces(net))
    assert list(fixed_points(net)) == list(fixed_points(net))


def test_fixed_points_lexicographic_in_branch_order(monkeypatch):
    # Pins the output order of `bnkit fixpoints`: states sorted by their
    # values read in branching order, 0 before 1 (reversed order likewise).
    suite = oracle_suite()
    for reverse in (False, True):
        if reverse:
            reverse_branch_order(monkeypatch)
        for _seed, net in suite:
            order = solver._branch_order(net, range(net.n))
            found = list(fixed_points(net))
            keys = [tuple(state[i] for i in order) for state in found]
            assert keys == sorted(set(keys))
            assert set(found) == oracle_fixed_points(net)


def generated_nets(n, seeds):
    for family in FAMILIES:
        for seed in seeds:
            yield parse_bnet(generate_bnet(GenSpec(n=n, family=family, seed=seed)))


@pytest.fixture
def domains_checked(monkeypatch):
    """Check every call of the worklist domain filter against the full-sweep
    reference; the list collects the SCCs checked."""
    seen = []
    worklist = solver._scc_value_domains

    def checked(net, values, scc_set, clock):
        got = worklist(net, values, scc_set, clock)
        assert got == sweep(net, values, scc_set, solver._Deadline(None))
        seen.append(frozenset(scc_set))
        return got

    monkeypatch.setattr(solver, "_scc_value_domains", checked)
    return seen


def test_scc_domains_match_full_sweep_on_oracle_suite(domains_checked):
    for _seed, net in oracle_suite():
        list(minimal_trap_spaces(net))
    assert len(domains_checked) > 100


def test_scc_domains_match_full_sweep_on_generated_nets(domains_checked):
    for net in generated_nets(200, range(30)):
        next(minimal_trap_spaces(net), None)
    assert len(domains_checked) > 100


def test_scc_domains_drop_certificates_when_a_probe_fails():
    # The probes of (a, 0), (a, 1) and (b, 0) keep their values, and each
    # certifies its own; the probe of (b, 1) fails.  With 1 gone from b,
    # the probe of (a, 0) fails too, so a certificate kept past the first
    # failure would skip it and leave a with {0, 1} and b with {0}.
    net = parse_bnet("a, (!a & !b) | b\nb, (!a & b) | (a & !b)")
    clock = solver._Deadline(None)
    got = solver._scc_value_domains(net, [FREE, FREE], {0, 1}, clock)
    assert got == sweep(net, [FREE, FREE], {0, 1}, clock) == {0: set(), 1: set()}


def test_simulate_equals_repeated_image():
    nets = [random_network(seed, 3 + seed % 6) for seed in range(60)]
    nets.extend(generated_nets(200, range(3)))
    rng = random.Random(7)
    clock = solver._Deadline(None)
    settled = cycling = 0
    for net in nets:
        for _ in range(4):
            x = tuple(rng.randint(0, 1) for _ in range(net.n))
            images = [x]
            for _ in range(60):
                images.append(net.image(images[-1]))
            for k in (1, 2, 8, 60):
                assert solver._simulate(net, x, k, clock) == images[k]
            if net.image(images[60]) == images[60]:
                settled += 1
            else:
                cycling += 1
    assert settled > 20 and cycling > 20


class CountingClock(solver._Deadline):
    """A clock without a deadline that counts its `check_now` calls."""

    def __init__(self):
        super().__init__(None)
        self.checks = 0

    def check_now(self):
        self.checks += 1


def test_simulate_stops_at_first_repeated_state():
    # From x_2 on the trajectory alternates between two states; Brent's
    # method sees the repeat at step 5, and the remaining steps follow from
    # the period instead of being simulated.  `_simulate` checks the clock
    # once before the first image and once per later step.
    net = parse_bnet("a, b\nb, a\nc, a | c")
    for steps, expected in ((60, (0, 1, 1)), (59, (1, 0, 1))):
        clock = CountingClock()
        assert solver._simulate(net, (0, 1, 0), steps, clock) == expected
        assert clock.checks <= 6


def test_simulate_polls_the_clock():
    net = random_network(0, 6)
    expired = solver._Deadline(time.monotonic() - 1.0)
    with pytest.raises(solver.SolverTimeout):
        solver._simulate(net, (0,) * net.n, 60, expired)


def test_free_sccs_polls_the_clock_per_component():
    # One ring is one depth-first root: the clock must be polled while the
    # search walks it, not only once per root.
    n = 2000
    net = parse_bnet("".join("x%d, x%d\n" % (i, (i - 1) % n) for i in range(n)))
    expired = solver._Deadline(time.monotonic() - 1.0)
    with pytest.raises(solver.SolverTimeout):
        solver._free_sccs(net, set(range(n)), expired)


def test_closure_polls_the_clock():
    net = parse_bnet(generate_bnet(GenSpec(n=2000, seed=0)))
    expired = solver._Deadline(time.monotonic() - 1.0)
    with pytest.raises(solver.SolverTimeout):
        closure(net, Cube.from_state((0,) * net.n), clock=expired)


def generated(family, seed):
    return parse_bnet(generate_bnet(GenSpec(n=200, family=family, seed=seed)))


@pytest.mark.parametrize("family", FAMILIES)
def test_descent_simulates_once(family, monkeypatch):
    calls = []
    simulate = solver._simulate

    def counted(*args):
        calls.append(args)
        return simulate(*args)

    monkeypatch.setattr(solver, "_simulate", counted)
    next(minimal_trap_spaces(generated(family, 0)))
    assert len(calls) == 1


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(10))
def test_first_min_is_certified_minimal(family, seed):
    net = generated(family, seed)
    trap = next(minimal_trap_spaces(net))
    assert is_minimal_trap(net, trap, deadline=time.monotonic() + 10.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_descent_filters_each_component_once(family, monkeypatch):
    # The descent's exact phase is one pass over the free SCCs, regulators
    # first, so it filters each component at most once.
    filtered = []
    worklist = solver._scc_value_domains

    def counted(net, values, scc_set, clock):
        filtered[-1].extend(scc_set)
        return worklist(net, values, scc_set, clock)

    monkeypatch.setattr(solver, "_scc_value_domains", counted)
    for seed in range(10):
        filtered.append([])
        next(minimal_trap_spaces(generated(family, seed)))
    assert all(len(comps) == len(set(comps)) for comps in filtered)
    assert sum(map(len, filtered)) > 0


def test_maximality_certificate_matches_oracle():
    checked = 0
    for _seed, net in oracle_suite():
        table = image_table(net)
        maximal = oracle_maximal_traps(net, table=table)
        for trap in oracle_trap_spaces(net, table=table):
            if trap != Cube.full(net.n):
                assert is_maximal_trap(net, trap) == (trap in maximal)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(10))
def test_first_max_is_certified_maximal(family, seed):
    net = generated(family, seed)
    trap = next(maximal_trap_spaces(net))
    assert is_maximal_trap(net, trap, deadline=time.monotonic() + 10.0)


# The reproducers below ran past their deadline with chronological
# backtracking; each gets 10 s so that a regression fails instead of hanging.


def test_first_min_nested_canalizing_reproducer():
    # certifying the descent's trap took 250k decisions (scale-first seed 21)
    net = generated("nested-canalizing-unate", 1400888027)
    trap = next(minimal_trap_spaces(net, deadline=time.monotonic() + 10.0))
    assert is_trap_space(net, trap)


def test_first_min_certification_tail_reproducer():
    # certification took 2.2 s before FREE-last searches pruned by the
    # minimality rule (scale-first seed 21, nested-canalizing-unate-200-14)
    net = generated("nested-canalizing-unate", 212180447)
    trap = next(minimal_trap_spaces(net, deadline=time.monotonic() + 10.0))
    assert is_trap_space(net, trap)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(3))
def test_second_min_at_300_reproducers(family, seed):
    # The first answer takes about 10 ms; the search for the second timed
    # out on 4 of these 6 models without the minimality rule.
    net = parse_bnet(generate_bnet(GenSpec(n=300, family=family, seed=seed)))
    deadline = time.monotonic() + 10.0
    traps = list(minimal_trap_spaces(net, limit=2, deadline=deadline))
    assert traps and all(is_trap_space(net, t) for t in traps)
    assert len(traps) == 1 or traps[0].intersect(traps[1]) is None


def test_certify_full_cube_inhibitor_dominant_reproducer(monkeypatch):
    # The exact phase alone, run from the full cube: the simulation's
    # closure is replaced by it.  Certifying the full cube of this net
    # once ran past its deadline.
    net = generated("inhibitor-dominant", 1275114242)
    monkeypatch.setattr(solver, "closure", lambda net, cube, clock: Cube.full(net.n))
    clock = solver._Deadline(time.monotonic() + 10.0)
    found = solver._minimize_trap(net, Cube.full(net.n), clock)
    assert found != Cube.full(net.n) and is_trap_space(net, found)
    assert is_minimal_trap(net, found, deadline=time.monotonic() + 10.0)


@pytest.mark.parametrize(
    "family, seed",
    [("inhibitor-dominant", 443335534), ("nested-canalizing-unate", 1736744011)],
)
def test_first_max_reproducers(family, seed):
    # two of the first-max queries that hung on scale-max seed 501
    net = generated(family, seed)
    trap = next(maximal_trap_spaces(net, deadline=time.monotonic() + 10.0))
    assert is_trap_space(net, trap) and trap != Cube.full(net.n)


def test_first_min_at_10k_nested_canalizing():
    # One feedback SCC holds most of the network here; re-sweeping all of it
    # on every domain refinement takes over a minute.
    net = parse_bnet(
        generate_bnet(GenSpec(n=10000, family="nested-canalizing-unate", seed=1))
    )
    trap = next(minimal_trap_spaces(net, deadline=time.monotonic() + 20.0))
    assert is_trap_space(net, trap)


def test_first_min_at_10k_inhibitor_dominant_is_certified_minimal():
    """The plain certificate of `is_minimal_trap` holds at n = 10k.

    The nested-canalizing model of the same size and seed is left out:
    there the certificate does not finish in 60 s.  Its first answer
    keeps 8,554 components free, 5,549 of them in one feedback SCC.  The
    descent's per-SCC domain filter rules out every value of that SCC, so
    certification searches nothing; the plain search has no such filter
    and must refute by branching every way to fix those components.
    """
    net = parse_bnet(
        generate_bnet(GenSpec(n=10000, family="inhibitor-dominant", seed=1))
    )
    trap = next(minimal_trap_spaces(net, deadline=time.monotonic() + 20.0))
    assert is_minimal_trap(net, trap, deadline=time.monotonic() + 20.0)
