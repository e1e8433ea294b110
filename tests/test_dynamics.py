import hashlib
import json
import random
import time
from collections import deque
from itertools import product

import pytest

from bnkit import (
    Cube,
    GenSpec,
    SolverTimeout,
    attractors,
    build_stg,
    closure,
    generate_bnet,
    influence_graph,
    minimal_trap_spaces,
    mp_successors,
    parse_bnet,
    reachability,
    successors,
)
from bnkit.dynamics import (
    DEC,
    INC,
    STG_CAP,
    DynamicsError,
    ext_state_to_str,
    mp_projected_stg,
    stg_to_dot,
    stg_to_json_obj,
)
from nettools import (
    _mp_reachable_states,
    image_table,
    oracle_general_successors,
    random_network,
)


def state_to_str(state):
    return "".join(map(str, state))


EXAMPLE = "targets, factors\na, !b\nb, !a\nc, !(a & !b) & !c\n"


@pytest.fixture(scope="module")
def example():
    return parse_bnet(EXAMPLE)


def test_successors_worked_example(example):
    assert successors(example, (0, 0, 0), "asynchronous") == {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    }
    assert successors(example, (0, 0, 0), "synchronous") == {(1, 1, 1)}
    assert successors(example, (1, 0, 0), "asynchronous") == set()
    assert successors(example, (1, 0, 0), "general") == set()


def test_general_mode():
    net = parse_bnet("a, 1\nb, 1")
    assert successors(net, (0, 0), "general") == {(1, 0), (0, 1), (1, 1)}


def test_general_successors_match_brute_force():
    rng = random.Random(5)
    for seed in range(300):
        net = random_network(seed, rng.randint(1, 7))
        for _ in range(20):
            x = tuple(rng.randint(0, 1) for _ in range(net.n))
            assert successors(net, x, "general") == oracle_general_successors(net, x)


def test_custom_mode_hook():
    net = parse_bnet("a, 1\nb, 1")
    flip_first = lambda bn, s: [(1 - s[0],) + tuple(s[1:])]
    assert successors(net, (0, 0), flip_first) == {(1, 0)}


def test_mp_successors_single_negation():
    net = parse_bnet("x, !x")
    assert mp_successors(net, (0,)) == {(INC,)}
    assert mp_successors(net, (INC,)) == {(1,), (DEC,)}
    assert mp_successors(net, (DEC,)) == {(0,), (INC,)}


def test_mp_successors_fixed_point_is_sink(example):
    assert mp_successors(example, (1, 0, 0)) == set()


def test_mp_rule_sanity():
    for seed in range(10):
        net = random_network(seed, 4)
        for state in product((0, 1), repeat=4):
            if net.image(state) == state:
                assert mp_successors(net, state) == set()


def test_stg_asynchronous(example):
    stg = build_stg(example, "asynchronous")
    assert len(stg.nodes) == 8
    bad = [edge for edge in stg.edges if edge[0] == "010" and edge[1][0] == "1"]
    assert not bad
    # asynchronous edges are Hamming-distance-1, no self loops
    for src, dst in stg.edges:
        assert sum(a != b for a, b in zip(src, dst)) == 1


def test_stg_synchronous_out_degree():
    for seed in range(8):
        net = random_network(seed, 4)
        stg = build_stg(net, "synchronous")
        outs = {}
        for src, dst in stg.edges:
            outs[src] = outs.get(src, 0) + 1
            assert src != dst
        assert all(v == 1 for v in outs.values())


def test_stg_constant_and_empty():
    stg = build_stg(parse_bnet("a, 1"), "synchronous")
    assert stg.nodes == ["0", "1"]
    assert stg.edges == [("0", "1")]
    stg = build_stg(parse_bnet(""), "asynchronous")
    assert stg.nodes == [""]
    assert stg.edges == []


def test_stg_restrict(example):
    stg = build_stg(example, "asynchronous", restrict=Cube.parse("01*", example.names))
    assert stg.nodes == ["010", "011"]


def test_stg_mp_mode():
    net = parse_bnet("x, !x")
    stg = build_stg(net, "mp")
    assert stg.nodes == ["+", "-", "0", "1"]
    assert ("0", "+") in stg.edges
    assert ("+", "1") in stg.edges


def test_stg_cap(monkeypatch):
    # each cap is checked before any state is listed; n = 11 is refused by
    # both mp graphs
    def listed(*args):
        raise AssertionError("states listed above the cap")

    monkeypatch.setattr("bnkit.dynamics._mp_nodes", listed)
    monkeypatch.setattr("bnkit.dynamics.subcube_codes", listed)
    with pytest.raises(DynamicsError):
        build_stg(random_network(0, 21), "asynchronous")
    with pytest.raises(DynamicsError):
        build_stg(random_network(0, 13), "mp")
    with pytest.raises(DynamicsError, match="explicit mp STG"):
        build_stg(random_network(0, 11), "mp")
    with pytest.raises(DynamicsError):
        mp_projected_stg(random_network(0, 11))


@pytest.mark.parametrize("values", [(0, 1), (1, 2), (0, 1, 2, 2), ()])
def test_restriction_of_wrong_length_is_refused(example, values):
    cube = Cube(values)
    with pytest.raises(DynamicsError, match="restriction cube length mismatch"):
        mp_projected_stg(example, cube)
    for mode in MODES + ("mp",):
        with pytest.raises(DynamicsError, match="restriction cube length mismatch"):
            build_stg(example, mode, cube)


def test_stg_export_stable(example):
    stg = build_stg(example, "asynchronous")
    dot = stg_to_dot(stg)
    assert dot == stg_to_dot(build_stg(example, "asynchronous"))
    assert dot.startswith("digraph stg {")
    obj = stg_to_json_obj(stg)
    assert obj["mode"] == "asynchronous"
    assert len(obj["nodes"]) == 8


def _rotate_or_complement(net, state):
    """A custom update mode: the state rotated left by one, and its complement."""
    state = tuple(state)
    return [state[1:] + state[:1], tuple(1 - v for v in state)]


MODES = ("synchronous", "asynchronous", "general", _rotate_or_complement)


def _stg_corpus():
    """(net, mode, restrict): n = 0..7 and constant nets, every mode, with and
    without a random restriction cube."""
    rng = random.Random(2024)
    nets = [parse_bnet(""), parse_bnet("a, 1"), parse_bnet("a, 1\nb, 0\nc, c\nd, !d")]
    nets += [random_network(seed, seed % 8) for seed in range(40)]
    cases = []
    for net in nets:
        for mode in MODES:
            cases.append((net, mode, None))
            cube = Cube(tuple(rng.choice((0, 1, 2, 2)) for _ in range(net.n)))
            cases.append((net, mode, cube))
    return cases


def _reference_successors(net, table, x, mode):
    """Successors of x read off the synchronous image table."""
    fx = table[x]
    if mode == "synchronous":
        out = {fx}
    elif mode == "asynchronous":
        out = {x[:i] + (fx[i],) + x[i + 1 :] for i in range(net.n)}
    elif mode == "general":
        out = {
            y
            for y in product((0, 1), repeat=net.n)
            if all(v in (a, b) for v, a, b in zip(y, x, fx))
        }
    else:
        out = {tuple(y) for y in mode(net, x)}
    out.discard(x)
    return out


def test_stg_matches_image_table_reference():
    for net, mode, restrict in _stg_corpus():
        cube = restrict or Cube.full(net.n)
        table = image_table(net)
        nodes = [x for x in product((0, 1), repeat=net.n) if cube.contains(x)]
        edges = sorted(
            (state_to_str(x), state_to_str(y))
            for x in nodes
            for y in _reference_successors(net, table, x, mode)
            if cube.contains(y)
        )
        stg = build_stg(net, mode, restrict)
        assert stg.nodes == [state_to_str(x) for x in nodes]
        assert stg.edges == edges
        assert stg.mode == (mode if isinstance(mode, str) else "custom")


def test_successors_match_image_table_reference():
    for seed in range(40):
        net = random_network(seed, seed % 8)
        table = image_table(net)
        for mode in MODES:
            for x in table:
                assert successors(net, x, mode) == _reference_successors(
                    net, table, x, mode
                )


def test_boolean_reachability_matches_reference_bfs():
    rng = random.Random(11)
    for seed in range(40):
        net = random_network(seed, seed % 8)
        table = image_table(net)
        states = list(table)
        for mode in MODES:
            for x in rng.sample(states, min(len(states), 6)):
                reach = {x}
                queue = deque([x])
                while queue:
                    for y in _reference_successors(net, table, queue.popleft(), mode):
                        if y not in reach:
                            reach.add(y)
                            queue.append(y)
                targets = rng.sample(states, min(len(states), 4))
                targets.append(rng.choice(sorted(reach)))
                for y in targets:
                    assert reachability(net, x, y, mode) == (y in reach)


def test_stg_output_is_byte_identical_to_recorded_digest():
    # sha256 of the dot and JSON renderings of every corpus STG, recorded
    # with the tuple-state implementation that the int-coded kernel replaced
    digest = hashlib.sha256()
    for net, mode, restrict in _stg_corpus():
        stg = build_stg(net, mode, restrict)
        digest.update(stg_to_dot(stg).encode())
        digest.update(json.dumps(stg_to_json_obj(stg)).encode())
    assert digest.hexdigest() == (
        "2ca5abd9943ec280ba1dbcbb566d0b4304cfbd6b294fe2156401d0ada67a725f"
    )


def _mp_stg_corpus():
    """(net, restrict): n = 0..6 and constant nets, with and without a random
    restriction cube."""
    rng = random.Random(2025)
    nets = [parse_bnet(""), parse_bnet("a, 1"), parse_bnet("a, 1\nb, 0\nc, c\nd, !d")]
    nets += [random_network(seed, seed % 7) for seed in range(21)]
    cases = []
    for net in nets:
        cases.append((net, None))
        cases.append((net, Cube(tuple(rng.choice((0, 1, 2, 2)) for _ in range(net.n)))))
    return cases


def test_mp_stg_output_is_byte_identical_to_recorded_digest():
    # sha256 of the dot and JSON renderings of the mp and projected STGs of
    # every corpus case, recorded with the builders that sorted their node
    # sets and edge lists globally
    digest = hashlib.sha256()
    for net, restrict in _mp_stg_corpus():
        for stg in (build_stg(net, "mp", restrict), mp_projected_stg(net, restrict)):
            digest.update(stg_to_dot(stg).encode())
            digest.update(json.dumps(stg_to_json_obj(stg)).encode())
    assert digest.hexdigest() == (
        "15ee0c467b91092284bf4521613214007864968e94c4e1396a8c01a497e976a6"
    )


def test_unknown_mode_is_refused_before_any_shortcut(example):
    x = (0, 0, 0)
    big = random_network(0, STG_CAP + 1)
    with pytest.raises(DynamicsError, match="unknown update mode"):
        reachability(example, x, x, "foo")
    with pytest.raises(DynamicsError, match="unknown update mode"):
        reachability(big, (0,) * big.n, (0,) * big.n, "foo")
    for net in (example, big):
        with pytest.raises(DynamicsError, match="unknown update mode"):
            build_stg(net, "foo")
    with pytest.raises(DynamicsError, match="unknown update mode"):
        successors(example, x, "mp")


@pytest.mark.parametrize("bad", [(1,), (0, 1, 0), (2, 0), (0, INC)])
def test_custom_mode_states_are_validated(bad):
    net = parse_bnet("a, 1\nb, 1")
    mode = lambda bn, s: [bad]
    with pytest.raises(DynamicsError):
        successors(net, (0, 0), mode)
    with pytest.raises(DynamicsError):
        build_stg(net, mode)
    with pytest.raises(DynamicsError):
        reachability(net, (0, 0), (1, 1), mode)


def test_reachability_paper_verdicts(example):
    assert reachability(example, (0, 0, 0), (1, 1, 1), "mp") is True
    assert reachability(example, (0, 1, 0), (1, 0, 0), "mp") is False
    assert reachability(example, (1, 0, 0), (1, 0, 0), "asynchronous") is True


def test_reachability_boolean_modes(example):
    assert reachability(example, (0, 0, 0), (0, 1, 1), "asynchronous")
    assert not reachability(example, (0, 1, 0), (1, 0, 0), "asynchronous")


def test_boolean_reachability_cap():
    # like build_stg, the explicit search refuses n > STG_CAP up front,
    # even for x == y; mp reachability has no cap
    big = random_network(0, STG_CAP + 1)
    x = (0,) * big.n
    for mode in ("asynchronous", "synchronous", "general"):
        with pytest.raises(DynamicsError):
            reachability(big, x, x, mode)
    assert reachability(big, x, x, "mp")
    net = random_network(0, STG_CAP)
    x = (0,) * net.n
    for y in successors(net, x, "asynchronous"):
        assert reachability(net, x, y, "asynchronous")


@pytest.mark.parametrize(
    "bad", [(0, 1), (), (0, 1, 0, 1), (2, 1, 0), (0, 1, -1), (0, INC, 0)]
)
def test_bad_states_are_refused(example, bad):
    # too short, too long or not binary, for the 3-component example
    good = (0, 0, 0)
    with pytest.raises(DynamicsError):
        attractors(example, reachable_from=bad)
    for mode in ("mp", "asynchronous"):
        with pytest.raises(DynamicsError):
            reachability(example, bad, good, mode)
        with pytest.raises(DynamicsError):
            reachability(example, good, bad, mode)


def test_async_edges_are_mp_reachable():
    for seed in range(10):
        net = random_network(seed, 4)
        for state in product((0, 1), repeat=4):
            reach = _mp_reachable_states(net, state)
            for nxt in successors(net, state, "asynchronous"):
                assert nxt in reach


def test_mp_reachable_within_closure():
    for seed in range(10):
        net = random_network(seed, 4)
        for state in product((0, 1), repeat=4):
            hull = closure(net, Cube.from_state(state))
            reach = _mp_reachable_states(net, state)
            for nxt in reach:
                assert hull.contains(nxt)
            for target in product((0, 1), repeat=4):
                assert reachability(net, state, target, "mp") == (target in reach)


def test_mp_reachability_pins_components_that_cannot_return():
    # 01 lies in closure(00) = **, but waking b needs a freed, and f_a = 1
    # never lets a return to 0
    net = parse_bnet("a, 1\nb, a")
    assert closure(net, Cube.from_state((0, 0))) == Cube.full(2)
    assert not reachability(net, (0, 0), (0, 1), "mp")
    assert reachability(net, (0, 0), (1, 0), "mp")
    assert reachability(net, (0, 0), (1, 1), "mp")


def test_attractors_equal_minimal_traps(example):
    assert set(attractors(example)) == set(minimal_trap_spaces(example))
    for seed in range(10):
        net = random_network(seed, 5)
        assert set(attractors(net)) == set(minimal_trap_spaces(net))


def test_attractors_reachable_from(example):
    names = example.names
    assert set(attractors(example, reachable_from=(0, 1, 0))) == {
        Cube.parse("01*", names)
    }
    assert set(attractors(example, reachable_from=(0, 0, 0))) == {
        Cube.parse("01*", names),
        Cube.parse("100", names),
    }


def test_attractors_reachable_from_matches_explicit():
    for seed in range(10):
        net = random_network(seed, 4)
        mins = set(minimal_trap_spaces(net))
        for state in product((0, 1), repeat=4):
            reach = _mp_reachable_states(net, state)
            expected = {t for t in mins if any(t.contains(y) for y in reach)}
            assert set(attractors(net, reachable_from=state)) == expected


def test_reachable_attractors_closure_polls_the_clock():
    # the closure of the start state is taken at the call, so an expired
    # deadline ends it there, before the stream is read
    net = parse_bnet(generate_bnet(GenSpec(n=2000, seed=0)))
    with pytest.raises(SolverTimeout):
        attractors(net, reachable_from=(0,) * net.n, deadline=time.monotonic() - 1.0)


def test_mp_projected_stg(example):
    stg = mp_projected_stg(example)
    assert ("000", "111") in stg.edges
    assert ("010", "100") not in stg.edges
    assert all(src != dst for src, dst in stg.edges)


def test_mp_projected_stg_matches_oracle():
    for seed in range(10):
        net = random_network(seed, 2 + seed % 4)
        expected = sorted(
            (state_to_str(x), state_to_str(y))
            for x in product((0, 1), repeat=net.n)
            for y in _mp_reachable_states(net, x)
            if y != x
        )
        assert mp_projected_stg(net).edges == expected


def test_influence_graph(example):
    assert set(influence_graph(example).edges) == {
        ("b", "-", "a"),
        ("a", "-", "b"),
        ("a", "-", "c"),
        ("b", "+", "c"),
        ("c", "-", "c"),
    }


def test_influence_graph_xor_and_constant():
    net = parse_bnet("a, a\nb, b\nv, (a & !b) | (!a & b)\nk, 1")
    edges = set(influence_graph(net).edges)
    for e in [("a", "+", "v"), ("a", "-", "v"), ("b", "+", "v"), ("b", "-", "v")]:
        assert e in edges
    assert not any(dst == "k" for _, _, dst in edges)


def test_ext_state_labels():
    assert ext_state_to_str((0, 1, INC, DEC)) == "01+-"
