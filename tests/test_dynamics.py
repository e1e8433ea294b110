from itertools import product

import pytest

from bnkit import (
    Cube,
    attractors,
    build_stg,
    closure,
    influence_graph,
    minimal_trap_spaces,
    mp_successors,
    parse_bnet,
    reachability,
    successors,
)
from bnkit.cubes import state_to_str
from bnkit.dynamics import (
    DEC,
    INC,
    DynamicsError,
    ext_state_to_str,
    mp_projected_stg,
    stg_to_dot,
    stg_to_json_obj,
)
from nettools import _mp_reachable_states, random_network

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


def test_stg_cap():
    net = random_network(0, 4)
    with pytest.raises(DynamicsError):
        build_stg(net, "asynchronous", cap=3)


def test_stg_export_stable(example):
    stg = build_stg(example, "asynchronous")
    dot = stg_to_dot(stg)
    assert dot == stg_to_dot(build_stg(example, "asynchronous"))
    assert dot.startswith("digraph stg {")
    obj = stg_to_json_obj(stg)
    assert obj["mode"] == "asynchronous"
    assert len(obj["nodes"]) == 8


def test_reachability_paper_verdicts(example):
    assert reachability(example, (0, 0, 0), (1, 1, 1), "mp") is True
    assert reachability(example, (0, 1, 0), (1, 0, 0), "mp") is False
    assert reachability(example, (1, 0, 0), (1, 0, 0), "asynchronous") is True


def test_reachability_boolean_modes(example):
    assert reachability(example, (0, 0, 0), (0, 1, 1), "asynchronous")
    assert not reachability(example, (0, 1, 0), (1, 0, 0), "asynchronous")


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
