import random
from itertools import product

import pytest

from bnkit import export_bnet, parse_bnet, set_function
from bnkit.expressions import parse_expression
from bnkit.network import (
    NetworkError,
    NormalizationError,
    ParseError,
    evaluate,
    normalize,
)
from nettools import bdd_evaluate, random_expression

EXAMPLE = "targets, factors\na, !b\nb, !a\nc, !(a & !b) & !c\n"


def lit(names, text):
    """Literal tuple from '!x' / 'x' text, for readable expectations."""
    neg = text.startswith("!")
    name = text.lstrip("!")
    return (names.index(name), 0 if neg else 1)


def test_parse_worked_example():
    net = parse_bnet(EXAMPLE)
    assert net.names == ("a", "b", "c")
    names = list(net.names)
    assert net.functions[0].dnf.clauses == ((lit(names, "!b"),),)
    assert net.functions[1].dnf.clauses == ((lit(names, "!a"),),)
    assert net.functions[2].dnf.clauses == (
        (lit(names, "!a"), lit(names, "!c")),
        (lit(names, "b"), lit(names, "!c")),
    )
    assert all(fn.unate for fn in net.functions)


def test_parse_empty_file():
    assert parse_bnet("").n == 0


def test_parse_identity():
    net = parse_bnet("x, x")
    assert net.n == 1
    assert net.image((0,)) == (0,)
    assert net.image((1,)) == (1,)


def test_parse_comments_and_blank_lines():
    net = parse_bnet("# header comment\n\na, 1  # constant\n")
    assert net.names == ("a",)
    assert net.functions[0].dnf.is_true


def test_parse_crlf():
    net = parse_bnet("targets, factors\r\na, !b\r\nb, a\r\n")
    assert net.names == ("a", "b")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_bnet("a, b\na, 1")  # duplicate
    with pytest.raises(ParseError):
        parse_bnet("a, q")  # undeclared
    with pytest.raises(ParseError) as exc:
        parse_bnet("a, 1\nb, a &&\n")
    assert exc.value.line == 2


def test_constant_and_reserved_names_rejected():
    # a component named 0 or 1 could never be referenced: both parse as constants
    for name in ("0", "1", "and", "True", "not"):
        with pytest.raises(ParseError):
            parse_bnet("%s, 1" % name)
        with pytest.raises(NetworkError):
            set_function(parse_bnet(EXAMPLE), name, "a")


def test_deep_nesting_is_a_model_error():
    for expr in ("(" * 3000 + "a" + ")" * 3000, "!" * 3000 + "a"):
        with pytest.raises(ParseError) as exc:
            parse_bnet("a, a\nb, %s\n" % expr)
        assert exc.value.line == 2
        assert "nested too deeply" in str(exc.value)
        with pytest.raises(NetworkError, match="nested too deeply"):
            set_function(parse_bnet(EXAMPLE), "a", expr)


def test_xor_gets_bdd():
    net = parse_bnet("a, a\nb, b\nv, (a & !b) | (!a & b)")
    fn = net.functions[2]
    assert not fn.unate
    assert fn.bdd is not None
    for state in product((0, 1), repeat=3):
        assert bdd_evaluate(fn.bdd, state) == evaluate(fn, state)


def test_support_is_sorted_tuple():
    net = parse_bnet("a, c & !b\nb, a | c\nc, 1\nd, (d & !a) | (c & !d)")
    assert [fn.support for fn in net.functions] == [(1, 2), (0, 2), (), (0, 2, 3)]


def test_subsumption_removed():
    net = parse_bnet("a, a | (a & b)\nb, b")
    assert net.functions[0].dnf.clauses == (((0, 1),),)


def test_contradictory_clause_dropped():
    net = parse_bnet("a, (a & !a) | b\nb, b")
    assert net.functions[0].dnf.clauses == (((1, 1),),)


def test_normalize_three_node_example():
    # third function of the worked example, directly
    index = {"x1": 0, "x2": 1, "x3": 2}
    fn = normalize(parse_expression("!(x1 & !x2) & !x3"), index)
    assert fn.dnf.clauses == (((0, 0), (2, 0)), ((1, 1), (2, 0)))
    assert fn.unate


def test_normalization_cap():
    index = {"a%d" % i: i for i in range(8)}
    text = " & ".join("(a%d | !a%d)" % (i, (i + 1) % 8) for i in range(8))
    with pytest.raises(NormalizationError):
        normalize(parse_expression(text), index, clause_cap=4)


def test_dnf_well_formed_random():
    rng = random.Random(7)
    names = ["v%d" % i for i in range(5)]
    index = {n: i for i, n in enumerate(names)}
    for _ in range(150):
        fn = normalize(parse_expression(random_expression(rng, names)), index)
        clause_sets = [frozenset(c) for c in fn.dnf.clauses]
        for cs in clause_sets:
            assert not any((comp, 1 - val) in cs for comp, val in cs)
        for i, ci in enumerate(clause_sets):
            for j, cj in enumerate(clause_sets):
                assert i == j or not ci <= cj


def test_dnf_matches_source_truth_table():
    rng = random.Random(11)
    names = ["v%d" % i for i in range(6)]
    index = {n: i for i, n in enumerate(names)}
    for _ in range(120):
        expr = parse_expression(random_expression(rng, names))
        fn = normalize(expr, index)
        for state in product((0, 1), repeat=len(names)):
            env = dict(zip(names, state))
            assert evaluate(fn, state) == _eval_ast(expr, env)
            if fn.bdd is not None:
                assert bdd_evaluate(fn.bdd, state) == evaluate(fn, state)


def _eval_ast(expr, env):
    from bnkit.expressions import And, Const, Not, Or, Var

    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Const):
        return int(expr.value)
    if isinstance(expr, Not):
        return 1 - _eval_ast(expr.arg, env)
    if isinstance(expr, And):
        return int(all(_eval_ast(a, env) for a in expr.args))
    return int(any(_eval_ast(a, env) for a in expr.args))


def test_set_function():
    net = parse_bnet(EXAMPLE)
    edited = set_function(net, "b", "!a | c")
    assert edited.functions[1].dnf.clauses == (((0, 0),), ((2, 1),))
    # unchanged components keep their functions and order
    assert edited.names == net.names
    assert edited.functions[0].dnf == net.functions[0].dnf


def test_set_function_idempotent_edit():
    net = parse_bnet(EXAMPLE)
    same = set_function(net, "c", "!(a & !b) & !c")
    assert export_bnet(same) == export_bnet(net)


def test_set_function_new_component():
    net = parse_bnet(EXAMPLE)
    grown = set_function(net, "d", "a & d")
    assert grown.names == ("a", "b", "c", "d")
    with pytest.raises(NetworkError):
        set_function(net, "d", "e")


def test_export_worked_example():
    net = parse_bnet(EXAMPLE)
    assert (
        export_bnet(net)
        == "targets, factors\na, !b\nb, !a\nc, (!a & !c) | (b & !c)\n"
    )


def test_export_empty_and_constants():
    assert export_bnet(parse_bnet("")) == "targets, factors\n"
    net = parse_bnet("a, 1\nb, 0")
    assert export_bnet(net) == "targets, factors\na, 1\nb, 0\n"


def test_export_parse_export_fixpoint():
    rng = random.Random(23)
    names = ["v%d" % i for i in range(6)]
    for seed in range(30):
        rng = random.Random(seed)
        lines = ["targets, factors"]
        for name in names:
            lines.append("%s, %s" % (name, random_expression(rng, names)))
        net = parse_bnet("\n".join(lines))
        once = export_bnet(net)
        assert export_bnet(parse_bnet(once)) == once


def test_evaluate_worked_example():
    net = parse_bnet(EXAMPLE)
    assert evaluate(net.functions[2], (0, 0, 0)) == 1
    assert evaluate(net.functions[0], (0, 1, 0)) == 0
    assert parse_bnet("a, 0").image((1,)) == (0,)
