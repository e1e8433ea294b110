import random
import time
from itertools import product

import pytest

from bnkit import export_bnet, parse_bnet, set_function
from bnkit.expressions import parse_expression
from bnkit.network import (
    NetworkError,
    NormalizationError,
    ParseError,
    _Clauses,
    _literal_table,
    evaluate,
)
from nettools import (
    And,
    Const,
    Not,
    Tree,
    Var,
    is_unate,
    layered_expression,
    prime_oracle,
    random_expression,
    read_function,
)

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
    assert all(is_unate(fn) for fn in net.functions)


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


def _nested_canalizing_chain(k):
    """A model whose last line nests k regulators one group each."""
    names = ["r%d" % i for i in range(k)]
    expr = names[-1]
    for i in range(k - 2, -1, -1):
        lit = ("!" if i % 3 == 0 else "") + names[i]
        expr = "%s %s (%s)" % (lit, "&" if i % 2 else "|", expr)
    return "".join("%s, %s\n" % (name, name) for name in names) + "x, %s\n" % expr


def test_deep_nesting_parses():
    # the parser and the DNF builder keep explicit stacks: depth is unbounded
    for depth in (260, 3000):
        net = parse_bnet("a, a\nb, %sa%s\n" % ("(" * depth, ")" * depth))
        assert net.functions[1].dnf.clauses == (((0, 1),),)
    for depth in (1000, 3000):
        net = parse_bnet("a, a\nb, %sa\n" % ("!" * depth))
        assert net.functions[1].dnf.clauses == (((0, 1),),)
        net = set_function(parse_bnet(EXAMPLE), "a", "!" * (depth + 1) + "b")
        assert net.functions[0].dnf.clauses == (((1, 0),),)
    # a group under each `!`: the polarity flips at every open parenthesis
    for depth, clauses in ((5000, (((0, 1), (1, 0)),)), (5001, (((0, 0),), ((1, 1),)))):
        text = "!(" * depth + "a & !b" + ")" * depth
        for net in (
            parse_bnet("a, %s\nb, b\n" % text),
            set_function(parse_bnet("a, a\nb, b\n"), "a", text),
        ):
            fn = net.functions[0]
            # both functions are unate: each DNF is its own primes
            assert (fn.dnf.clauses, fn.support) == (clauses, (0, 1))
            assert fn.primes is fn.dnf
    net = parse_bnet(_nested_canalizing_chain(400))
    fn = net.functions[-1]
    assert fn.support == tuple(range(400))
    rng = random.Random(3)
    for _ in range(50):
        state = [rng.randint(0, 1) for _ in range(net.n)]
        value = state[399]
        for i in range(398, -1, -1):
            lit = 1 - state[i] if i % 3 == 0 else state[i]
            value = lit & value if i % 2 else lit | value
        assert evaluate(fn, state) == value


def _primes_value(fn, state):
    """Value of the DNF of the primes of f at a binary state."""
    return int(any(all(state[c] == v for c, v in clause) for clause in fn.primes.clauses))


def test_xor_gets_primes():
    net = parse_bnet("a, a\nb, b\nv, (a & !b) | (!a & b)\nw, a & !b")
    fn = net.functions[2]
    assert not is_unate(fn)
    # no two clauses clash on exactly one variable: the DNF is its own primes
    assert fn.primes is fn.dnf
    assert fn.primes.clauses == prime_oracle(fn)
    for state in product((0, 1), repeat=4):
        assert _primes_value(fn, state) == evaluate(fn, state)
    assert is_unate(net.functions[3])
    # a unate DNF is its own primes: the same object, no copy
    assert all(f.primes is f.dnf for f in net.functions if is_unate(f))


def test_primes_match_oracle():
    rng = random.Random(23)
    names = ["v%d" % i for i in range(6)]
    index = {n: i for i, n in enumerate(names)}
    texts = [
        "0",
        "1",
        "v0 | !v0",
        "(v0 & v1) | (!v0 & v1)",
        "(v0 & !v1) | (v1 & !v2) | (v2 & !v0)",
        "(v0 & !v1) | (!v0 & v1) | (v2 & !v2) | (v3 & !v3)",
        "(v0 & !v1 & v4 & !v4) | (!v0 & v1) | (v5 & v0 & !v5)",
    ]
    for _ in range(300):
        clauses = []
        for _ in range(rng.randint(1, 6)):
            lits = rng.sample(names, rng.randint(1, 4))
            clauses.append(
                "(" + " & ".join(v if rng.random() < 0.5 else "!" + v for v in lits) + ")"
            )
        texts.append(" | ".join(clauses))
    texts += [random_expression(rng, names) for _ in range(100)]
    non_unate = 0
    for text in texts:
        fn = read_function(text, index)
        assert fn.primes.clauses == prime_oracle(fn), text
        non_unate += not is_unate(fn)
    assert non_unate > 100
    assert read_function("v0 | !v0", index).primes.is_true
    assert read_function("0", index).primes.is_false


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
    fn = read_function("!(x1 & !x2) & !x3", index)
    assert fn.dnf.clauses == (((0, 0), (2, 0)), ((1, 1), (2, 0)))
    assert fn.primes is fn.dnf


def test_normalization_cap():
    index = {"a%d" % i: i for i in range(8)}
    text = " & ".join("(a%d | !a%d)" % (i, (i + 1) % 8) for i in range(8))
    with pytest.raises(NormalizationError):
        read_function(text, index, clause_cap=4)
    # the cap covers the primes too: f has 3 clauses and fits; closing
    # them under consensus (6 primes) takes 24 units of work
    index = {name: i for i, name in enumerate("abc")}
    text = "(a & !b) | (b & !c) | (c & !a)"
    assert len(parse_expression(text, _Clauses(_literal_table(index), 4))) == 3
    for cap in (4, 23):
        with pytest.raises(NormalizationError, match="work cap"):
            read_function(text, index, clause_cap=cap)
    assert len(read_function(text, index, clause_cap=24).primes.clauses) == 6


def _chain_with_escape(k):
    """`(a0 & b0) | ... | (a{k-1} & b{k-1}) | (c & !a0)`: k + 1 clauses of f,
    k + 2 primes (the consensus `b0 & c` is the new one)."""
    names = ["c"] + ["a%d" % i for i in range(k)] + ["b%d" % i for i in range(k)]
    text = " | ".join("(a%d & b%d)" % (i, i) for i in range(k)) + " | (c & !a0)"
    return text, {name: i for i, name in enumerate(names)}


def test_primes_build_is_bounded_in_time():
    # one clash: the primes stay few however many clauses f has
    text, index = _chain_with_escape(20)
    t0 = time.monotonic()
    assert len(read_function(text, index).primes.clauses) == 22
    assert time.monotonic() - t0 < 1.0
    text, names = layered_expression(3, 5)
    index = {name: i for i, name in enumerate(names)}
    assert len(read_function(text, index).primes.clauses) == 1629
    # a layer more and the work cap ends the build early
    text, names = layered_expression(3, 6)
    index = {name: i for i, name in enumerate(names)}
    t0 = time.monotonic()
    with pytest.raises(NormalizationError, match="work cap"):
        read_function(text, index)
    assert time.monotonic() - t0 < 10.0


def test_dnf_well_formed_random():
    rng = random.Random(7)
    names = ["v%d" % i for i in range(5)]
    index = {n: i for i, n in enumerate(names)}
    for _ in range(150):
        fn = read_function(random_expression(rng, names), index)
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
    # contradictory terms drop out of f, so its primes must not read them
    texts = [
        "(v0 & !v1) | (!v0 & v1) | (v2 & !v2) | (v3 & !v3)",
        "(v0 & !v1 & v4 & !v4) | (!v0 & v1) | (v5 & v0 & !v5)",
    ]
    texts += [random_expression(rng, names) for _ in range(120)]
    for text in texts:
        expr = parse_expression(text, Tree)
        fn = read_function(text, index)
        read = {comp for clause in fn.primes.clauses for comp, _ in clause}
        assert read <= set(fn.support)
        for state in product((0, 1), repeat=len(names)):
            env = dict(zip(names, state))
            assert evaluate(fn, state) == _eval_ast(expr, env)
            assert _primes_value(fn, state) == evaluate(fn, state)


def _eval_ast(expr, env):
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
