import pytest

from bnkit.expressions import ExprSyntaxError, parse_expression
from nettools import And, Const, Not, Or, Tree, Var, render, variables


def test_paper_edition_snippet():
    expr = parse_expression("A | !(C & D)", Tree)
    assert expr == Or((Var("A"), Not(And((Var("C"), Var("D"))))))


def test_constants():
    assert parse_expression("1", Tree) == Const(True)
    assert parse_expression("0", Tree) == Const(False)
    assert parse_expression("True", Tree) == Const(True)
    assert parse_expression("FALSE", Tree) == Const(False)


def test_parser_preserves_structure():
    assert parse_expression("a & !a", Tree) == And((Var("a"), Not(Var("a"))))


def test_precedence_and_associativity():
    expr = parse_expression("a | b & !c | d", Tree)
    assert expr == Or((Var("a"), And((Var("b"), Not(Var("c")))), Var("d")))


def test_word_operators():
    words = parse_expression("a and not b or c", Tree)
    assert words == parse_expression("a & !b | c", Tree)


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression("a &\n& b", Tree)
    assert exc.value.line == 2
    assert exc.value.column == 1


@pytest.mark.parametrize("text", ["", "   ", "a |", "(a", "a b", "a & ()"])
def test_rejects_malformed(text):
    with pytest.raises(ExprSyntaxError):
        parse_expression(text, Tree)


def test_rejects_reserved_identifier():
    with pytest.raises(ExprSyntaxError):
        parse_expression("a & not", Tree)


def test_variables():
    assert variables(parse_expression("a | !(b & a) | 1", Tree)) == {"a", "b"}


def test_render_round_trip():
    for text in ["a | !(c & d)", "(a | b) & c", "!(!a)", "1", "a & b & !c"]:
        expr = parse_expression(text, Tree)
        assert parse_expression(render(expr), Tree) == expr


def _depth(expr, kind):
    """Number of nested `kind` nodes on the path of first arguments."""
    depth = 0
    while isinstance(expr, kind):
        depth += 1
        expr = expr.arg if kind is Not else expr.args[0]
    return depth, expr


def test_deep_nesting():
    # explicit-stack parsing: depth is bounded by the input, not the interpreter
    assert parse_expression("(" * 5000 + "a" + ")" * 5000, Tree) == Var("a")
    assert _depth(parse_expression("!" * 5000 + "a", Tree), Not) == (5000, Var("a"))
    assert _depth(parse_expression("not (" * 3000 + "a" + ")" * 3000, Tree), Not) == (
        3000,
        Var("a"),
    )
    expr = parse_expression("(a | " * 2000 + "b" + ")" * 2000, Tree)
    assert _depth(expr, Or) == (1, Var("a"))
    inner = expr
    for _ in range(2000):
        assert isinstance(inner, Or) and inner.args[0] == Var("a")
        inner = inner.args[1]
    assert inner == Var("b")


@pytest.mark.parametrize(
    "text, leaf",
    [("!" * 3000 + "%s", "a"), ("!(" * 1200 + "a & %s" + ")" * 1200, "b")],
    ids=["not-chain", "not-and-chain"],
)
def test_deep_asts_compare_hash_and_print(text, leaf):
    # equality, hash and repr walk the tree without recursion
    expr = parse_expression(text % leaf, Tree)
    same = parse_expression(text % leaf, Tree)
    other = parse_expression(text % "c", Tree)
    assert expr == same and not expr != same
    assert expr != other and not expr == other
    assert hash(expr) == hash(same)
    assert len({expr, same, other}) == 2
    shown = repr(expr)
    assert shown == repr(same) and shown != repr(other)
    assert "Var(name='%s')" % leaf in shown and shown.endswith(")" * 10)


def test_ast_repr_is_the_dataclass_repr():
    expr = Or((Var("x"), Not(Const(True)), And((Var("a"), Var("b")))))
    assert repr(expr) == (
        "Or(args=(Var(name='x'), Not(arg=Const(value=True)), "
        "And(args=(Var(name='a'), Var(name='b')))))"
    )
    assert repr(And((Var("a"),))) == "And(args=(Var(name='a'),))"
    assert repr(Or(())) == "Or(args=())"
    assert Not(Var("a")) != Var("a") and And((Var("a"),)) != Or((Var("a"),))


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("(" * 3000 + "a", "expected ')'", 3002),
        ("(" * 3000 + "a" + ")" * 3001, "unexpected token ')'", 6002),
        ("!" * 3000, "unexpected end of expression", 3001),
        ("(" * 3000 + "a &)", "unexpected token ')'", 3004),
    ],
)
def test_deep_nesting_error_positions(text, message, column):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression(text, Tree)
    assert str(exc.value) == "%s (line 1, column %d)" % (message, column)
