import pytest

from bnkit.expressions import (
    And,
    Const,
    ExprSyntaxError,
    Not,
    Or,
    Var,
    parse_expression,
    variables,
)
from nettools import render


def test_paper_edition_snippet():
    expr = parse_expression("A | !(C & D)")
    assert expr == Or((Var("A"), Not(And((Var("C"), Var("D"))))))


def test_constants():
    assert parse_expression("1") == Const(True)
    assert parse_expression("0") == Const(False)
    assert parse_expression("True") == Const(True)
    assert parse_expression("FALSE") == Const(False)


def test_parser_preserves_structure():
    assert parse_expression("a & !a") == And((Var("a"), Not(Var("a"))))


def test_precedence_and_associativity():
    expr = parse_expression("a | b & !c | d")
    assert expr == Or((Var("a"), And((Var("b"), Not(Var("c")))), Var("d")))


def test_word_operators():
    assert parse_expression("a and not b or c") == parse_expression("a & !b | c")


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression("a &\n& b")
    assert exc.value.line == 2
    assert exc.value.column == 1


@pytest.mark.parametrize("text", ["", "   ", "a |", "(a", "a b", "a & ()"])
def test_rejects_malformed(text):
    with pytest.raises(ExprSyntaxError):
        parse_expression(text)


def test_rejects_reserved_identifier():
    with pytest.raises(ExprSyntaxError):
        parse_expression("a & not")


def test_variables():
    assert variables(parse_expression("a | !(b & a) | 1")) == {"a", "b"}


def test_render_round_trip():
    for text in ["a | !(c & d)", "(a | b) & c", "!(!a)", "1", "a & b & !c"]:
        expr = parse_expression(text)
        assert parse_expression(render(expr)) == expr
