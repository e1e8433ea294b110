"""Propositional expressions over named components.

Grammar: identifiers ``[A-Za-z0-9_]+`` (excluding reserved words), unary
``!``/``not``, binary ``&``/``and`` and ``|``/``or``, parentheses, and the
constants ``0``/``1``/``true``/``false``.  Word operators and constants are
case-insensitive.  Precedence: ``!`` binds tighter than ``&``, which binds
tighter than ``|``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class ExprSyntaxError(ValueError):
    """Raised on malformed expression text; carries line/column info."""

    def __init__(self, message, line, column):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


RESERVED = frozenset({"and", "or", "not", "true", "false"})


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Not:
    arg: "Expression"


@dataclass(frozen=True)
class And:
    args: tuple


@dataclass(frozen=True)
class Or:
    args: tuple


Expression = Var | Const | Not | And | Or

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[!&|()]|\s+|.")


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    for match in _TOKEN_RE.finditer(text):
        tok = match.group(0)
        if not tok.isspace():
            if tok not in "!&|()" and not re.fullmatch(r"[A-Za-z0-9_]+", tok):
                raise ExprSyntaxError("unexpected character %r" % tok, line, col)
            tokens.append((tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
    tokens.append((None, line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message):
        _, line, col = self.tokens[self.pos]
        raise ExprSyntaxError(message, line, col)

    def parse(self):
        expr = self.disjunction()
        if self.peek() is not None:
            self.error("unexpected token %r" % self.peek())
        return expr

    def disjunction(self):
        args = [self.conjunction()]
        while True:
            tok = self.peek()
            if tok == "|" or (tok is not None and tok.lower() == "or"):
                self.next()
                args.append(self.conjunction())
            else:
                break
        return args[0] if len(args) == 1 else Or(tuple(args))

    def conjunction(self):
        args = [self.unary()]
        while True:
            tok = self.peek()
            if tok == "&" or (tok is not None and tok.lower() == "and"):
                self.next()
                args.append(self.unary())
            else:
                break
        return args[0] if len(args) == 1 else And(tuple(args))

    def unary(self):
        tok = self.peek()
        if tok == "!" or (tok is not None and tok.lower() == "not"):
            self.next()
            return Not(self.unary())
        return self.atom()

    def atom(self):
        tok, line, col = self.next()
        if tok == "(":
            expr = self.disjunction()
            if self.peek() != ")":
                self.error("expected ')'")
            self.next()
            return expr
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression", line, col)
        if tok in "!&|)":
            raise ExprSyntaxError("unexpected token %r" % tok, line, col)
        low = tok.lower()
        if low in ("1", "true"):
            return Const(True)
        if low in ("0", "false"):
            return Const(False)
        if low in ("and", "or", "not"):
            raise ExprSyntaxError("reserved word %r used as identifier" % tok, line, col)
        return Var(tok)


def parse_expression(text):
    """Parse expression text into an AST.  No simplification is performed."""
    if not text or text.isspace():
        raise ExprSyntaxError("empty expression", 1, 1)
    return _Parser(text).parse()


def variables(expr):
    """Set of component names referenced by the expression."""
    out = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, (And, Or)):
            stack.extend(node.args)
    return out

