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


class _Operator:
    """An operator node compares, hashes and prints (as the dataclass repr
    would) through its `_preorder` listing, so nesting depth is unbounded."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _preorder(self) == _preorder(other)

    def __hash__(self):
        return hash(tuple(_preorder(self)))

    def __repr__(self):
        parts = []
        for node in reversed(_preorder(self)):
            if type(node) is not tuple:
                parts.append(repr(node))
            elif node[0] is Not:
                parts.append("Not(arg=%s)" % parts.pop())
            else:
                args = [parts.pop() for _ in range(node[1])]
                text = ", ".join(args) + ("," if len(args) == 1 else "")
                parts.append("%s(args=(%s))" % (node[0].__name__, text))
        return parts[0]


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Operator):
    arg: "Expression"


@dataclass(frozen=True, eq=False, repr=False)
class And(_Operator):
    args: tuple


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Operator):
    args: tuple


Expression = Var | Const | Not | And | Or


def _preorder(expr):
    """The tree's nodes in preorder, each leaf as itself and each operator
    node as (type, arity): two trees are equal iff their listings are."""
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, _Operator):
            args = (node.arg,) if type(node) is Not else node.args
            out.append((type(node), len(args)))
            stack.extend(reversed(args))
        else:
            out.append(node)
    return out


_TOKEN_RE = re.compile(r"([A-Za-z0-9_]+)|([!&|()])|(\s+)|(.)")
# operator symbols and words, by the symbol the parser dispatches on
_OPERATORS = {"!": "!", "not": "!", "&": "&", "and": "&", "|": "|", "or": "|"}


def _tokenize(text):
    """(token, kind, line, column) tuples, ended by a None token.

    kind is "!", "&" or "|" for an operator symbol or word, the token for a
    parenthesis, and None for an identifier or a constant.
    """
    tokens = []
    line, col = 1, 1
    for match in _TOKEN_RE.finditer(text):
        tok = match.group(0)
        group = match.lastindex
        if group == 1:
            tokens.append((tok, _OPERATORS.get(tok.lower()), line, col))
        elif group == 2:
            tokens.append((tok, _OPERATORS.get(tok, tok), line, col))
        elif group == 4:
            raise ExprSyntaxError("unexpected character %r" % tok, line, col)
        newlines = tok.count("\n") if group == 3 else 0
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
    tokens.append((None, None, line, col))
    return tokens


def _atom(tok, line, col):
    """A constant or identifier token; anything else is a syntax error."""
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


def _parse(tokens):
    """Recursive descent on an explicit stack, so nesting depth is unbounded.

    ``disjunction := conjunction (| conjunction)*``,
    ``conjunction := unary (& unary)*``, ``unary := ! unary | atom`` and
    ``atom := ( disjunction ) | constant | identifier``.  The state of the
    innermost open group is the arguments of its disjunction so far, those
    of its current conjunction, and the negations read before its next
    atom; an open parenthesis pushes the enclosing group's state.
    """
    pos = 0
    stack = []
    ors, ands, nots = [], [], 0
    while True:
        # an operand: negations, then an open parenthesis or an atom
        tok, kind, line, col = tokens[pos]
        pos += 1
        if kind == "!":
            nots += 1
            continue
        if kind == "(":
            stack.append((ors, ands, nots))
            ors, ands, nots = [], [], 0
            continue
        expr = _atom(tok, line, col)
        while True:
            for _ in range(nots):
                expr = Not(expr)
            ands.append(expr)
            # an operator, or the end of the innermost group
            tok, kind, line, col = tokens[pos]
            if kind == "&":
                pos += 1
                break
            ors.append(ands[0] if len(ands) == 1 else And(tuple(ands)))
            ands = []
            if kind == "|":
                pos += 1
                break
            expr = ors[0] if len(ors) == 1 else Or(tuple(ors))
            if not stack:
                if tok is not None:
                    raise ExprSyntaxError("unexpected token %r" % tok, line, col)
                return expr
            if tok != ")":
                raise ExprSyntaxError("expected ')'", line, col)
            pos += 1
            ors, ands, nots = stack.pop()
        nots = 0


def parse_expression(text):
    """Parse expression text into an AST.  No simplification is performed."""
    if not text or text.isspace():
        raise ExprSyntaxError("empty expression", 1, 1)
    return _parse(_tokenize(text))


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

