"""Propositional expressions over named components.

Grammar: identifiers ``[A-Za-z0-9_]+`` (excluding reserved words), unary
``!``/``not``, binary ``&``/``and`` and ``|``/``or``, parentheses, and the
constants ``0``/``1``/``true``/``false``.  Word operators and constants are
case-insensitive.  Precedence: ``!`` binds tighter than ``&``, which binds
tighter than ``|``.

One scanner, `_scan`, reads expression text for two builders.  It calls
its builder at each leaf, conjunction, disjunction and group close, and
the builder decides what these make.  `_Tree`, the default of
`parse_expression`, makes the AST below; the network module passes a
clause builder, so that model intake goes from text to clause sets with
no tree in between.  The scanner also tracks the polarity of the
negations in force: an open parenthesis read after an odd number of
``!`` starts a group that is built negated, so a builder that can negate
its leaves (clause sets, by De Morgan) never negates a built value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product


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


# Tokens, whitespace skipped; any other character is unexpected.
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[!&|()]")
_UNEXPECTED_RE = re.compile(r"[^A-Za-z0-9_!&|()\s]")


def _spellings(word, value):
    """{each spelling of word in any case: value}."""
    return {"".join(chars): value for chars in product(*({c, c.upper()} for c in word))}


# The symbol the parser dispatches on, for an operator symbol or word or a
# parenthesis; identifiers and constants have none.
_KINDS = {
    "!": "!", "&": "&", "|": "|", "(": "(", ")": ")",
    **_spellings("not", "!"), **_spellings("and", "&"), **_spellings("or", "|"),
}
_CONSTANTS = {
    "0": Const(False), "1": Const(True),
    **_spellings("false", Const(False)), **_spellings("true", Const(True)),
}


def _position(text, offset):
    """(line, column) of a character offset, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _syntax_error(message, text, at):
    """The error at token `at` of the text (at its end, past the last token);
    a second scan finds the token's offset."""
    offsets = [match.start() for match in _TOKEN_RE.finditer(text)]
    offsets.append(len(text))
    return ExprSyntaxError(message, *_position(text, offsets[at]))


def _operand_fault(tok):
    """The message for a token read where an operand must start."""
    if tok is None:
        return "unexpected end of expression"
    if tok in "&|)":
        return "unexpected token %r" % tok
    return "reserved word %r used as identifier" % tok


def _scan(text, builder):
    """Recursive descent on an explicit stack, so nesting depth is unbounded.

    ``disjunction := conjunction (| conjunction)*``,
    ``conjunction := unary (& unary)*``, ``unary := ! unary | atom`` and
    ``atom := ( disjunction ) | constant | identifier``.  The state of the
    innermost open group is the built arguments of its disjunction so far,
    those of its current conjunction, the negations read before its next
    operand, and its polarity: 1 when an even number of negations is in
    force over the group, else 0.  An open parenthesis pushes the
    enclosing group's state, and the new group's polarity is the enclosing
    one flipped once per negation read before the parenthesis.  The tokens
    come from one regex scan, ended by a None token.

    The builder is called as:

    - ``var(name, nots, positive)`` and ``const(node, nots, positive)`` at
      a leaf read after `nots` negations; `positive` is the polarity in
      force at the leaf, its group's flipped once per negation;
    - ``conj(parts, positive)`` and ``disj(parts, positive)`` for a
      conjunction or disjunction of two or more parts, with the group's
      polarity;
    - ``close(value, nots)`` for a group read after `nots` > 0 negations,
      once it closes.
    """
    var, const, conj, disj = builder.var, builder.const, builder.conj, builder.disj
    tokens = _TOKEN_RE.findall(text)
    tokens.append(None)
    pos = 0
    stack = []
    ors, ands, nots, positive = [], [], 0, 1
    while True:
        # an operand: negations, then an open parenthesis or an atom
        tok = tokens[pos]
        kind = _KINDS.get(tok)
        pos += 1
        if kind == "!":
            nots += 1
            continue
        if kind == "(":
            stack.append((ors, ands, nots, positive))
            ors, ands, positive = [], [], positive ^ (nots & 1)
            nots = 0
            continue
        if kind is not None or tok is None:
            raise _syntax_error(_operand_fault(tok), text, pos - 1)
        node = _CONSTANTS.get(tok)
        if node is None:
            expr = var(tok, nots, positive ^ (nots & 1))
        else:
            expr = const(node, nots, positive ^ (nots & 1))
        while True:
            ands.append(expr)
            # an operator, or the end of the innermost group
            tok = tokens[pos]
            kind = _KINDS.get(tok)
            if kind == "&":
                pos += 1
                break
            ors.append(ands[0] if len(ands) == 1 else conj(ands, positive))
            ands = []
            if kind == "|":
                pos += 1
                break
            expr = ors[0] if len(ors) == 1 else disj(ors, positive)
            if not stack:
                if tok is not None:
                    raise _syntax_error("unexpected token %r" % tok, text, pos)
                return expr
            if kind != ")":
                raise _syntax_error("expected ')'", text, pos)
            pos += 1
            ors, ands, nots, positive = stack.pop()
            if nots:
                expr = builder.close(expr, nots)
        nots = 0


def _negated(expr, nots):
    for _ in range(nots):
        expr = Not(expr)
    return expr


class _Tree:
    """The AST builder: each leaf and group under its own `Not` nodes, one
    per negation read, and one `And` or `Or` node per operator chain.  The
    tree keeps the negations as written, so polarity is not used."""

    @staticmethod
    def var(name, nots, positive):
        return _negated(Var(name), nots)

    @staticmethod
    def const(node, nots, positive):
        return _negated(node, nots)

    @staticmethod
    def conj(parts, positive):
        return And(tuple(parts))

    @staticmethod
    def disj(parts, positive):
        return Or(tuple(parts))

    close = staticmethod(_negated)


def parse_expression(text, builder=_Tree):
    """Parse expression text; by default into an AST, with no simplification.

    `builder` makes the result (see `_scan`).  Every syntax error is raised
    here, whatever the builder.  Tokens carry no position; an error's line
    and column come from the offset of the offending character or token.
    Text that is one name, alone or after one ``!``, is not scanned: the
    builder gets the leaf the scanner would give it.
    """
    nots = 1 if text[:1] == "!" else 0
    name = text[nots:]
    if (
        name.replace("_", "").isalnum()
        and name.isascii()
        and name not in _KINDS
        and name not in _CONSTANTS
    ):
        return builder.var(name, nots, 1 - nots)
    if not text or text.isspace():
        raise ExprSyntaxError("empty expression", 1, 1)
    bad = _UNEXPECTED_RE.search(text)
    if bad is not None:
        raise ExprSyntaxError(
            "unexpected character %r" % bad.group(), *_position(text, bad.start())
        )
    return _scan(text, builder)


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

