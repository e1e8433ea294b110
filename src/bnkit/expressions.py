"""Propositional expressions over named components.

Grammar: identifiers ``[A-Za-z0-9_]+`` (excluding reserved words), unary
``!``/``not``, binary ``&``/``and`` and ``|``/``or``, parentheses, and the
constants ``0``/``1``/``true``/``false``.  Word operators and constants are
case-insensitive.  Precedence: ``!`` binds tighter than ``&``, which binds
tighter than ``|``.

One scanner, `_scan`, reads expression text.  It calls a builder at each
leaf, conjunction, disjunction and group close, and the builder decides
what these make.  The network module passes a clause builder, so that
model intake goes from text to clause sets with no tree in between, and,
only for a line that failed, a builder that collects the names the line
reads.  The scanner also tracks the polarity of the negations in force:
an open parenthesis read after an odd number of ``!`` starts a group that
is built negated, so a builder that can negate its leaves (clause sets,
by De Morgan) never negates a built value.
"""

from __future__ import annotations

import re
from itertools import product


class ExprSyntaxError(ValueError):
    """Raised on malformed expression text; carries line/column info."""

    def __init__(self, message, line, column):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


RESERVED = frozenset({"and", "or", "not", "true", "false"})


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
_CONSTANTS = {"0": 0, "1": 1, **_spellings("false", 0), **_spellings("true", 1)}


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

    - ``var(name, nots, positive)`` and ``const(value, nots, positive)``
      (`value` 0 or 1) at a leaf read after `nots` negations; `positive`
      is the polarity in force at the leaf, its group's flipped once per
      negation;
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
        value = _CONSTANTS.get(tok)
        if value is None:
            expr = var(tok, nots, positive ^ (nots & 1))
        else:
            expr = const(value, nots, positive ^ (nots & 1))
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


def parse_expression(text, builder):
    """Parse expression text into what `builder` makes of it (see `_scan`).

    Every syntax error is raised here, whatever the builder.  Tokens carry
    no position; an error's line and column come from the offset of the
    offending character or token.  Text that is one name, alone or after
    one ``!``, is not scanned: the builder gets the leaf the scanner would
    give it.
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

