"""Shared helpers: random model builders, expression trees and brute-force oracles.

The oracles deliberately avoid the library's cube-evaluation path: trap
spaces are checked by enumerating cube vertices and testing that every
synchronous image stays inside the cube.
"""

import random
import re
from collections import deque
from dataclasses import dataclass
from itertools import product

from bnkit import Cube, mp_successors, parse_bnet, solver, vertices
from bnkit.cubes import FREE, is_trap_space
from bnkit.dynamics import INC
from bnkit.expressions import ExprSyntaxError
from bnkit.network import (
    DEFAULT_CLAUSE_CAP,
    _Clauses,
    _literal_table,
    _primes,
    _read_function,
    evaluate,
)


# Expression trees, as `reference_parse` builds them and the `Tree` builder
# makes them from the library's scanner.


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
    arg: object


@dataclass(frozen=True, eq=False, repr=False)
class And(_Operator):
    args: tuple


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Operator):
    args: tuple


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


def _negated(expr, nots):
    for _ in range(nots):
        expr = Not(expr)
    return expr


class Tree:
    """The builder that makes a tree with `parse_expression`'s scanner: each
    leaf and group under its own `Not` nodes, one per negation read, and
    one `And` or `Or` node per operator chain.  The tree keeps the
    negations as written, so polarity is not used."""

    @staticmethod
    def var(name, nots, positive):
        return _negated(Var(name), nots)

    @staticmethod
    def const(value, nots, positive):
        return _negated(Const(bool(value)), nots)

    @staticmethod
    def conj(parts, positive):
        return And(tuple(parts))

    @staticmethod
    def disj(parts, positive):
        return Or(tuple(parts))

    close = staticmethod(_negated)


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


def read_function(text, index, clause_cap=DEFAULT_CLAUSE_CAP):
    """The library's NodeFunction of expression text over the names of
    `index`, read as intake reads a line, errors included."""
    return _read_function(text, index, _Clauses(_literal_table(index), clause_cap))


def random_expression(rng, names):
    r = rng.random()
    if r < 0.05:
        return rng.choice(["0", "1"])
    if r < 0.30 and len(names) >= 2:
        a, b = rng.sample(names, 2)
        return "(%s & !%s) | (!%s & %s)" % (a, b, a, b)
    clauses = []
    for _ in range(rng.randint(1, 3)):
        width = rng.randint(1, min(3, len(names)))
        lits = [
            (name if rng.random() < 0.5 else "!" + name)
            for name in rng.sample(names, width)
        ]
        clauses.append("(" + " & ".join(lits) + ")")
    return " | ".join(clauses)


def random_nested_expression(rng, names, depth=6):
    """Random expression of groups nested at most `depth` deep, for the
    scanner's polarity: groups under `!`, `!!`, `not` and `!not`, negated
    leaves and constants, and word operators in mixed case."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            leaf = rng.choice(["0", "1", "true", "FALSE", "True", "false"])
        else:
            leaf = rng.choice(names)
        return rng.choice(["", "", "!", "!!", "not ", "NOT "]) + leaf
    text = random_nested_expression(rng, names, depth - 1)
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(["&", "|", "and", "AND", "or", "Or"])
        text += " %s %s" % (op, random_nested_expression(rng, names, depth - 1))
    return rng.choice(["", "!", "!!", "!!!", "not ", "Not ", "!not "]) + "(" + text + ")"


def random_bnet_text(seed, n):
    rng = random.Random(seed)
    names = ["n%d" % i for i in range(n)]
    lines = ["targets, factors"]
    for name in names:
        lines.append("%s, %s" % (name, random_expression(rng, names)))
    return "\n".join(lines)


def random_network(seed, n):
    return parse_bnet(random_bnet_text(seed, n))


def oracle_suite(count=200, sizes=(2, 3, 4, 5, 6, 7, 3, 4, 5, 7)):
    """Deterministic list of (seed, network) pairs for oracle testing."""
    out = []
    for seed in range(count):
        out.append((seed, random_network(seed, sizes[seed % len(sizes)])))
    return out


def image_table(net):
    return {state: net.image(state) for state in product((0, 1), repeat=net.n)}


def oracle_general_successors(net, state):
    """States other than `state` whose every component keeps its value or
    takes its image, found by enumerating all states."""
    image = net.image(state)
    return {
        y
        for y in product((0, 1), repeat=net.n)
        if y != state and all(v in (x, fx) for v, x, fx in zip(y, state, image))
    }


def oracle_fixed_points(net, within=None, table=None):
    table = table or image_table(net)
    if within is None:
        within = Cube.full(net.n)
    return {x for x in vertices(within) if table[x] == x}


def oracle_is_trap(net, cube, table):
    return all(cube.contains(table[x]) for x in vertices(cube))


def oracle_trap_spaces(net, within=None, table=None):
    table = table or image_table(net)
    if within is None:
        within = Cube.full(net.n)
    out = []
    for values in product((0, 1, 2), repeat=net.n):
        cube = Cube(values)
        if cube.subset(within) and oracle_is_trap(net, cube, table):
            out.append(cube)
    return out

def oracle_minimal_traps(net, within=None, table=None):
    traps = oracle_trap_spaces(net, within, table)
    return {
        t for t in traps
        if not any(o != t and o.subset(t) for o in traps)
    }


def oracle_maximal_traps(net, within=None, table=None):
    traps = [t for t in oracle_trap_spaces(net, within, table) if t != Cube.full(net.n)]
    return {
        t for t in traps
        if not any(o != t and t.subset(o) for o in traps)
    }


def eval_oracle(fn, cube):
    """Function values over a cube by enumerating support assignments."""
    support = sorted(fn.support)
    state = [v if v != 2 else 0 for v in cube.values]
    free = [i for i in support if cube.values[i] == 2]
    seen = set()
    for bits in product((0, 1), repeat=len(free)):
        for i, b in zip(free, bits):
            state[i] = b
        seen.add(evaluate(fn, state))
        if len(seen) == 2:
            break
    if not support:
        seen.add(evaluate(fn, state))
    return frozenset(seen)


def prime_oracle(fn):
    """Prime implicants of f by enumeration, as a sorted tuple of sorted
    clauses: every term over the support (at most 6 components) that
    implies f and contains no smaller implicant."""
    support = fn.support
    assert len(support) <= 6
    state = [0] * (support[-1] + 1 if support else 0)

    def implies(term):
        free = [c for c in support if c not in dict(term)]
        for comp, val in term:
            state[comp] = val
        for bits in product((0, 1), repeat=len(free)):
            for comp, b in zip(free, bits):
                state[comp] = b
            if not evaluate(fn, state):
                return False
        return True

    primes = []
    for signs in product((None, 0, 1), repeat=len(support)):
        term = tuple((c, v) for c, v in zip(support, signs) if v is not None)
        if implies(term) and not any(
            implies(term[:k] + term[k + 1:]) for k in range(len(term))
        ):
            primes.append(term)
    return tuple(sorted(primes))


def is_unate(fn):
    """True iff no component appears in the DNF of f with both signs."""
    signs = {}
    return all(
        signs.setdefault(comp, val) == val
        for clause in fn.dnf
        for comp, val in clause
    )


def layered_expression(w, k):
    """`(x_i & !z1) | (z_j & y_j_i & !z_{j+1}) | (z_k & y_k_i)` for i < w and
    0 < j < k, with its variable names: w * (k + 1) clauses of f, whose
    primes grow about w-fold per layer."""
    terms = ["(x%d & !z1)" % i for i in range(w)]
    for j in range(1, k):
        terms += ["(z%d & y%d_%d & !z%d)" % (j, j, i, j + 1) for i in range(w)]
    terms += ["(z%d & y%d_%d)" % (k, k, i) for i in range(w)]
    names = sorted({lit.strip("()!") for term in terms for lit in term.split(" & ")})
    return " | ".join(terms), names


def render(expr):
    """Render an AST back to expression text with minimal parentheses."""

    def rec(node, level):
        # level: 0 = or-context, 1 = and-context, 2 = unary-context
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Const):
            return "1" if node.value else "0"
        if isinstance(node, Not):
            return "!" + rec(node.arg, 2)
        if isinstance(node, And):
            text = " & ".join(rec(a, 1) for a in node.args)
            return "(" + text + ")" if level > 1 else text
        text = " | ".join(rec(a, 0) for a in node.args)
        return "(" + text + ")" if level > 0 else text

    return rec(expr, 0)


def _mp_reachable_states(net, start):
    """All binary states mp-reachable from a binary state (explicit search)."""
    start = tuple(start)
    seen = {start}
    found = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for nxt in mp_successors(net, state):
            if nxt not in seen:
                seen.add(nxt)
                if all(v < INC for v in nxt):
                    found.add(nxt)
                queue.append(nxt)
    return found


# Full-sweep reference for the worklist `solver._scc_value_domains`: every
# refinement sweeps the whole SCC and every probe copies the domains.
def _scc_value_domains(net, values, scc_set, clock):
    """Values each feedback component could take in a strict sub-trap.

    Greatest fixpoint of the necessary conditions: fixing a component to
    1 needs some prime implicant whose literals can all become fixed true,
    fixing to 0 needs every clause to be blockable by a fixed-false
    literal; components outside the feedback set keep their value in
    `values` (free ones stay free).  Each surviving value is then probed
    with its opposite removed, which enforces consistency of the
    component itself; a value that cannot support itself this way is
    discarded.
    """

    def refine(domains):
        changed = True
        while changed:
            changed = False
            clock.poll()
            for j in scc_set:
                fn = net.functions[j]
                dom = domains[j]
                if 1 in dom:
                    ok = False
                    for prime in fn.primes:
                        good = True
                        for c, val in prime:
                            if c in scc_set:
                                if val not in domains[c]:
                                    good = False
                                    break
                            elif values[c] != val:
                                good = False
                                break
                        if good:
                            ok = True
                            break
                    if not ok:
                        dom.discard(1)
                        changed = True
                if 0 in dom:
                    ok = True
                    for clause in fn.dnf:
                        blocked = False
                        for c, val in clause:
                            if c in scc_set:
                                if 1 - val in domains[c]:
                                    blocked = True
                                    break
                            elif values[c] == 1 - val:
                                blocked = True
                                break
                        if not blocked:
                            ok = False
                            break
                    if not ok:
                        dom.discard(0)
                        changed = True
        return domains

    master = refine({j: {0, 1} for j in scc_set})
    changed = True
    while changed:
        changed = False
        for j in sorted(scc_set):
            for v in (0, 1):
                if v not in master[j]:
                    continue
                clock.poll()
                probe = {c: set(master[c]) for c in scc_set}
                probe[j] = {v}
                refine(probe)
                if v not in probe[j]:
                    master[j].discard(v)
                    refine(master)
                    changed = True
    return master


# Restart-per-answer references for `solver.minimal_trap_spaces` and
# `solver.maximal_trap_spaces`, which drain one search that records each
# answer as a clause: here every answer comes from a fresh `_trap_search`
# under the blocking clauses of all answers so far.
def _minimal_trap_spaces(net, within=None):
    within, clock = solver._start(net, within, None, None)
    emitted = []
    while True:
        if not emitted and is_trap_space(net, within):
            trap = solver._minimize_trap(net, within, clock)
        else:
            allowed = solver._allowed_within(within)
            blocking = [solver._disjoint_clause(t) for t in emitted]
            trap = next(solver._trap_search(net, allowed, blocking, False, clock), None)
        if trap is None:
            return
        yield trap
        emitted.append(trap)


def _maximal_trap_spaces(net, within=None):
    within, clock = solver._start(net, within, None, None)
    emitted = []
    while True:
        allowed = solver._allowed_within(within)
        clauses = [[(i, {0, 1}) for i in range(net.n)]]
        clauses.extend(solver._not_subset_clause(t) for t in emitted)
        trap = next(solver._trap_search(net, allowed, clauses, True, clock), None)
        if trap is None:
            return
        yield trap
        emitted.append(trap)


def is_minimal_trap(net, trap, deadline=None):
    """Certify a trap space subset-minimal with one plain search.

    A FREE-last `_trap_search` inside `trap` pins the fixed components,
    lets the free ones take 0, 1 or FREE and requires one of them fixed:
    any answer is a trap space strictly inside `trap`.  Unlike the
    descent's certification it neither splits the free subnetwork into
    feedback components nor filters their domains first.
    """
    clock = solver._Deadline(deadline)
    free = [i for i, v in enumerate(trap.values) if v == FREE]
    if not free:
        return True
    allowed = [{0, 1, FREE} if v == FREE else {v} for v in trap.values]
    strict = [[(i, {0, 1}) for i in free]]
    return next(solver._trap_search(net, allowed, strict, False, clock), None) is None


def is_maximal_trap(net, trap, deadline=None):
    """Certify a trap space subset-maximal, the full cube aside, with one
    plain search.

    A FREE-first `_trap_search` lets each fixed component of `trap` keep
    its value or be FREE and keeps the free ones FREE; one clause asks
    for a fixed component made FREE, another for one kept fixed.  Any
    answer is a trap space strictly containing `trap` other than the full
    cube.
    """
    clock = solver._Deadline(deadline)
    fixed = [(i, v) for i, v in enumerate(trap.values) if v != FREE]
    allowed = [{v, FREE} if v != FREE else {FREE} for v in trap.values]
    clauses = [[(i, {FREE}) for i, _ in fixed], [(i, {v}) for i, v in fixed]]
    return next(solver._trap_search(net, allowed, clauses, True, clock), None) is None


# Reference intake: a slower per-line path kept to check the library's.  A
# positional tokenizer and the parser over its tokens build the AST, a
# `variables` walk finds the names, and the DNF is built with a product
# that always prunes, then canonicalized with separate walks for the
# sorted clauses, the support and the unate test.
_REF_TOKEN_RE = re.compile(r"([A-Za-z0-9_]+)|([!&|()])|(\s+)|(.)")
_REF_OPERATORS = {"!": "!", "not": "!", "&": "&", "and": "&", "|": "|", "or": "|"}


def _ref_tokenize(text):
    """(token, kind, line, column) tuples, ended by a None token."""
    tokens = []
    line, col = 1, 1
    for match in _REF_TOKEN_RE.finditer(text):
        tok = match.group(0)
        group = match.lastindex
        if group == 1:
            tokens.append((tok, _REF_OPERATORS.get(tok.lower()), line, col))
        elif group == 2:
            tokens.append((tok, _REF_OPERATORS.get(tok, tok), line, col))
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


def _ref_atom(tok, line, col):
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


def reference_parse(text):
    """The AST of expression text, as `parse_expression` must build it."""
    if not text or text.isspace():
        raise ExprSyntaxError("empty expression", 1, 1)
    tokens = _ref_tokenize(text)
    pos = 0
    stack = []
    ors, ands, nots = [], [], 0
    while True:
        tok, kind, line, col = tokens[pos]
        pos += 1
        if kind == "!":
            nots += 1
            continue
        if kind == "(":
            stack.append((ors, ands, nots))
            ors, ands, nots = [], [], 0
            continue
        expr = _ref_atom(tok, line, col)
        while True:
            for _ in range(nots):
                expr = Not(expr)
            ands.append(expr)
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


def _ref_prune(clauses):
    kept = []
    for clause in sorted(clauses, key=len):
        if not any(other <= clause for other in kept):
            kept.append(clause)
    return frozenset(kept)


def _ref_clauses(expr, index, positive):
    """Clause set of expr (negated unless positive), recursively."""
    while isinstance(expr, Not):
        expr, positive = expr.arg, not positive
    if isinstance(expr, Var):
        return frozenset([frozenset([(index[expr.name], 1 if positive else 0)])])
    if isinstance(expr, Const):
        return frozenset([frozenset()]) if expr.value == positive else frozenset()
    parts = [_ref_clauses(arg, index, positive) for arg in expr.args]
    if isinstance(expr, And) == positive:
        acc = frozenset([frozenset()])
        for part in parts:
            out = set()
            for c1 in acc:
                for c2 in part:
                    merged = c1 | c2
                    if not any((comp, 1 - val) in merged for comp, val in merged):
                        out.add(merged)
            acc = _ref_prune(out)
        return acc
    union = set()
    for part in parts:
        union.update(part)
    return _ref_prune(union)


def reference_normalize(expr, index):
    """(dnf clauses, primes clauses, support) of an expression within the
    default clause cap."""
    clauses = tuple(sorted(tuple(sorted(c)) for c in _ref_clauses(expr, index, True)))
    support = tuple(sorted({comp for clause in clauses for comp, _ in clause}))
    signs = {}
    unate = all(
        signs.setdefault(comp, val) == val for clause in clauses for comp, val in clause
    )
    primes = clauses if unate else _primes(clauses, DEFAULT_CLAUSE_CAP)
    return clauses, primes, support


def reference_intake(text):
    """(names, [(dnf, primes, support)], dependents, occ_count) of bnet text
    with one `name, expression` per line and no error."""
    entries = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            name, expr_text = (part.strip() for part in line.split(",", 1))
            if entries or (name.lower(), expr_text.lower()) != ("targets", "factors"):
                entries.append((name, expr_text))
    index = {name: i for i, (name, _) in enumerate(entries)}
    functions = []
    for _, expr_text in entries:
        expr = reference_parse(expr_text)
        assert variables(expr) <= index.keys()
        functions.append(reference_normalize(expr, index))
    dependents = [[] for _ in entries]
    occ_count = [0] * len(entries)
    for i, (clauses, _, support) in enumerate(functions):
        for comp in support:
            dependents[comp].append(i)
        for clause in clauses:
            for comp, _ in clause:
                occ_count[comp] += 1
    return tuple(index), functions, dependents, occ_count
