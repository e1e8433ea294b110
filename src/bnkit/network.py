"""Boolean network model: canonical DNF, BDD backing, bnet parsing and export.

Literals are pairs ``(component_index, value)`` where ``value`` is the
satisfying value of the literal (1 for a plain variable, 0 for a negated
one).  A function's canonical DNF is a sorted tuple of sorted clauses with
no contradictory clause and no subsumed clause.  The constant-false
function has no clause; the constant-true function has a single empty
clause.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expressions import (
    RESERVED,
    And,
    Const,
    ExprSyntaxError,
    Not,
    Or,
    Var,
    parse_expression,
    variables,
)


class ParseError(ValueError):
    """Malformed bnet input; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class NetworkError(ValueError):
    """Network-level validation failure (duplicate or undeclared component)."""


class NormalizationError(ValueError):
    """DNF construction exceeded the configured clause cap."""


DEFAULT_CLAUSE_CAP = 10**6

_TRUE = frozenset([frozenset()])
_FALSE = frozenset()


def _prune(clauses):
    """Drop subsumed clauses (clause with a superset literal set)."""
    ordered = sorted(clauses, key=len)
    kept = []
    for clause in ordered:
        if any(other <= clause for other in kept):
            continue
        kept.append(clause)
    return frozenset(kept)


def _product(left, right, cap):
    out = set()
    for c1 in left:
        for c2 in right:
            merged = c1 | c2
            ok = True
            for comp, val in merged:
                if (comp, 1 - val) in merged:
                    ok = False
                    break
            if ok:
                out.add(merged)
                if len(out) > cap:
                    raise NormalizationError(
                        "DNF clause count exceeded cap (%d)" % cap
                    )
    return _prune(out)


def _to_clauses(expr, index, positive, cap):
    """Clause sets of expr (positive=True) or its negation (positive=False)."""
    if isinstance(expr, Var):
        val = 1 if positive else 0
        return frozenset([frozenset([(index[expr.name], val)])])
    if isinstance(expr, Const):
        return _TRUE if expr.value == positive else _FALSE
    if isinstance(expr, Not):
        return _to_clauses(expr.arg, index, not positive, cap)
    # And distributes over clause products when positive, unions when negated;
    # Or is the dual.
    is_product = isinstance(expr, And) == positive
    parts = [_to_clauses(arg, index, positive, cap) for arg in expr.args]
    if is_product:
        acc = _TRUE
        for part in parts:
            acc = _product(acc, part, cap)
        return acc
    union = set()
    for part in parts:
        union.update(part)
        if len(union) > cap:
            raise NormalizationError("DNF clause count exceeded cap (%d)" % cap)
    return _prune(union)


@dataclass(frozen=True)
class Dnf:
    clauses: tuple

    @property
    def is_false(self):
        return not self.clauses

    @property
    def is_true(self):
        return self.clauses == ((),)

    def support(self):
        return frozenset(comp for clause in self.clauses for comp, _ in clause)

    def is_unate(self):
        signs = {}
        for clause in self.clauses:
            for comp, val in clause:
                prev = signs.setdefault(comp, val)
                if prev != val:
                    return False
        return True


def _canonical(clause_set):
    clauses = sorted(tuple(sorted(clause)) for clause in clause_set)
    return Dnf(tuple(clauses))


class Bdd:
    """Reduced ordered BDD over component indices, declaration order.

    Node ids: 0 is the false leaf, 1 the true leaf; internal nodes live in
    ``self.nodes`` as ``(component, low, high)`` triples keyed by id.
    """

    FALSE = 0
    TRUE = 1

    def __init__(self, nodes, root):
        self.nodes = nodes
        self.root = root

    def false_reachable(self, values):
        """True iff a root-to-false path is compatible with the cube.

        ``values`` maps component index to 0, 1, or 2 (free).
        """
        stack = [self.root]
        seen = set()
        nodes = self.nodes
        while stack:
            u = stack.pop()
            if u == 0:
                return True
            if u == 1 or u in seen:
                continue
            seen.add(u)
            comp, lo, hi = nodes[u]
            v = values[comp]
            if v != 1:
                stack.append(lo)
            if v != 0:
                stack.append(hi)
        return False


def build_bdd(dnf):
    """Shannon-expand the DNF into a reduced ordered BDD.

    The variable order is component declaration order; levels for absent
    components are skipped, which keeps the result reduced.
    """
    nodes = {}
    unique = {}
    memo = {}

    def mk(comp, lo, hi):
        if lo == hi:
            return lo
        key = (comp, lo, hi)
        node = unique.get(key)
        if node is None:
            node = len(nodes) + 2
            unique[key] = node
            nodes[node] = key
        return node

    def rec(clause_set):
        if not clause_set:
            return 0
        if frozenset() in clause_set:
            return 1
        key = clause_set
        cached = memo.get(key)
        if cached is not None:
            return cached
        comp = min(c for clause in clause_set for c, _ in clause)
        children = []
        for value in (0, 1):
            cof = set()
            for clause in clause_set:
                if (comp, value) in clause:
                    cof.add(clause - {(comp, value)})
                elif (comp, 1 - value) in clause:
                    continue
                else:
                    cof.add(clause)
            children.append(rec(frozenset(cof)))
        node = mk(comp, children[0], children[1])
        memo[key] = node
        return node

    root = rec(frozenset(frozenset(c) for c in dnf.clauses))
    return Bdd(nodes, root)


class NodeFunction:
    """One component's update function: canonical DNF plus optional BDD."""

    __slots__ = ("dnf", "unate", "bdd", "support")

    def __init__(self, dnf, unate, bdd):
        self.dnf = dnf
        self.unate = unate
        self.bdd = bdd
        self.support = dnf.support()

    def __repr__(self):
        return "NodeFunction(%s)" % (self.dnf.clauses,)


def normalize(expr, index, clause_cap=DEFAULT_CLAUSE_CAP):
    """Build the canonical NodeFunction for an expression.

    A BDD is attached only when the syntactic unateness test fails.
    """
    dnf = _canonical(_to_clauses(expr, index, True, clause_cap))
    unate = dnf.is_unate()
    bdd = None if unate else build_bdd(dnf)
    return NodeFunction(dnf, unate, bdd)


def evaluate(fn, state):
    """DNF evaluation of the function at a binary state."""
    if fn.dnf.is_true:
        return 1
    for clause in fn.dnf.clauses:
        if all(state[comp] == val for comp, val in clause):
            return 1
    return 0


class BooleanNetwork:
    """Ordered, immutable collection of named components with functions.

    Derived indices (supports, dependents, literal occurrence counts) are
    precomputed at construction for the solver and dynamics modules.
    """

    def __init__(self, components):
        names = tuple(name for name, _ in components)
        seen = set()
        for name in names:
            if name in seen:
                raise NetworkError("duplicate component name %r" % name)
            seen.add(name)
        self.names = names
        self.functions = tuple(fn for _, fn in components)
        self.n = len(names)
        self.index = {name: i for i, name in enumerate(names)}
        for i, fn in enumerate(self.functions):
            for comp in fn.support:
                if comp >= self.n:
                    raise NetworkError(
                        "function of %r references undeclared component" % names[i]
                    )
        self.dependents = [[] for _ in range(self.n)]
        self.occ_count = [0] * self.n
        for i, fn in enumerate(self.functions):
            for comp in sorted(fn.support):
                self.dependents[comp].append(i)
            for clause in fn.dnf.clauses:
                for comp, _ in clause:
                    self.occ_count[comp] += 1

    def __len__(self):
        return self.n

    def __iter__(self):
        return iter(self.names)

    def image(self, state):
        """f(x): the synchronous successor of a state."""
        return tuple(evaluate(fn, state) for fn in self.functions)

    def __repr__(self):
        return "BooleanNetwork(%d components)" % self.n


# The expression parser and the DNF builder recurse once per nesting level.
_TOO_DEEP = "expression nested too deeply"

# Words the expression grammar reads as operators or constants.
_RESERVED_NAMES = RESERVED | {"0", "1"}


def _name_problem(name):
    """Why `name` cannot name a component, or None when it can."""
    if not name or not name.replace("_", "").isalnum() or not name.isascii():
        return "invalid component name %r" % name
    if name.lower() in _RESERVED_NAMES:
        return "reserved word %r used as component name" % name
    return None


def _first_undeclared(expr, index):
    """First (sorted) name the expression references outside `index`."""
    missing = [name for name in variables(expr) if name not in index]
    return min(missing) if missing else None


def parse_bnet(text, clause_cap=DEFAULT_CLAUSE_CAP):
    """Parse BooleanNet-format text into a network.

    Lines are ``name, expression``; ``#`` starts a comment; an optional
    leading ``targets, factors`` header is skipped.
    """
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "," not in line:
            raise ParseError("expected 'name, expression'", lineno)
        name, expr_text = line.split(",", 1)
        name = name.strip()
        expr_text = expr_text.strip()
        if not entries and name.lower() == "targets" and expr_text.lower() == "factors":
            continue
        problem = _name_problem(name)
        if problem:
            raise ParseError(problem, lineno)
        entries.append((name, expr_text, lineno))

    names = [name for name, _, _ in entries]
    seen = set()
    for name, _, lineno in entries:
        if name in seen:
            raise ParseError("duplicate component name %r" % name, lineno)
        seen.add(name)
    index = {name: i for i, name in enumerate(names)}

    components = []
    for name, expr_text, lineno in entries:
        try:
            expr = parse_expression(expr_text)
            undeclared = _first_undeclared(expr, index)
            if undeclared is not None:
                raise ParseError("undeclared component %r referenced" % undeclared, lineno)
            components.append((name, normalize(expr, index, clause_cap)))
        except ExprSyntaxError as exc:
            raise ParseError(str(exc), lineno) from exc
        except RecursionError:
            raise ParseError(_TOO_DEEP, lineno) from None
    return BooleanNetwork(components)


def set_function(net, name, expr_text, clause_cap=DEFAULT_CLAUSE_CAP):
    """Return a new network with the named function replaced or added."""
    names = list(net.names)
    if name not in net.index:
        problem = _name_problem(name)
        if problem:
            raise NetworkError(problem)
        names.append(name)
    index = {n: i for i, n in enumerate(names)}
    try:
        expr = parse_expression(expr_text)
        undeclared = _first_undeclared(expr, index)
        if undeclared is not None:
            raise NetworkError("undeclared component %r referenced" % undeclared)
        fn = normalize(expr, index, clause_cap)
    except RecursionError:
        raise NetworkError(_TOO_DEEP) from None
    components = []
    for existing in net.names:
        if existing == name:
            components.append((existing, fn))
        else:
            components.append((existing, net.functions[net.index[existing]]))
    if name not in net.index:
        components.append((name, fn))
    return BooleanNetwork(components)


def _render_dnf(dnf, names):
    if dnf.is_false:
        return "0"
    if dnf.is_true:
        return "1"
    parts = []
    multi = len(dnf.clauses) > 1
    for clause in dnf.clauses:
        lits = " & ".join(
            (names[comp] if val else "!" + names[comp]) for comp, val in clause
        )
        if multi and len(clause) > 1:
            lits = "(" + lits + ")"
        parts.append(lits)
    return " | ".join(parts)


def export_bnet(net):
    """Emit BooleanNet text rendered from the canonical DNFs."""
    lines = ["targets, factors"]
    for name, fn in zip(net.names, net.functions):
        lines.append("%s, %s" % (name, _render_dnf(fn.dnf, net.names)))
    return "\n".join(lines) + "\n"
