"""Boolean network model: canonical DNFs, bnet parsing and export.

Literals are pairs ``(component_index, value)`` where ``value`` is the
satisfying value of the literal (1 for a plain variable, 0 for a negated
one).  A function's canonical DNF is a sorted tuple of sorted clauses with
no contradictory clause and no subsumed clause.  The constant-false
function has no clause; the constant-true function has a single empty
clause.  Every function also carries its prime implicants, so that both
of its values on a cube read from clauses.
"""

from __future__ import annotations

import gc
import re
from collections import Counter
from dataclasses import dataclass
from functools import wraps
from itertools import chain
from operator import itemgetter

from .expressions import RESERVED, ExprSyntaxError, parse_expression


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
    """DNF construction exceeded the configured clause cap.

    For the prime implicants the cap bounds the work of the build.
    """


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
            # contradictory iff two of its literals share a component
            if len(dict(merged)) == len(merged):
                out.add(merged)
                if len(out) > cap:
                    raise NormalizationError(
                        "DNF clause count exceeded cap (%d)" % cap
                    )
    return _prune(out) if len(out) > 1 else frozenset(out)


def _conjoin(parts, cap):
    """Clause set of the conjunction of clause sets, by products in order."""
    # Every part is pruned and free of contradictions, so the product of the
    # constant-true set and a part within the cap is the part.
    acc = _TRUE
    for part in parts:
        acc = part if acc is _TRUE and len(part) <= cap else _product(acc, part, cap)
    return acc


def _disjoin(parts, cap):
    """Clause set of the disjunction of clause sets: their pruned union."""
    union = set()
    for part in parts:
        union.update(part)
        if len(union) > cap:
            raise NormalizationError("DNF clause count exceeded cap (%d)" % cap)
    return _prune(union) if len(union) > 1 else frozenset(union)


def _literal_table(index):
    """Map each name of `index` to its literals: (value 0, value 1)."""
    return {name: ((i, 0), (i, 1)) for name, i in index.items()}


class _NetworkLiterals(dict):
    """`_literal_table(index)` for a network's names and any new ones, made
    as names are looked up: a literal that a clause of the network holds is
    that object, found among the functions reading its component, so new
    clauses share it.  An undeclared name raises KeyError."""

    def __init__(self, net, index):
        super().__init__()
        self.net = net
        self.index = index

    def __missing__(self, name):
        comp = self.index[name]
        pair = [(comp, 0), (comp, 1)]
        for reader in self.net.dependents[comp] if comp < self.net.n else ():
            for clause in self.net.functions[reader].dnf.clauses:
                for literal in clause:
                    if literal[0] == comp:
                        pair[literal[1]] = literal
        pair = self[name] = tuple(pair)
        return pair


class _Clauses:
    """The clause builder that `parse_expression`'s scanner drives: the
    clause set of each part, negated when its polarity is 0.

    A leaf is the singleton clause set of its literal from `literals` (see
    `_literal_table`), so one builder's functions share one object per
    literal.  The sets are made per leaf: one kept per literal would hold
    about 0.4 kB for the whole model.  Under polarity 1 a conjunction is the
    product of its parts' sets and a disjunction their pruned union; under
    polarity 0 the two swap (De Morgan).  A closing group's set is final.
    Products and unions past the cap raise NormalizationError.
    """

    __slots__ = ("literals", "cap")

    def __init__(self, literals, cap):
        self.literals = literals
        self.cap = cap

    def var(self, name, nots, positive):
        return frozenset([frozenset([self.literals[name][positive]])])

    def const(self, value, nots, positive):
        return _TRUE if value == positive else _FALSE

    def conj(self, parts, positive):
        return _conjoin(parts, self.cap) if positive else _disjoin(parts, self.cap)

    def disj(self, parts, positive):
        return _disjoin(parts, self.cap) if positive else _conjoin(parts, self.cap)

    def close(self, clauses, nots):
        return clauses


class _Names(set):
    """The builder of a failed line's second scan: it collects the names
    the text reads and builds nothing."""

    def var(self, name, nots, positive):
        self.add(name)

    def const(self, *args):
        return None

    conj = disj = close = const


def _primes(dnf, cap):
    """Prime implicants of a canonical DNF that is not unate, as a canonical DNF.

    (A unate DNF, none of whose clauses subsumes another, is its own
    primes.)  The DNF is closed under consensus (Quine):
    two clauses that clash on one variable imply their union without it,
    and a clause that a kept one subsumes is dropped; the fixpoint keeps
    exactly the primes, over the DNF's support.  Literal indexes find the
    clashing partners and the subsumption candidates.  Every clause looked
    at counts against the cap, which so bounds the time of the build.
    """
    kept = set()
    holding = {}  # literal -> {kept clause holding it: None}
    heads = {}  # literal -> {kept clause whose least literal it is: None}
    done = set()  # clauses whose consensus with every earlier one is taken
    queue = []

    def add(clause):
        kept.add(clause)
        heads.setdefault(min(clause), {})[clause] = None
        for lit in clause:
            holding.setdefault(lit, {})[clause] = None
        queue.append(clause)

    def keep(clause):
        """Keep a clause unless subsumed, drop what it subsumes; return the work."""
        if clause in kept:
            return 1
        # a subsumer has its least literal here; a superset holds the rarest
        looked = 0
        for lit in clause:
            rivals = heads.get(lit, ())
            looked += len(rivals)
            if any(rival <= clause for rival in rivals):
                return looked
        rarest = min((holding.get(lit, {}) for lit in clause), key=len)
        for rival in [r for r in rarest if clause < r]:
            kept.remove(rival)
            del heads[min(rival)][rival]
            for lit in rival:
                del holding[lit][rival]
        add(clause)
        return looked + len(rarest)

    # the clauses of a canonical DNF subsume none of each other
    initial = [frozenset(clause) for clause in dnf.clauses]
    for clause in initial:
        add(clause)
    work = 0
    while queue:
        clause = queue.pop()
        for comp, val in clause:
            partners = [c for c in holding.get((comp, 1 - val), ()) if c in done]
            work += len(partners)
            for other in partners:
                merged = (clause | other) - {(comp, 0), (comp, 1)}
                if not merged:
                    return Dnf(((),))  # x and !x are implicants: f is 1
                if not any((c, 1 - v) in merged for c, v in merged):
                    work += keep(merged)
                if work > cap:
                    raise NormalizationError("primes exceeded the work cap (%d)" % cap)
            if clause not in kept:
                break
        else:
            done.add(clause)
    # a DNF closed under consensus is its own primes
    return dnf if kept == set(initial) else _canonical(kept)


@dataclass(frozen=True, slots=True)
class Dnf:
    clauses: tuple

    @property
    def is_false(self):
        return not self.clauses

    @property
    def is_true(self):
        return self.clauses == ((),)


def _canonical(clause_set):
    clauses = sorted(tuple(sorted(clause)) for clause in clause_set)
    return Dnf(tuple(clauses))


class NodeFunction:
    """One component's update function: its canonical DNF and its primes.

    ``primes``, the prime implicants of f as a canonical DNF, is the DNF
    itself when consensus adds nothing to it, as for every unate DNF.  f
    is 1 on a whole cube iff the cube's fixed literals contain a prime.  ``support`` is the tuple of the
    components the function reads, in index order.
    """

    __slots__ = ("dnf", "primes", "support")

    def __init__(self, dnf, primes, support):
        self.dnf = dnf
        self.primes = primes
        self.support = support

    def __repr__(self):
        return "NodeFunction(%s)" % (self.dnf.clauses,)


def _node_function(clause_set, cap):
    """The canonical NodeFunction of a clause set.

    One loop over the clauses sorts them and gathers their literals, which
    give the support and tell whether the DNF is unate (no component with
    both signs).  The primes are built from the DNF of f, under the same cap.
    A single clause is unate, as builders make no contradictory clause, so
    its sorted literals give the DNF, its primes and its support.
    """
    if len(clause_set) == 1:
        (clause,) = clause_set
        literals = tuple(sorted(clause))
        dnf = Dnf((literals,))
        return NodeFunction(dnf, dnf, tuple(dict(literals)))
    clauses = []
    used = set()
    for clause in clause_set:
        clauses.append(tuple(sorted(clause)))
        used |= clause
    clauses.sort()
    dnf = Dnf(tuple(clauses))
    signs = dict(used)
    primes = dnf if len(signs) == len(used) else _primes(dnf, cap)
    return NodeFunction(dnf, primes, tuple(sorted(signs)))


def _read_function(text, index, clauses):
    """The canonical NodeFunction of expression text, scanned straight into
    clause sets by the clause builder `clauses`.

    A leaf line, one name alone or right after one ``!``, takes the leaf
    path: `parse_expression` hands the name to the builder with no scan,
    and its one clause makes the function with no unateness test.  Only a
    failed build scans the text again, collecting its names, so that it
    fails with the syntax error, else with the first undeclared name in
    sorted order, else with the build's own error: an undeclared name is
    reported ahead of a NormalizationError of the same text.
    """
    try:
        return _node_function(parse_expression(text, clauses), clauses.cap)
    except (KeyError, NormalizationError):
        names = _Names()
        parse_expression(text, names)
        missing = names - index.keys()
        if missing:
            name = min(missing)
            raise NetworkError("undeclared component %r referenced" % name) from None
        raise


def evaluate(fn, state):
    """DNF evaluation of the function at a binary state."""
    for clause in fn.dnf.clauses:
        for comp, val in clause:
            if state[comp] != val:
                break
        else:
            return 1  # every literal holds; the empty clause of constant true too
    return 0


class BooleanNetwork:
    """Ordered, immutable collection of named components with functions.

    Derived indices (dependents, literal occurrence counts) are
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
        self.dependents = [[] for _ in range(self.n)]
        for i, fn in enumerate(self.functions):
            for comp in fn.support:
                if comp >= self.n:
                    raise NetworkError(
                        "function of %r references undeclared component" % names[i]
                    )
                self.dependents[comp].append(i)
        clauses = chain.from_iterable(fn.dnf.clauses for fn in self.functions)
        counts = Counter(map(itemgetter(0), chain.from_iterable(clauses)))
        self.occ_count = [counts[i] for i in range(self.n)]

    def __len__(self):
        return self.n

    def __iter__(self):
        return iter(self.names)

    def image(self, state):
        """f(x): the synchronous successor of a state."""
        return tuple(evaluate(fn, state) for fn in self.functions)

    def __repr__(self):
        return "BooleanNetwork(%d components)" % self.n


# The expression grammar's identifiers, and the words it reads as
# operators or constants.
_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
_RESERVED_NAMES = RESERVED | {"0", "1"}


def _name_problem(name):
    """Why `name` cannot name a component, or None when it can."""
    if _NAME_RE.fullmatch(name) is None:
        return "invalid component name %r" % name
    if name.lower() in _RESERVED_NAMES:
        return "reserved word %r used as component name" % name
    return None


def _intake(parse):
    """Run `parse` with automatic cyclic garbage collection paused.

    Intake makes no reference cycles: its clause sets and tuples
    are freed by reference counting, so collector passes during it walk a
    heap that grows with the model and free nothing.  On exit, by return or
    by raise, one young-generation pass takes the objects intake allocated,
    so that traversal is not left to whatever runs next, and collection is
    switched back on.  A caller that had switched collection off sees no
    pass, and collection stays off.
    """

    @wraps(parse)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return parse(*args, **kwargs)
        gc.disable()
        try:
            return parse(*args, **kwargs)
        finally:
            gc.collect(0)
            gc.enable()

    return paused


@_intake
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
    clauses = _Clauses(_literal_table(index), clause_cap)

    components = []
    for name, expr_text, lineno in entries:
        try:
            components.append((name, _read_function(expr_text, index, clauses)))
        except (ExprSyntaxError, NetworkError) as exc:
            raise ParseError(str(exc), lineno) from exc
    return BooleanNetwork(components)


@_intake
def set_function(net, name, expr_text, clause_cap=DEFAULT_CLAUSE_CAP):
    """Return a new network with the named function replaced or added."""
    names = list(net.names)
    if name not in net.index:
        problem = _name_problem(name)
        if problem:
            raise NetworkError(problem)
        names.append(name)
    index = {n: i for i, n in enumerate(names)}
    clauses = _Clauses(_NetworkLiterals(net, index), clause_cap)
    fn = _read_function(expr_text, index, clauses)
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
