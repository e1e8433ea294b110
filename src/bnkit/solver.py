"""Enumeration of fixed points and minimal/maximal trap spaces.

One native propagate-and-branch engine replaces an external solver: a
search over per-component value sets {0}, {1}, {0,1} and FREE, whose
closedness constraint ``eval(f_i, S) subset S_i`` is checked through the
exact cube evaluation of the cubes module.  Fixed points are the trap
spaces with no free component, so they are this search over the domains
{0, 1}; there every function is evaluated at a single point and the
engine reduces to unit propagation inside the DNF clauses of
``x_i = f_i(x)``.  Every assignment records the decision levels it rests
on, and a conflict jumps back to the highest of them (conflict-directed
backjumping), skipping levels that cannot change its outcome; branching
order is that of chronological search, so solutions come out in the
same order.

Extremality comes from the value order of the search: decisions try
FREE last for minimal trap spaces and first for maximal ones, so the
first answer of a search is already subset-minimal (maximal); see
``_trap_search``.  A drain of minimal or maximal trap spaces is one
search: each answer is recorded as a clause and the search continues
under it (clasp's domRec enumeration), jumping back to the highest level
the clause rests on.  Emitted minimal trap spaces are blocked by
disjointness constraints (minimal trap spaces are pairwise disjoint),
emitted maximal ones by excluding their subcubes.  These clauses hold on
every cube below (above) an admitted one, so each answer is extremal
among all trap spaces in `within` (the full cube aside, for maximal
ones).  When `within` is itself a trap space, the first minimal one is
reached by descent from it instead, which is much faster on large
networks: the closure of the state that synchronous simulation reaches
from its all-0 vertex, then one pass over the strongly connected
components of its free subnetwork, regulators first, that percolates
each and searches what stays free for a strictly smaller trap space;
the search for the rest starts with its disjointness clause.  The
solver draws no random numbers.

Searches for minimal trap spaces prune by the minimality condition: if S
is subset-minimal and f_i is constant c on S, then i is not free in S,
since fixing it to c gives a smaller trap space.  Evaluated on the cube
of the assigned values, which contains every answer below, this makes a
free component with a constant function a conflict and forces an
unassigned one to the constant, wherever its domain admits it.  It needs
every clause of the search to lack literals that admit FREE, as
disjointness clauses and the descent's strictness clause do; see
``_trap_search``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import islice

from .cubes import FREE, Cube, closure, eval_mask, is_trap_space

_DEADLINE_STRIDE = 512
_SIM_STEPS = 60  # synchronous steps of the descent's simulation


class SolverTimeout(Exception):
    """Cooperative deadline expired between branching decisions."""


@dataclass(frozen=True)
class Query:
    kind: str  # fixed-points | minimal-trap-spaces | maximal-trap-spaces
    within: Cube | None = None
    limit: int | None = None


class _Deadline:
    __slots__ = ("at", "tick")

    def __init__(self, at):
        self.at = at
        self.tick = 0

    def poll(self):
        if self.at is None:
            return
        self.tick += 1
        if self.tick >= _DEADLINE_STRIDE:
            self.tick = 0
            if time.monotonic() > self.at:
                raise SolverTimeout

    def check_now(self):
        if self.at is not None and time.monotonic() > self.at:
            raise SolverTimeout


def _start(net, within, limit, deadline):
    """Common enumerator preamble: the validated restriction and the clock."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    if within is None:
        within = Cube.full(net.n)
    if len(within) != net.n:
        raise ValueError("restriction cube has wrong length")
    clock = _Deadline(deadline)
    clock.check_now()
    return within, clock


def _branch_order(net, scope):
    return sorted(scope, key=lambda i: (-net.occ_count[i], i))


# ---------------------------------------------------------------------------
# Trap space search engine

_UNASSIGNED = 3


def _trap_search(net, allowed, or_clauses, prefer_free, clock, scope=None, block=None):
    """Stream full symbol assignments (cubes) that are trap spaces.

    ``allowed[i]`` is the set of admissible symbols (0, 1, FREE) for
    component i; ``or_clauses`` is a list of clauses, each a list of
    ``(component, admissible symbol set)`` literals, at least one of which
    must hold in every solution.  Clauses may be added at any point of the
    search: ``add_clause`` counts each one under the current assignment,
    and backtracking keeps the counts in step.  A clause that is already
    unit or false when added is the adder's to act on.

    With ``block``, a function from an answer to a clause that the answer
    falsifies, every answer is recorded as its clause and the search goes
    on under it (clasp's domRec enumeration): the clause is a conflict
    resting on the levels of its components, so the search jumps back to
    the highest of them.  The levels skipped are sound to drop, since every
    leaf below them keeps the answer's values on the clause's components.
    Without it the search resumes chronologically after each answer.

    A fixed component's check reads clauses whatever its support: value 0
    needs every clause of f dead, value 1 some prime implicant of f fully
    true.  An unassigned component's check evaluates f on the upper-bound
    cube, the assignment itself (``eval_mask`` reads ``_UNASSIGNED`` as
    free), and in a FREE-first search waits for a complete support if the
    component may be FREE.  A component none of whose regulators may be
    FREE is two-valued; only the other fixed components, bar those that the
    minimality rule below fixed, steer branching towards completing their
    support.  With every domain inside {0, 1} (fixed points) all components
    are two-valued, so branching follows ``_branch_order`` alone.

    FREE-last searches (``prefer_free`` false) also apply the minimality
    rule.  Every answer below the current assignment lies inside the
    upper-bound cube, so if f_i is constant c there, it is c on every
    answer.  An answer S with S_i = FREE and c in ``allowed[i]`` is then
    not minimal: S with i fixed to c is a trap space (f_i is c on it, and
    every other f_j stays constant on a subcube), and it satisfies every
    clause S does, because no clause has a literal that admits FREE.
    ``_disjoint_clause`` and the descent's strictness clause have none;
    this is the precondition of the rule.  So a FREE i is a conflict,
    resting on i and on its assigned regulators, and an unassigned i is
    forced to c, resting on its assigned regulators; its closedness then
    holds on every answer below, so it steers no branching.  The cube
    only shrinks deeper in the search, and the check runs whenever a
    regulator is assigned.  Every admitted trap space contains a minimal
    admitted one, which obeys the rule, so no search loses its answers.
    With the rule, a component whose support is complete is assigned
    before the next decision, so a decision has no function value to
    prefer: it tries 0, 1, then FREE.

    Every singleton domain, in scope or not, is set at level 0.  With
    ``scope``, only the given components are searched, and set-up reads
    only their supports and dependents; all others must have singleton
    domains and their closedness is not re-checked, which the callers
    guarantee to be sound.

    The first answer S is subset-minimal among the admitted trap spaces
    when FREE is tried last (``prefer_free`` false), and subset-maximal
    when it is tried first (Castell et al. 1996; Di Rosa, Giunchiglia &
    Maratea 2010).  Say T is strictly inside S, admitted and, among such,
    minimal, so that it obeys the minimality rule; let d be the first
    component on S's trail where they differ.  Every earlier assignment
    agrees with T, and propagation (the rule included) and backjumping are
    sound for T, so d was a decision with S_d = FREE.  T_d was tried
    before FREE on the same trail, and that subtree holds T, so the search
    would have answered from it first.  The maximal case is the dual.  Any
    change to the symbol order must keep FREE last (first) for this to
    hold.

    Later answers under ``block`` are extremal too.  The argument above
    puts a strictly smaller (larger) admitted T in a subtree searched
    before S.  Clauses only grow, so that subtree was searched under a
    subset of the clauses T satisfies, and every leaf it admitted was
    yielded: T would have been answered before S, and its own clause
    would now exclude it.
    """
    if not all(allowed):
        return
    n = net.n
    functions = net.functions
    # symbol or _UNASSIGNED; every singleton domain is set at level 0
    values = [next(iter(opts)) if len(opts) == 1 else _UNASSIGNED for opts in allowed]
    if scope is None:
        scope = range(n)
        dependents = net.dependents
    else:
        scope = sorted(scope)
        scope_set = set(scope)
        dependents = {
            i: [t for t in net.dependents[i] if t in scope_set] for i in scope
        }
    order = _branch_order(net, scope)
    two_valued = [True] * n
    unassigned_support = [0] * n
    for i in scope:
        for s in functions[i].support:
            if values[s] == _UNASSIGNED:
                unassigned_support[i] += 1
            if FREE in allowed[s]:
                two_valued[i] = False
    # settled[c]: c was fixed by the minimality rule, so f_c is constant at
    # its value on every answer below and c steers no branching
    settled = [False] * n

    # Clause state is kept incrementally: sat_count counts assigned
    # literals that satisfy the clause, open_count the unassigned ones
    # that still could.
    clauses = []
    lit_by_var = [[] for _ in range(n)]
    sat_count = []
    open_count = []

    def add_clause(clause):
        """Register a clause, counted under the current assignment."""
        ci = len(clauses)
        clauses.append(clause)
        sat = opened = 0
        for comp, syms in clause:
            feasible = bool(allowed[comp] & syms)
            lit_by_var[comp].append((ci, syms, feasible))
            v = values[comp]
            if v == _UNASSIGNED:
                opened += feasible
            elif v in syms:
                sat += 1
        sat_count.append(sat)
        open_count.append(opened)

    for clause in or_clauses:
        add_clause(clause)

    def clauses_assign(comp, sym):
        dirty = []
        for ci, syms, feasible in lit_by_var[comp]:
            if feasible:
                open_count[ci] -= 1
            if sym in syms:
                sat_count[ci] += 1
            elif not sat_count[ci] and open_count[ci] <= 1:
                dirty.append(ci)
        return dirty

    def clauses_unassign(comp, sym):
        for ci, syms, feasible in lit_by_var[comp]:
            if feasible:
                open_count[ci] += 1
            if sym in syms:
                sat_count[ci] -= 1

    trail = []
    # (unassigned regulators, comp) for fixed, not-yet-exact comps that
    # are neither two-valued nor settled
    heap = []
    # reasons[c]: the decision levels (bit k for level k) that the current
    # assignment of c rests on; level-0 assignments rest on none
    reasons = [0] * n
    no_implications = ((), 0)

    def assigned_reason(comps):
        why = 0
        for comp in comps:
            if values[comp] != _UNASSIGNED:
                why |= reasons[comp]
        return why

    def check_function(i):
        """Closedness check for component i.

        Returns ``(implied, why)``: the forced ``(comp, symbol)`` pairs, or
        None on a conflict, and the levels that the conclusion rests on.
        """
        vi = values[i]
        fn = functions[i]
        if vi == FREE:
            # Minimality: f_i constant at an admitted value on the cube
            # means fixing i gives a smaller admitted trap space.
            if prefer_free:
                return no_implications
            mask = eval_mask(fn, values)
            if mask == 3 or (0 if mask == 1 else 1) not in allowed[i]:
                return no_implications
            return None, reasons[i] | assigned_reason(fn.support)
        if vi != _UNASSIGNED:
            # Every fixed component gets clause reasoning.  Value 1 needs
            # some prime implicant of f fully fixed true, and the last open
            # prime is propagated; that conclusion rests on i and on one
            # contradicting literal per dead prime.  Value 0 needs every
            # clause of f dead (a fixed literal contradicts it), and a
            # clause with one open literal left forces that literal false;
            # that conclusion rests on i and on the literals of the
            # clauses that forced it.
            if vi == 1:
                candidates = []
                killers = [i]
                for prime in fn.primes.clauses:
                    unassigned = []
                    for comp, val in prime:
                        v = values[comp]
                        if v == val:
                            continue
                        if v == _UNASSIGNED:
                            unassigned.append((comp, val))
                        else:
                            killers.append(comp)
                            break
                    else:
                        if not unassigned:
                            return no_implications
                        candidates.append(unassigned)
                if not candidates:
                    return None, assigned_reason(killers)
                if len(candidates) == 1:
                    return candidates[0], assigned_reason(killers)
                return no_implications
            implied = []
            why = reasons[i]
            for clause in fn.dnf.clauses:
                forcible = []
                for comp, val in clause:
                    v = values[comp]
                    if v == 1 - val:
                        break
                    if v == _UNASSIGNED:
                        forcible.append((comp, 1 - val))
                else:
                    if len(forcible) < 2:
                        clause_why = assigned_reason(comp for comp, _ in clause)
                        if not forcible:
                            return None, reasons[i] | clause_why
                        why |= clause_why
                        implied.append(forcible[0])
            return implied, why
        exact = unassigned_support[i] == 0
        if prefer_free and not exact and FREE in allowed[i]:
            return no_implications
        # An unassigned component's value rests on all its assigned regulators.
        mask = eval_mask(fn, values)
        if mask == 3:
            # a component that cannot be FREE waits for a determined value
            if not exact:
                return no_implications
            implied = ((i, FREE),)
        else:
            value = 0 if mask == 1 else 1
            if not prefer_free and value in allowed[i]:
                settled[i] = True
                implied = ((i, value),)  # FREE would break minimality
            else:
                opts = allowed[i] & {value, FREE}
                if len(opts) > 1:
                    return no_implications
                implied = ((i, next(iter(opts))),) if opts else None
        return implied, assigned_reason(fn.support)

    def check_clause(ci):
        if sat_count[ci]:
            return no_implications
        oc = open_count[ci]
        if oc > 1:
            return no_implications
        clause = clauses[ci]
        if oc == 0:
            return None, assigned_reason(comp for comp, _ in clause)
        for comp, syms in clause:
            if values[comp] == _UNASSIGNED:
                opts = allowed[comp] & syms
                if opts:
                    if len(opts) > 1:
                        return no_implications
                    why = assigned_reason(c for c, _ in clause)
                    return ((comp, next(iter(opts))),), why
        return no_implications

    def assign(comp, sym, why, fun_queue, clause_queue):
        values[comp] = sym
        reasons[comp] = why
        if sym != FREE and unassigned_support[comp] and not (
            two_valued[comp] or settled[comp]
        ):
            heapq.heappush(heap, (unassigned_support[comp], comp))
        trail.append(comp)
        for t in dependents[comp]:
            unassigned_support[t] -= 1
            if unassigned_support[t] and values[t] < FREE and not (
                two_valued[t] or settled[t]
            ):
                heapq.heappush(heap, (unassigned_support[t], t))
            fun_queue.append(t)
        fun_queue.append(comp)
        clause_queue.extend(clauses_assign(comp, sym))

    def propagate(fun_queue, clause_queue):
        """None at the fixpoint, else the levels the conflict rests on."""
        while fun_queue or clause_queue:
            clock.poll()
            if fun_queue:
                implied, why = check_function(fun_queue.pop())
            else:
                implied, why = check_clause(clause_queue.pop())
            if implied is None:
                return why
            for comp, sym in implied:
                cur = values[comp]
                if cur != _UNASSIGNED:
                    if cur != sym:
                        return why | reasons[comp]
                    continue
                if sym not in allowed[comp]:
                    return why
                assign(comp, sym, why, fun_queue, clause_queue)
        return None

    def decide(var, sym, level):
        fun_queue, clause_queue = [], []
        assign(var, sym, 1 << level, fun_queue, clause_queue)
        return propagate(fun_queue, clause_queue)

    def backtrack_to(mark):
        while len(trail) > mark:
            comp = trail.pop()
            clauses_unassign(comp, values[comp])
            values[comp] = _UNASSIGNED
            settled[comp] = False
            for t in dependents[comp]:
                unassigned_support[t] += 1
                if values[t] < FREE and not (two_valued[t] or settled[t]):
                    heapq.heappush(heap, (unassigned_support[t], t))

    # Level 0: propagate everything once.  An unassigned component with no
    # assigned regulator and a non-constant function is not queued: f takes
    # both values on the free cube of its support, so its check concludes
    # nothing, and `assign` queues it once a regulator is set.  Singletons
    # queue their checks as if assigned in scope order: the rule that fixes
    # a component first decides whether it is settled.  Callers pass at
    # most one clause, and one clause checks alike however often it is
    # queued.
    fun_queue = [
        i
        for i in scope
        if values[i] != _UNASSIGNED
        or unassigned_support[i] < len(functions[i].support)
        or functions[i].primes.clauses in ((), ((),))
    ]
    for i in scope:
        if len(allowed[i]) == 1:
            if values[i] < FREE and unassigned_support[i] and not two_valued[i]:
                heapq.heappush(heap, (unassigned_support[i], i))
            fun_queue += [*dependents[i], i]
    if propagate(fun_queue, list(range(len(clauses)))) is not None:
        return

    # stack[k - 1] = [var, untried symbols, trail mark, ptr, conflict set]
    # for the decision at level k
    stack = []
    ptr = 0

    def pick_support_var():
        # Branch towards completing the support of the fixed component
        # with the fewest unassigned regulators, so its closedness check
        # fires as early as possible.
        while heap:
            cnt, j = heap[0]
            if values[j] >= FREE or settled[j] or unassigned_support[j] == 0:
                heapq.heappop(heap)
                continue
            if cnt != unassigned_support[j]:
                heapq.heapreplace(heap, (unassigned_support[j], j))
                continue
            for s in functions[j].support:
                if values[s] == _UNASSIGNED:
                    return s
            heapq.heappop(heap)
        return None

    symbols = (FREE, 0, 1) if prefer_free else (0, 1, FREE)

    # Conflict-directed backjumping (Prosser 1993): a conflict returns to
    # the highest level it rests on, and the levels skipped hold no
    # solution.  The rest of the conflict joins that level's conflict set,
    # which becomes the conflict once the level runs out of symbols.
    # Variable and symbol order are those of chronological search, so the
    # solutions come out in the same order.
    while True:
        clock.poll()
        var = pick_support_var()
        if var is None:
            while ptr < len(order):
                if values[order[ptr]] == _UNASSIGNED:
                    var = order[ptr]
                    break
                ptr += 1
        if var is None:
            answer = Cube(tuple(values))
            yield answer
            if block is None:
                # resume chronologically: treat the solution as resting on
                # every level
                conflict = (1 << (len(stack) + 1)) - 2
            else:
                clause = block(answer)
                add_clause(clause)
                conflict = assigned_reason(comp for comp, _ in clause)
        else:
            syms = [s for s in symbols if s in allowed[var]]
            stack.append([var, syms[1:], len(trail), ptr, 0])
            conflict = decide(var, syms[0], len(stack))
        while conflict is not None:
            level = conflict.bit_length() - 1
            if level < 1:
                return
            del stack[level:]
            top = stack[-1]
            backtrack_to(top[2])
            ptr = top[3]
            top[4] |= conflict ^ (1 << level)
            if top[1]:
                conflict = decide(top[0], top[1].pop(0), level)
            else:
                stack.pop()
                conflict = top[4]


# ---------------------------------------------------------------------------
# Fixed points


def fixed_points(net, within=None, limit=None, deadline=None):
    """Stream the states x in `within` with f(x) = x.

    A fixed point is a trap space without free components, so this is the
    trap-space search over the domains {0, 1}.  States come out in
    lexicographic order of the branching order (0 before 1).
    """
    within, clock = _start(net, within, limit, deadline)
    allowed = [{0, 1} if v == FREE else {v} for v in within.values]
    found = _trap_search(net, allowed, [], False, clock)
    for cube in islice(found, limit):
        yield cube.values


def _allowed_within(within):
    out = []
    for v in within.values:
        if v == FREE:
            out.append({0, 1, FREE})
        else:
            out.append({v})
    return out


def _disjoint_clause(cube):
    """At least one component fixed opposite to the cube's fixed value."""
    return [(i, {1 - v}) for i, v in enumerate(cube.values) if v != FREE]


def _not_subset_clause(cube):
    """At least one component breaking containment in the cube."""
    return [(i, {1 - v, FREE}) for i, v in enumerate(cube.values) if v != FREE]


# ---------------------------------------------------------------------------
# Minimal trap spaces


def _simulate(net, state, steps, clock):
    """The state after `steps` synchronous updates of `state` (steps >= 1).

    After one full image, each step re-evaluates only the dependents of
    the components the previous step changed: x_{k+1}[t] can differ from
    x_k[t] only if some regulator of t changed at step k.  A dependent is
    woken once per step, by stamping it with the step number, and its DNF
    is evaluated in place on x_k; the flips are applied after the step's
    last evaluation.  A step that changes nothing has reached a fixed
    point, which ends the simulation.

    Every trajectory ends in a cycle, found by Brent's method: the state
    x_s saved at step s is compared with x_{s+1}, ..., x_{s+2^j}, and
    x_{s+2^j} becomes the next saved state.  The comparison is a count of
    the components where x_k and x_s differ, kept up to date from the
    changed components, so memory stays one extra state.  Once x_k = x_s
    the trajectory repeats with period p = k - s, and x_steps is
    x_{k + (steps - k) mod p}: only that many more steps are taken.  The
    clock is checked before every step.
    """
    clock.check_now()
    values = list(net.image(state))
    changed = [i for i, (new, old) in enumerate(zip(values, state)) if new != old]
    dnfs = [fn.dnf.clauses for fn in net.functions]
    dependents = net.dependents
    # woken_at[t] == k: t was already evaluated at step k
    woken_at = [0] * net.n
    # saved: x_since, or None once the period is known; diff: the number
    # of components where the current state and x_since differ
    saved, since, power, diff = state, 0, 1, len(changed)
    k, end = 1, steps
    while k < end and changed:
        if saved is not None:
            if not diff:
                end = k + (end - k) % (k - since)
                saved = None
                continue
            if k - since == power:
                saved, since, power, diff = tuple(values), k, 2 * power, 0
        clock.check_now()
        flips = []
        for i in changed:
            for t in dependents[i]:
                if woken_at[t] == k:
                    continue
                woken_at[t] = k
                new = 0
                for clause in dnfs[t]:
                    for comp, val in clause:
                        if values[comp] != val:
                            break
                    else:
                        new = 1
                        break
                if new != values[t]:
                    flips.append(t)
        changed = flips
        for t in changed:
            values[t] = 1 - values[t]
        if saved is not None:
            for t in changed:
                diff += 1 if values[t] != saved[t] else -1
        k += 1
    return tuple(values)


def _free_sccs(net, free_set, clock):
    """Strongly connected components of the influence graph on `free_set`,
    regulators first.

    Tarjan's algorithm over flat n-long arrays, each depth-first frame a
    node and an iterator over its dependents (those outside `free_set` are
    skipped).  It closes a component only after every component it
    reaches, so it lists dependents first; the list is returned reversed.
    The clock is polled once per visited component.
    """
    n = net.n
    dependents = net.dependents
    in_free = [False] * n
    for i in free_set:
        in_free[i] = True
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    sccs = []
    visited = 0

    def visit(node):
        nonlocal visited
        clock.poll()
        index[node] = low[node] = visited
        visited += 1
        stack.append(node)
        on_stack[node] = True
        return node, iter(dependents[node])

    for root in sorted(free_set):
        if index[root] >= 0:
            continue
        work = [visit(root)]
        while work:
            node, succ = work[-1]
            for w in succ:
                if not in_free[w]:
                    continue
                if index[w] < 0:
                    work.append(visit(w))
                    break
                if on_stack[w] and index[w] < low[node]:
                    low[node] = index[w]
            else:
                work.pop()
                if low[node] == index[node]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        scc.append(w)
                        if w == node:
                            break
                    sccs.append(scc)
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
    sccs.reverse()
    return sccs


def _percolate_down(net, values, scc_set, clock):
    """Fix, to fixpoint, every free member of `scc_set` whose function is
    constant on `values` (updated in place); each fix keeps `values` a
    trap space.  Returns the members left free."""
    queue = [i for i in scc_set if values[i] == FREE]
    pending = set(queue)
    while queue:
        clock.poll()
        i = queue.pop()
        pending.discard(i)
        mask = eval_mask(net.functions[i], values)
        if mask == 3:
            continue
        values[i] = 0 if mask == 1 else 1
        for t in net.dependents[i]:
            if t in scc_set and values[t] == FREE and t not in pending:
                pending.add(t)
                queue.append(t)
    return {i for i in scc_set if values[i] == FREE}


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

    The fixpoint is computed by worklist propagation (AC-3): a component
    is re-checked only when a regulator inside the SCC lost a value.  The
    greatest fixpoint is unique, so the order of the checks does not
    matter.  A probe records its removals and undoes them afterwards.
    Members with the most readers inside the SCC are probed first.

    A probe that keeps v also certifies other probes (Lecoutre & Cardon,
    IJCAI 2005): every member c whose domain in the probe's fixpoint is
    exactly {w} is certified for w, and the probe of (c, w) is skipped.
    That fixpoint lies inside `master`, fixes c to w and has every value
    supported, so it lies inside the greatest fixpoint below `master` with
    c fixed to w, and the probe of (c, w) would keep w.  The argument
    needs `master` as it was when the certificate was made: once `master`
    loses a value, the greatest fixpoint below it can lose w too, so every
    certificate is dropped.
    """
    functions = net.functions
    readers = {c: [j for j in net.dependents[c] if j in scc_set] for c in scc_set}

    def supported(j, v, domains):
        if v == 1:
            for prime in functions[j].primes.clauses:
                for c, val in prime:
                    if c in scc_set:
                        if val not in domains[c]:
                            break
                    elif values[c] != val:
                        break
                else:
                    return True
            return False
        for clause in functions[j].dnf.clauses:
            for c, val in clause:
                if c in scc_set:
                    if 1 - val in domains[c]:
                        break
                elif values[c] == 1 - val:
                    break
            else:
                return False
        return True

    def refine(domains, queue, removed):
        """Drop unsupported values, re-checking the readers of every
        component that loses one; each drop is appended to `removed`."""
        queue = list(queue)
        queued = set(queue)
        while queue:
            clock.poll()
            j = queue.pop()
            queued.discard(j)
            dom = domains[j]
            lost = False
            for v in (1, 0):
                if v in dom and not supported(j, v, domains):
                    dom.discard(v)
                    removed.append((j, v))
                    lost = True
            if lost:
                for t in readers[j]:
                    if t not in queued:
                        queued.add(t)
                        queue.append(t)

    master = {j: {0, 1} for j in scc_set}
    refine(master, scc_set, [])
    order = sorted(scc_set, key=lambda j: (-len(readers[j]), j))
    certified = set()
    changed = True
    while changed:
        changed = False
        for j in order:
            for v in (0, 1):
                if v not in master[j]:
                    continue
                clock.poll()
                dom = master[j]
                if 1 - v not in dom or (j, v) in certified:
                    continue  # the probe would change nothing
                dom.discard(1 - v)
                removed = [(j, 1 - v)]
                refine(master, readers[j], removed)
                kept = v in dom
                if kept:
                    for c, _ in removed:
                        if len(master[c]) == 1:
                            certified.add((c, next(iter(master[c]))))
                for c, u in removed:
                    master[c].add(u)
                if not kept:
                    dom.discard(v)
                    refine(master, readers[j], [])
                    certified.clear()
                    changed = True
    return master


def _minimize_trap(net, trap, clock):
    """Descend to a subset-minimal trap space inside the given one.

    Heuristic phase, one round: the closure of the state that synchronous
    simulation reaches from the candidate's all-0 vertex.  Only the first
    answer inside a `within` that is a trap space comes from here, for
    speed: every search answer is minimal as it stands.

    Exact phase: one pass over the strongly connected components of the
    free subnetwork, regulators first.  Each is percolated; if more than
    one member stays free, or one with a self-loop, the domain filter and
    a FREE-last search scoped to them look for a trap space fixing one,
    and its first answer replaces the current values.

    The pass is exact: a member's function reads only its own component
    and earlier ones, which are final when the pass reaches it.  Say a
    trap space U lies strictly inside the result T, and C is the first
    component where U fixes a member that T leaves free.  U agrees with T
    before C, so U with every later component freed is a trap space (the
    candidate's fixed components are constant on it) inside the values
    that percolation left at C.  A lone free member without a self-loop
    reads no free member of C, and its function is not constant there, so
    no trap space fixes it.  Otherwise the filter keeps U's values and the
    search admits U, but a search that finds nothing admits nothing, and
    its first answer, which T keeps on C, has no admitted trap space
    strictly inside it.
    """
    if not trap.is_state:
        start = tuple(v if v != FREE else 0 for v in trap.values)
        state = _simulate(net, start, _SIM_STEPS, clock)
        trap = closure(net, Cube.from_state(state), clock=clock)
    values = list(trap.values)
    free_set = {i for i, v in enumerate(values) if v == FREE}
    for scc in _free_sccs(net, free_set, clock):
        free = _percolate_down(net, values, set(scc), clock)
        if len(free) < 2 and not any(i in net.dependents[i] for i in free):
            continue
        domains = _scc_value_domains(net, values, free, clock)
        fixable = [(i, domains[i]) for i in sorted(free) if domains[i]]
        if not fixable:
            continue
        allowed = [{v} for v in values]
        for i in free:
            allowed[i] = domains[i] | {FREE}
        search = _trap_search(net, allowed, [fixable], False, clock, scope=free)
        found = next(search, None)
        if found is not None:
            values = list(found.values)
    return Cube(tuple(values))


def _minimal_stream(net, within, clock):
    """The descent answer when `within` is a trap space, then one search."""
    clauses = []
    if is_trap_space(net, within):
        first = _minimize_trap(net, within, clock)
        yield first
        clauses.append(_disjoint_clause(first))
    allowed = _allowed_within(within)
    yield from _trap_search(net, allowed, clauses, False, clock, block=_disjoint_clause)


def minimal_trap_spaces(net, within=None, limit=None, deadline=None):
    """Stream the subset-minimal trap spaces contained in `within`."""
    within, clock = _start(net, within, limit, deadline)
    yield from islice(_minimal_stream(net, within, clock), limit)


# ---------------------------------------------------------------------------
# Maximal trap spaces


def maximal_trap_spaces(net, within=None, limit=None, deadline=None):
    """Stream the subset-maximal trap spaces in `within`, full cube excluded."""
    within, clock = _start(net, within, limit, deadline)
    allowed = _allowed_within(within)
    not_full = [[(i, {0, 1}) for i in range(net.n)]]
    found = _trap_search(net, allowed, not_full, True, clock, block=_not_subset_clause)
    yield from islice(found, limit)


# ---------------------------------------------------------------------------


def run_query(net, query, deadline=None):
    if query.kind == "fixed-points":
        return (
            Cube.from_state(s)
            for s in fixed_points(net, query.within, query.limit, deadline)
        )
    if query.kind == "minimal-trap-spaces":
        return minimal_trap_spaces(net, query.within, query.limit, deadline)
    if query.kind == "maximal-trap-spaces":
        return maximal_trap_spaces(net, query.within, query.limit, deadline)
    raise ValueError("unknown query kind %r" % query.kind)
