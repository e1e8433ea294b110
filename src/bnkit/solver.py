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
networks: closures of states, each reached by synchronous simulation
from the candidate's all-0 vertex, then certification per feedback SCC
by searching for a strictly smaller trap space; the search for the rest
starts with its disjointness clause.  The solver is deterministic: it
draws no random numbers.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import islice

from .cubes import FREE, Cube, closure, eval_mask, is_trap_space
from .network import evaluate

_DEADLINE_STRIDE = 512
_SIM_STEPS = 60  # synchronous steps of a descent round


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


def _branch_order(net):
    return sorted(range(net.n), key=lambda i: (-net.occ_count[i], i))


# ---------------------------------------------------------------------------
# Trap space search engine

_UNASSIGNED = -1


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

    A component none of whose regulators may be FREE is two-valued: its
    function is evaluated at a single state, so clause reasoning is exact
    for it whatever the function's form, and its check does not wait for
    a complete support.  With every domain inside {0, 1} (fixed points)
    all components are two-valued.

    With ``scope``, only the given components are searched; all others
    must have singleton domains (they are pinned up front) and their
    closedness is not re-checked, which the callers guarantee to be sound.

    The first answer S is subset-minimal among the admitted trap spaces
    when FREE is tried last (``prefer_free`` false), and subset-maximal
    when it is tried first (Castell et al. 1996; Di Rosa, Giunchiglia &
    Maratea 2010).  Say T is strictly inside S and admitted, and d is the
    first component on S's trail where they differ.  Every earlier
    assignment agrees with T, and propagation and backjumping are sound,
    so d was a decision with S_d = FREE.  T_d was tried before FREE on
    the same trail, and that subtree holds T, so the search would have
    answered from it first.  The maximal case is the dual.  Any change to
    the symbol order must keep FREE last (first) for this to hold.

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
    two_valued = [True] * n
    for i, opts in enumerate(allowed):
        if FREE in opts:
            for t in net.dependents[i]:
                two_valued[t] = False
    unassigned_support = [len(fn.support) for fn in functions]

    values = [_UNASSIGNED] * n  # symbol or -1
    uview = [FREE] * n  # upper-bound cube: assigned 0/1 else FREE
    if scope is None:
        scope = range(n)
        dependents = net.dependents
        order = _branch_order(net)
    else:
        scope = sorted(scope)
        scope_set = set(scope)
        dependents = [
            [t for t in net.dependents[i] if t in scope_set] for i in range(n)
        ]
        order = [i for i in _branch_order(net) if i in scope_set]
        for i in range(n):
            if i not in scope_set:
                sym = next(iter(allowed[i]))
                values[i] = sym
                if sym != FREE:
                    uview[i] = sym
                for t in net.dependents[i]:
                    unassigned_support[t] -= 1
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
    # are not two-valued
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
        if vi == FREE:
            return no_implications
        fn = functions[i]
        if vi != _UNASSIGNED and (fn.unate or two_valued[i]):
            # For unate functions, and for any function of a two-valued
            # component, evaluation stays within {1} iff some clause is
            # fully fixed true, and within {0} iff every clause carries a
            # fixed-false literal; propagate the last open way of meeting
            # the target.  A conclusion rests on i and on one contradicting
            # literal per dead clause (value 1), or on the literals of the
            # clauses that forced it (value 0).
            if vi == 1:
                candidates = []
                killers = [i]
                for clause in fn.dnf.clauses:
                    unassigned = []
                    for comp, val in clause:
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
        if vi == _UNASSIGNED and not exact and FREE in allowed[i]:
            return no_implications
        # Otherwise a conclusion rests on i and all its assigned regulators.
        mask = eval_mask(fn, uview)
        if vi != _UNASSIGNED:
            # masks only shrink as the cube narrows, so a value that is
            # unachievable now stays unachievable
            if not mask & (1 << vi) or (mask & (1 << (1 - vi)) and exact):
                return None, reasons[i] | assigned_reason(fn.support)
            return no_implications
        if mask == 3:
            # a component that cannot be FREE waits for a determined value
            if not exact:
                return no_implications
            implied = ((i, FREE),)
        else:
            opts = allowed[i] & {0 if mask == 1 else 1, FREE}
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
        if sym != FREE:
            uview[comp] = sym
            if unassigned_support[comp] and not two_valued[comp]:
                heapq.heappush(heap, (unassigned_support[comp], comp))
        trail.append(comp)
        for t in dependents[comp]:
            unassigned_support[t] -= 1
            if unassigned_support[t] and uview[t] != FREE and not two_valued[t]:
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
            uview[comp] = FREE
            for t in dependents[comp]:
                unassigned_support[t] += 1
                if uview[t] != FREE and not two_valued[t]:
                    heapq.heappush(heap, (unassigned_support[t], t))

    # Level-0: pin singleton domains, then propagate everything once.
    fun_queue, clause_queue = list(scope), list(range(len(clauses)))
    for i in scope:
        if len(allowed[i]) == 1:
            assign(i, next(iter(allowed[i])), 0, fun_queue, clause_queue)
    if propagate(fun_queue, clause_queue) is not None:
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
            if uview[j] == FREE or unassigned_support[j] == 0:
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

    def symbol_order(var):
        if prefer_free:
            syms = [FREE, 0, 1]
        else:
            mask = eval_mask(functions[var], uview) if unassigned_support[var] == 0 else 3
            if mask == 1:
                syms = [0, 1, FREE]
            elif mask == 2:
                syms = [1, 0, FREE]
            else:
                syms = [0, 1, FREE]
        return [s for s in syms if s in allowed[var]]

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
            syms = symbol_order(var)
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
    x_k[t] only if some regulator of t changed at step k.  A step that
    changes nothing has reached a fixed point, which ends the simulation.
    The clock is checked before every step.
    """
    clock.check_now()
    values = list(net.image(state))
    changed = [i for i, (new, old) in enumerate(zip(values, state)) if new != old]
    functions = net.functions
    dependents = net.dependents
    for _ in range(steps - 1):
        if not changed:
            break
        clock.check_now()
        woken = {t for i in changed for t in dependents[i]}
        changed = [t for t in woken if evaluate(functions[t], values) != values[t]]
        for t in changed:
            values[t] = 1 - values[t]
    return tuple(values)


def _free_sccs(net, free_set, clock):
    """Strongly connected components of the influence graph on `free_set`.

    Only components that can sustain a feedback (size > 1, or a single
    node with a self-loop) are returned.  The clock is polled once per
    depth-first search root.
    """
    succs = {i: [t for t in net.dependents[i] if t in free_set] for i in free_set}
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    for root in sorted(free_set):
        if root in index:
            continue
        clock.poll()
        work = [[root, 0]]
        while work:
            frame = work[-1]
            node = frame[0]
            if frame[1] == 0:
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            advanced = False
            succ = succs[node]
            while frame[1] < len(succ):
                w = succ[frame[1]]
                frame[1] += 1
                if w not in index:
                    work.append([w, 0])
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                if len(scc) > 1 or node in succs[node]:
                    sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def _percolate_down(net, trap, clock):
    """Fix every free component whose evaluation on the cube is already
    determined, to fixpoint; the result is a trap space inside `trap`."""
    values = list(trap.values)
    queue = [i for i, v in enumerate(values) if v == FREE]
    pending = set(queue)
    changed = False
    while queue:
        clock.poll()
        i = queue.pop()
        pending.discard(i)
        if values[i] != FREE:
            continue
        mask = eval_mask(net.functions[i], values)
        if mask == 3:
            continue
        values[i] = 0 if mask == 1 else 1
        changed = True
        for t in net.dependents[i]:
            if values[t] == FREE and t not in pending:
                pending.add(t)
                queue.append(t)
    return Cube(tuple(values)) if changed else trap


def _scc_value_domains(net, trap, scc_set, clock):
    """Values each feedback component could take in a strict sub-trap.

    Greatest fixpoint of the necessary conditions for unate functions:
    fixing a component to 1 needs some clause whose literals can all
    become fixed true, fixing to 0 needs every clause to be blockable by
    a fixed-false literal; components outside the feedback set keep their
    candidate-trap value (free ones stay free).  Each surviving value is
    then probed with its opposite removed, which enforces consistency of
    the component itself; a value that cannot support itself this way is
    discarded.  Sound for non-unate functions, which stay unconstrained.

    The fixpoint is computed by worklist propagation (AC-3): a component
    is re-checked only when a regulator inside the SCC lost a value.  The
    greatest fixpoint is unique, so the order of the checks does not
    matter.  A probe records its removals and undoes them afterwards.
    """
    functions = net.functions
    outside = trap.values
    readers = {
        c: [j for j in net.dependents[c] if j in scc_set and functions[j].unate]
        for c in scc_set
    }

    def supported(j, v, domains):
        if v == 1:
            for clause in functions[j].dnf.clauses:
                for c, val in clause:
                    if c in scc_set:
                        if val not in domains[c]:
                            break
                    elif outside[c] != val:
                        break
                else:
                    return True
            return False
        for clause in functions[j].dnf.clauses:
            for c, val in clause:
                if c in scc_set:
                    if 1 - val in domains[c]:
                        break
                elif outside[c] == 1 - val:
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
    refine(master, [j for j in scc_set if functions[j].unate], [])
    changed = True
    while changed:
        changed = False
        for j in sorted(scc_set):
            for v in (0, 1):
                if v not in master[j]:
                    continue
                clock.poll()
                dom = master[j]
                if 1 - v not in dom:
                    continue  # the probe would change nothing
                dom.discard(1 - v)
                removed = [(j, 1 - v)]
                refine(master, readers[j], removed)
                kept = v in dom
                for c, u in removed:
                    master[c].add(u)
                if not kept:
                    dom.discard(v)
                    refine(master, readers[j], [])
                    changed = True
    return master


def _certify_smaller(net, trap, clock):
    """A trap space strictly inside `trap`, or None if `trap` is minimal.

    A strict sub-trap must fix some component; taking one in a
    topologically first strongly connected component of the free
    subnetwork, all its regulators outside that component stay free, so
    searching each feedback component in isolation is complete.
    """
    free_set = {i for i, v in enumerate(trap.values) if v == FREE}
    for scc in sorted(_free_sccs(net, free_set, clock), key=len):
        scc_set = set(scc)
        domains = _scc_value_domains(net, trap, scc_set, clock)
        fixable = {i: domains[i] for i in sorted(scc_set)}
        if not any(fixable.values()):
            continue
        allowed = []
        for i, v in enumerate(trap.values):
            if v != FREE:
                allowed.append({v})
            elif i in scc_set:
                allowed.append(fixable[i] | {FREE})
            else:
                allowed.append({FREE})
        strict = [[(i, vals) for i, vals in fixable.items() if vals]]
        found = next(
            _trap_search(net, allowed, strict, False, clock, scope=scc_set), None
        )
        if found is not None:
            return found
    return None


def _minimize_trap(net, trap, clock):
    """Descend to a subset-minimal trap space inside the given one.

    Only the first answer inside a `within` that is a trap space comes
    from here, for speed: every search answer is minimal as it stands.
    """
    # Heuristic phase: the closure of the state reached by synchronous
    # simulation from the candidate's all-0 vertex, while that shrinks it.
    while not trap.is_state:
        start = tuple(v if v != FREE else 0 for v in trap.values)
        state = _simulate(net, start, _SIM_STEPS, clock)
        smaller = closure(net, Cube.from_state(state))
        if smaller == trap:
            break
        trap = smaller
    # Exact phase: percolate determined components down, then look for a
    # fixable feedback component; repeat until certified minimal.
    while not trap.is_state:
        clock.check_now()
        trap = _percolate_down(net, trap, clock)
        found = _certify_smaller(net, trap, clock)
        if found is None:
            return trap
        trap = found
    return trap


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
