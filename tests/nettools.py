"""Shared helpers: random model builders and brute-force oracles.

The oracles deliberately avoid the library's cube-evaluation path: trap
spaces are checked by enumerating cube vertices and testing that every
synchronous image stays inside the cube.
"""

import random
from collections import deque
from itertools import product

from bnkit import Cube, mp_successors, parse_bnet, vertices
from bnkit.dynamics import INC
from bnkit.expressions import And, Const, Not, Var
from bnkit.network import evaluate


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


def random_network(seed, n):
    rng = random.Random(seed)
    names = ["n%d" % i for i in range(n)]
    lines = ["targets, factors"]
    for name in names:
        lines.append("%s, %s" % (name, random_expression(rng, names)))
    return parse_bnet("\n".join(lines))


def oracle_suite(count=200, sizes=(2, 3, 4, 5, 6, 7, 3, 4, 5, 7)):
    """Deterministic list of (seed, network) pairs for oracle testing."""
    out = []
    for seed in range(count):
        out.append((seed, random_network(seed, sizes[seed % len(sizes)])))
    return out


def image_table(net):
    return {state: net.image(state) for state in product((0, 1), repeat=net.n)}


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


def bdd_evaluate(bdd, state):
    """Value of a BDD at a binary state, following one root-to-leaf path."""
    u = bdd.root
    while u > 1:
        comp, lo, hi = bdd.nodes[u]
        u = hi if state[comp] else lo
    return u


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
