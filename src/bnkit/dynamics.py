"""State transition graphs, reachability, attractors, influence graph.

Boolean update modes work on binary states, coded internally as ints (see
`_successor_kernel`); the most-permissive mode works on extended states over
{0, 1, INC, DEC}, where INC/DEC mark components in transit upward/downward.
Extended values are rendered '+' (INC) and '-' (DEC) in labels.

Every explicit graph (`build_stg` in each mode, `mp_projected_stg`) comes out
of one edge loop, `_graph`, over nodes that sort as their labels do; each
graph's size cap and restriction are checked by `_explicit`.

Most-permissive reachability is decided exactly, in at most n closure
computations and with no size limit, without exploring extended states.
A component in transit reads as free and may stay in transit, and a larger
cube only adds function values, so every mp path can be reordered into
freeing components one by one, turning around those that must end where
they started, and settling the rest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

from .cubes import (
    FREE,
    Cube,
    closure,
    cube_codes,
    decode_state,
    encode_state,
    eval_mask,
    subcube_codes,
)
from .solver import _Deadline, minimal_trap_spaces

INC = 2
DEC = 3

_EXT_SYMBOLS = "01+-"

BOOLEAN_MODES = ("synchronous", "asynchronous", "general")
STG_CAP = 20
MP_STG_CAP = 10


class DynamicsError(ValueError):
    pass


@dataclass
class Stg:
    mode: str
    nodes: list
    edges: list


@dataclass
class InfluenceGraph:
    components: tuple
    edges: list  # (source name, sign, target name)


def _check_mode(mode):
    if not callable(mode) and mode not in BOOLEAN_MODES:
        raise DynamicsError("unknown update mode %r" % (mode,))


def _successor_kernel(net, mode, restrict):
    """Successors of int-coded states (see `encode_state`) under a Boolean mode.

    Returns a function from the code of a state in the cube `restrict` to an
    iterable of the distinct codes of its successors in `restrict`, the state
    itself omitted.  Each clause of each DNF becomes a pair (mask, pattern)
    that holds at s iff ``s & mask == pattern``, so one image costs O(DNF
    size).  A custom mode sees the decoded state, and each state it returns
    must be a binary state of `net`.
    """
    _check_mode(mode)
    n = net.n
    _, free = cube_codes(restrict)
    if callable(mode):

        def custom(s):
            out = set()
            for state in mode(net, decode_state(s, n)):
                t = encode_state(_binary_state(net, state))
                if (t ^ s) & ~free == 0:
                    out.add(t)
            out.discard(s)
            return out

        return custom
    functions = []
    for i, fn in enumerate(net.functions):
        pairs = []
        for clause in fn.dnf.clauses:
            mask = pattern = 0
            for comp, val in clause:
                bit = 1 << (n - 1 - comp)
                mask |= bit
                if val:
                    pattern |= bit
            pairs.append((mask, pattern))
        functions.append((1 << (n - 1 - i), pairs))

    def disagreement(s):
        """Bits on which s and its image differ."""
        image = 0
        for bit, pairs in functions:
            for mask, pattern in pairs:
                if s & mask == pattern:
                    image |= bit
                    break
        return image ^ s

    if mode == "synchronous":
        # the image, unless it leaves the cube on a fixed component
        def synchronous(s):
            d = disagreement(s)
            return (s ^ d,) if d and d & free == d else ()

        return synchronous
    if mode == "asynchronous":

        def asynchronous(s):
            out = []
            d = disagreement(s) & free
            while d:
                low = d & -d
                out.append(s ^ low)
                d ^= low
            return out

        return asynchronous

    # general: any nonempty set of the disagreeing free components at once
    def general(s):
        d = disagreement(s) & free
        return [t for t in subcube_codes(s & ~d, d) if t != s]

    return general


def successors(net, state, mode):
    """Successor states under a Boolean update mode (self-loops omitted).

    ``mode`` may also be a callable ``(net, state) -> iterable of states``
    implementing a custom update mode.
    """
    state = _binary_state(net, state)
    succ = _successor_kernel(net, mode, Cube.full(net.n))
    return {decode_state(t, net.n) for t in succ(encode_state(state))}


def mp_successors(net, ext_state):
    """Most-permissive single-component rewrites of an extended state."""
    state = tuple(ext_state)
    values = tuple(v if v < INC else FREE for v in state)
    out = set()
    for i, v in enumerate(state):
        # a component in transit may settle, and any component may set out
        # for a value its function takes on the cube of the state
        mask = eval_mask(net.functions[i], values)
        moves = [1] if v == INC else [0] if v == DEC else []
        if mask & 2 and v in (0, DEC):
            moves.append(INC)
        if mask & 1 and v in (1, INC):
            moves.append(DEC)
        for w in moves:
            out.add(state[:i] + (w,) + state[i + 1 :])
    return out


def ext_state_to_str(ext_state):
    return "".join(_EXT_SYMBOLS[v] for v in ext_state)


def _mp_nodes(restrict):
    """Extended states whose cube projection (components in transit read as
    free) meets the restriction, in label order: '+' < '-' < '0' < '1'."""
    domains = [
        (INC, DEC, 0, 1) if v == FREE else (INC, DEC, v) for v in restrict.values
    ]
    return product(*domains)


def _explicit(net, cap, what, restrict=None):
    """`restrict`, the full cube by default, once `net` fits an explicit `what`."""
    if restrict is None:
        restrict = Cube.full(net.n)
    elif len(restrict) != net.n:
        raise DynamicsError(
            "restriction cube length mismatch (%d values, n=%d)"
            % (len(restrict), net.n)
        )
    if net.n > cap:
        raise DynamicsError(
            "network too large for %s (n=%d, cap=%d)" % (what, net.n, cap)
        )
    return restrict


def _code_labels(n, restrict):
    """Label of each binary state of `restrict` by its code, in label order."""
    # codes of one length order as their labels do; format(0, "00b") is "0",
    # but the one state of an empty network is labelled ""
    fmt = "0%db" % n
    return {
        code: format(code, fmt) if n else ""
        for code in subcube_codes(*cube_codes(restrict))
    }


def _graph(mode, labels, succ):
    """The STG with the nodes of `labels`, an ordered map from node to label,
    and an edge to each node of `succ(node)`.  Nodes sort as their labels do,
    so edges come out in label order too."""
    edges = []
    for node, label in labels.items():
        for nxt in sorted(succ(node)):
            edges.append((label, labels[nxt]))
    return Stg(mode, list(labels.values()), edges)


def build_stg(net, mode, restrict=None):
    """Full state transition graph, nodes sorted lexicographically."""
    if mode == "mp":
        restrict = _explicit(net, MP_STG_CAP, "an explicit mp STG", restrict)
        # extended states are numbered in label order
        states = list(_mp_nodes(restrict))
        number = {state: i for i, state in enumerate(states)}

        def mp_succ(i):
            found = map(number.get, mp_successors(net, states[i]))
            return [j for j in found if j is not None]

        return _graph("mp", dict(enumerate(map(ext_state_to_str, states))), mp_succ)
    _check_mode(mode)
    restrict = _explicit(net, STG_CAP, "an explicit STG", restrict)
    return _graph(
        mode if isinstance(mode, str) else "custom",
        _code_labels(net.n, restrict),
        _successor_kernel(net, mode, restrict),
    )


def mp_projected_stg(net, restrict=None):
    """Binary-state projection of the mp dynamics.

    Edge x -> y iff y differs from x and y is mp-reachable from x.
    """
    restrict = _explicit(net, MP_STG_CAP, "the projected mp STG", restrict)
    labels = _code_labels(net.n, restrict)
    states = {code: decode_state(code, net.n) for code in labels}

    def reached(code):
        x = states[code]
        return [t for t, y in states.items() if t != code and _mp_reachable(net, x, y)]

    return _graph("mp-projected", labels, reached)


def _mp_reachable(net, x, y):
    """True iff binary state y is mp-reachable from binary state x.

    A component that must end at its value in x but cannot turn back on the
    closure of x cannot on any smaller cube either, so it is held at that
    value and the closure is taken again; each round holds at least one more.
    """
    start = Cube.from_state(x)
    pinned = set()
    while True:
        hull = closure(net, start, pinned).values
        stuck = set()
        for i, v in enumerate(hull):
            if v != FREE:
                if v != y[i]:
                    return False
            elif y[i] == x[i] and not eval_mask(net.functions[i], hull) >> x[i] & 1:
                stuck.add(i)
        if not stuck:
            return True
        pinned |= stuck


def _binary_state(net, state):
    """`state` as a tuple, refused unless it is a binary state of `net`."""
    state = tuple(state)
    if len(state) != net.n:
        raise DynamicsError(
            "state length mismatch (%d values, n=%d)" % (len(state), net.n)
        )
    if any(v not in (0, 1) for v in state):
        raise DynamicsError("state values must be 0 or 1")
    return state


def reachability(net, x, y, mode="mp"):
    """True iff y is reachable from x under the update mode.

    Boolean modes search the explicit state space, so like `build_stg`
    they refuse networks with more than ``STG_CAP`` components.
    """
    if mode != "mp":
        _check_mode(mode)
    x, y = _binary_state(net, x), _binary_state(net, y)
    if mode == "mp":
        return x == y or _mp_reachable(net, x, y)
    restrict = _explicit(net, STG_CAP, "explicit-state reachability")
    start, goal = encode_state(x), encode_state(y)
    succ = _successor_kernel(net, mode, restrict)
    seen = {start}
    queue = deque([start])
    while queue and goal not in seen:
        for nxt in succ(queue.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return goal in seen


def attractors(net, reachable_from=None, limit=None, deadline=None):
    """Most-permissive attractors, i.e. minimal trap spaces.

    With ``reachable_from``, only the attractors inside the closure of
    that state (exactly the mp-reachable ones) are produced.  The state is
    checked and the closure taken at the call, under the deadline.
    """
    within = None
    if reachable_from is not None:
        start = Cube.from_state(_binary_state(net, reachable_from))
        within = closure(net, start, clock=_Deadline(deadline))
    return minimal_trap_spaces(net, within=within, limit=limit, deadline=deadline)


def influence_graph(net):
    """Signed syntactic dependency graph read off the canonical DNFs."""
    edges = set()
    for target, fn in enumerate(net.functions):
        for clause in fn.dnf.clauses:
            for comp, val in clause:
                edges.add((net.names[comp], "+" if val else "-", net.names[target]))
    return InfluenceGraph(net.names, sorted(edges))


# ---------------------------------------------------------------------------
# Export


def stg_to_dot(stg):
    lines = ["digraph stg {"]
    for node in stg.nodes:
        lines.append('  "%s";' % node)
    for src, dst in stg.edges:
        lines.append('  "%s" -> "%s";' % (src, dst))
    lines.append("}")
    return "\n".join(lines) + "\n"


def stg_to_json_obj(stg):
    return {"mode": stg.mode, "nodes": stg.nodes, "edges": [list(e) for e in stg.edges]}


def influence_to_dot(graph):
    lines = ["digraph influence {"]
    for name in graph.components:
        lines.append('  "%s";' % name)
    for src, sign, dst in graph.edges:
        lines.append('  "%s" -> "%s" [label="%s"];' % (src, dst, sign))
    lines.append("}")
    return "\n".join(lines) + "\n"


def influence_to_json_obj(graph):
    return {
        "components": list(graph.components),
        "edges": [list(e) for e in graph.edges],
    }
