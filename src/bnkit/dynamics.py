"""State transition graphs, reachability, attractors, influence graph.

Boolean update modes work on binary states; the most-permissive mode works
on extended states over {0, 1, INC, DEC}, where INC/DEC mark components in
transit upward/downward.  Extended values are rendered '+' (INC) and '-'
(DEC) in labels.

Most-permissive reachability is decided exactly, in at most n closure
computations and with no size limit, without exploring extended states.
A component in transit reads as free and may stay in transit, and a larger
cube only adds function values, so every mp path can be reordered into
freeing components one by one, turning around those that must end where
they started, and settling the rest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product

from .cubes import FREE, Cube, closure, eval_mask, state_to_str, vertices
from .solver import minimal_trap_spaces

INC = 2
DEC = 3

_EXT_SYMBOLS = "01+-"

BOOLEAN_MODES = ("synchronous", "asynchronous", "general")
STG_CAP = 20
MP_STG_CAP = 12
MP_PROJECTED_STG_CAP = 10


class DynamicsError(ValueError):
    pass


@dataclass
class Stg:
    mode: str
    nodes: list = field(default_factory=list)
    edges: list = field(default_factory=list)


@dataclass
class InfluenceGraph:
    components: tuple
    edges: list  # (source name, sign, target name)


def successors(net, state, mode):
    """Successor states under a Boolean update mode (self-loops omitted).

    ``mode`` may also be a callable ``(net, state) -> iterable of states``
    implementing a custom update mode.
    """
    if callable(mode):
        return {tuple(s) for s in mode(net, state) if tuple(s) != tuple(state)}
    image = net.image(state)
    if mode == "synchronous":
        return set() if image == state else {image}
    disagree = [i for i in range(net.n) if image[i] != state[i]]
    if mode == "asynchronous":
        out = set()
        for i in disagree:
            nxt = list(state)
            nxt[i] = image[i]
            out.add(tuple(nxt))
        return out
    if mode == "general":
        out = set()
        for bits in range(1, 1 << len(disagree)):
            nxt = list(state)
            for pos, i in enumerate(disagree):
                if bits >> pos & 1:
                    nxt[i] = image[i]
            out.add(tuple(nxt))
        return out
    raise DynamicsError("unknown update mode %r" % (mode,))


def mp_successors(net, ext_state):
    """Most-permissive single-component rewrites of an extended state."""
    values = tuple(v if v < INC else FREE for v in ext_state)
    out = set()
    for i, v in enumerate(ext_state):
        if v == INC:
            nxt = list(ext_state)
            nxt[i] = 1
            out.add(tuple(nxt))
        elif v == DEC:
            nxt = list(ext_state)
            nxt[i] = 0
            out.add(tuple(nxt))
        mask = None
        if v in (0, DEC):
            mask = eval_mask(net.functions[i], values)
            if mask & 2:
                nxt = list(ext_state)
                nxt[i] = INC
                out.add(tuple(nxt))
        if v in (1, INC):
            if mask is None:
                mask = eval_mask(net.functions[i], values)
            if mask & 1:
                nxt = list(ext_state)
                nxt[i] = DEC
                out.add(tuple(nxt))
    out.discard(tuple(ext_state))
    return out


def ext_state_to_str(ext_state):
    return "".join(_EXT_SYMBOLS[v] for v in ext_state)


def _mp_nodes(restrict):
    # keep extended states whose cube projection (components in transit
    # read as free) meets the restriction
    domains = [
        (0, 1, INC, DEC) if v == FREE else (v, INC, DEC) for v in restrict.values
    ]
    return product(*domains)


def build_stg(net, mode, restrict=None):
    """Full state transition graph, nodes sorted lexicographically."""
    if restrict is None:
        restrict = Cube.full(net.n)
    if mode == "mp":
        if net.n > MP_STG_CAP:
            raise DynamicsError(
                "network too large for an explicit mp STG (n=%d, cap=%d)"
                % (net.n, MP_STG_CAP)
            )
        nodes = set(_mp_nodes(restrict))
        succ = lambda s: mp_successors(net, s)
        label = ext_state_to_str
    else:
        if net.n > STG_CAP:
            raise DynamicsError(
                "network too large for an explicit STG (n=%d, cap=%d)"
                % (net.n, STG_CAP)
            )
        nodes = set(vertices(restrict, cap=net.n))
        succ = lambda s: successors(net, s, mode)
        label = state_to_str
    edges = []
    for state in nodes:
        for nxt in succ(state):
            if nxt in nodes:
                edges.append((label(state), label(nxt)))
    stg = Stg(mode if isinstance(mode, str) else "custom")
    stg.nodes = sorted(label(s) for s in nodes)
    stg.edges = sorted(edges)
    return stg


def mp_projected_stg(net, restrict=None):
    """Binary-state projection of the mp dynamics.

    Edge x -> y iff y differs from x and y is mp-reachable from x.
    """
    if net.n > MP_PROJECTED_STG_CAP:
        raise DynamicsError(
            "network too large for the projected mp STG (n=%d, cap=%d)"
            % (net.n, MP_PROJECTED_STG_CAP)
        )
    if restrict is None:
        restrict = Cube.full(net.n)
    nodes = list(vertices(restrict, cap=net.n))
    edges = []
    for state in nodes:
        for target in nodes:
            if target != state and _mp_reachable(net, state, target):
                edges.append((state_to_str(state), state_to_str(target)))
    stg = Stg("mp-projected")
    stg.nodes = sorted(state_to_str(s) for s in nodes)
    stg.edges = sorted(edges)
    return stg


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
    x, y = _binary_state(net, x), _binary_state(net, y)
    if mode != "mp" and net.n > STG_CAP:
        raise DynamicsError(
            "network too large for explicit-state reachability (n=%d, cap=%d)"
            % (net.n, STG_CAP)
        )
    if x == y:
        return True
    if mode == "mp":
        return _mp_reachable(net, x, y)
    seen = {x}
    queue = deque([x])
    while queue:
        for nxt in successors(net, queue.popleft(), mode):
            if nxt == y:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def attractors(net, reachable_from=None, limit=None, deadline=None):
    """Most-permissive attractors, i.e. minimal trap spaces.

    With ``reachable_from``, only the attractors inside the closure of
    that state (exactly the mp-reachable ones) are produced.
    """
    within = None
    if reachable_from is not None:
        within = closure(net, Cube.from_state(_binary_state(net, reachable_from)))
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
