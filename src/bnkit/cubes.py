"""Cube algebra: containment, intersection, evaluation on cubes, closure.

A cube is a vector over {0, 1, FREE} in component declaration order; FREE
is encoded as the integer 2 so that per-component value sets map to the
bitmasks 1 ({0}), 2 ({1}) and 3 ({0,1}).
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass

FREE = 2

_SYMBOLS = "01*"
_VALUES = frozenset((0, 1, FREE))
_MASK_TO_VALUE = {1: 0, 2: 1, 3: FREE}
_VALUE_TO_MASK = (1, 2, 3)

DEFAULT_VERTEX_CAP = 24


class CubeError(ValueError):
    pass


@dataclass(frozen=True)
class Cube:
    values: tuple

    def __post_init__(self):
        """Store the values as a tuple of plain ints: any integer type (numpy
        ints too) is taken through `operator.index`, and a float is refused."""
        message = "cube values must be 0, 1 or FREE (%d)" % FREE
        try:
            values = tuple(map(operator.index, self.values))
        except TypeError:
            raise CubeError(message) from None
        if not _VALUES.issuperset(values):
            raise CubeError(message)
        object.__setattr__(self, "values", values)

    @classmethod
    def full(cls, n):
        return cls((FREE,) * n)

    @classmethod
    def from_state(cls, state):
        return cls(tuple(state))

    @classmethod
    def parse(cls, text, names):
        """Parse '01*' positional syntax or 'a=1,b=0' named syntax."""
        text = text.strip()
        if "=" in text:
            values = [FREE] * len(names)
            index = {name: i for i, name in enumerate(names)}
            given = set()
            for item in text.split(","):
                item = item.strip()
                if not item:
                    continue
                if "=" not in item:
                    raise CubeError("expected name=value in %r" % item)
                name, _, val = item.partition("=")
                name = name.strip()
                val = val.strip()
                if name not in index:
                    raise CubeError("unknown component %r" % name)
                if name in given:
                    raise CubeError("component %r given twice" % name)
                if val not in ("0", "1", "*"):
                    raise CubeError("invalid value %r for %r" % (val, name))
                given.add(name)
                values[index[name]] = _SYMBOLS.index(val)
            return cls(tuple(values))
        if len(text) != len(names):
            raise CubeError(
                "expected %d symbols, got %d" % (len(names), len(text))
            )
        try:
            return cls(tuple(_SYMBOLS.index(ch) for ch in text))
        except ValueError:
            raise CubeError("cube symbols must be 0, 1 or *") from None

    def __str__(self):
        return "".join(_SYMBOLS[v] for v in self.values)

    def __len__(self):
        return len(self.values)

    @property
    def is_state(self):
        return FREE not in self.values

    def contains(self, state):
        """True iff the binary state is a vertex of the cube."""
        if len(state) != len(self.values):
            raise CubeError("length mismatch")
        return all(c == FREE or c == x for c, x in zip(self.values, state))

    def subset(self, other):
        """True iff this cube's vertex set is contained in the other's."""
        if len(other.values) != len(self.values):
            raise CubeError("length mismatch")
        return all(b == FREE or a == b for a, b in zip(self.values, other.values))

    def intersect(self, other):
        """Cube of the vertex intersection, or None when it is empty."""
        if len(other.values) != len(self.values):
            raise CubeError("length mismatch")
        out = []
        for a, b in zip(self.values, other.values):
            if a == FREE:
                out.append(b)
            elif b == FREE or a == b:
                out.append(a)
            else:
                return None
        return Cube(tuple(out))

    def to_dict(self, names):
        return {name: _SYMBOLS[v] for name, v in zip(names, self.values)}


def encode_state(state):
    """A binary state as an int, component 0 the most significant bit.

    Codes of one length compare as the states do lexicographically.
    """
    code = 0
    for v in state:
        code = code << 1 | v
    return code


def decode_state(code, n):
    """The binary state of length n that `encode_state` codes as `code`."""
    return tuple([code >> k & 1 for k in range(n - 1, -1, -1)])


def cube_codes(cube):
    """(base, free): codes of the components fixed at 1 and of the free ones."""
    base = free = 0
    for v in cube.values:
        base = base << 1 | (v == 1)
        free = free << 1 | (v == FREE)
    return base, free


def subcube_codes(base, free):
    """Codes ``base | sub`` for every submask sub of `free`, in increasing order.

    With `base` 0 on the bits of `free`, these are the vertices of a cube.
    """
    sub = 0
    while True:
        yield base | sub
        if sub == free:
            return
        sub = (sub - free) & free


def vertices(cube, cap=DEFAULT_VERTEX_CAP):
    """All vertices of the cube in lexicographic order."""
    base, free = cube_codes(cube)
    k = free.bit_count()
    if k > cap:
        raise CubeError(
            "cube has %d free components, above the cap of %d" % (k, cap)
        )
    n = len(cube.values)
    for code in subcube_codes(base, free):
        yield decode_state(code, n)


def eval_mask(fn, values):
    """Bitmask of function values achievable on the cube (bit v = value v).

    Value 0 is achievable iff f is not 1 on the whole cube, that is iff no
    prime implicant of f has all its literals fixed true.  Value 1 is
    achievable iff some clause of f is compatible with the cube: no fixed
    literal contradicts it.
    """
    mask = 1
    for prime in fn.primes:
        for comp, val in prime:
            if values[comp] != val:
                break
        else:
            mask = 0
            break
    for clause in fn.dnf:
        for comp, val in clause:
            if values[comp] == 1 - val:
                break
        else:
            return mask | 2
    return mask


def eval_on_cube(fn, cube):
    """Exact set of values the function takes over the cube's vertices."""
    mask = eval_mask(fn, cube.values)
    return frozenset(v for v in (0, 1) if mask & (1 << v))


def closure(net, cube, pinned=(), clock=None):
    """Smallest trap space containing the cube (percolation fixpoint).

    Repeatedly adds any achievable function value to its component; each
    addition wakes only the functions whose support contains the component.
    Components in ``pinned`` are never woken and keep their value in the cube.
    A ``clock`` (the solver's deadline) is polled once per dequeued component.
    """
    if len(cube.values) != net.n:
        raise CubeError("expected %d values, got %d" % (net.n, len(cube.values)))
    masks = [_VALUE_TO_MASK[v] for v in cube.values]
    values = list(cube.values)
    if pinned:
        pending = deque(i for i in range(net.n) if i not in pinned)
    else:
        pending = deque(range(net.n))
    queued = [True] * net.n
    functions = net.functions
    dependents = net.dependents
    while pending:
        if clock is not None:
            clock.poll()
        i = pending.popleft()
        queued[i] = False
        new = eval_mask(functions[i], values) & ~masks[i]
        if not new:
            continue
        masks[i] |= new
        values[i] = _MASK_TO_VALUE[masks[i]]
        for t in dependents[i]:
            if not queued[t]:
                queued[t] = True
                pending.append(t)
    return Cube(tuple(values))


def is_trap_space(net, cube):
    """True iff every fixed component's function is constant at that value."""
    values = cube.values
    if len(values) != net.n:
        raise CubeError("expected %d values, got %d" % (net.n, len(values)))
    for i, v in enumerate(values):
        if v == FREE:
            continue
        if eval_mask(net.functions[i], values) != _VALUE_TO_MASK[v]:
            return False
    return True


def parse_state(text, n):
    text = text.strip()
    if len(text) != n or any(ch not in "01" for ch in text):
        raise CubeError("expected a binary state of length %d" % n)
    return tuple(int(ch) for ch in text)


__all__ = [
    "FREE",
    "Cube",
    "CubeError",
    "vertices",
    "eval_mask",
    "eval_on_cube",
    "closure",
    "is_trap_space",
    "parse_state",
]
