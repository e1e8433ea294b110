"""Brute-force reference answers for small generated networks (n <= 8).

Nothing here uses bnkit: the update functions are compiled straight from the
benchmark's own .bnet text, and trap spaces are found by checking every
vertex of every cube against a table of synchronous images.
"""

from __future__ import annotations

import re
from itertools import product

ORACLE_MAX_N = 8
FREE = 2

_NAME = re.compile(r"[A-Za-z_]\w*")


def compile_bnet(text):
    """Update functions of a generated .bnet text, as callables on a state.

    Accepts the subset the benchmark writes: a header line, then
    ``name, expression`` lines over names, ``!``, ``&``, ``|``, parentheses
    and the constants 0 and 1.
    """
    rows = [line.split(",", 1) for line in text.splitlines()[1:] if line.strip()]
    index = {name.strip(): i for i, (name, _) in enumerate(rows)}
    functions = []
    for _, expr in rows:
        code = _NAME.sub(lambda m: "s[%d]" % index[m.group()], expr)
        code = code.replace("!", " not ").replace("&", " and ").replace("|", " or ")
        functions.append(eval("lambda s: int(%s)" % code))
    return functions


def _vertices(cube):
    return product(*[(0, 1) if v == FREE else (v,) for v in cube])


def contains(cube, state):
    return all(c == FREE or c == x for c, x in zip(cube, state))


def subset(small, big):
    return all(b == FREE or a == b for a, b in zip(small, big))


def answers(text):
    """Fixed points, minimal and maximal trap spaces as sets of value tuples.

    Maximal trap spaces exclude the full cube, as bnkit's do.
    """
    functions = compile_bnet(text)
    n = len(functions)
    if n > ORACLE_MAX_N:
        raise ValueError("oracle is limited to n <= %d" % ORACLE_MAX_N)
    table = {s: tuple(f(s) for f in functions) for s in product((0, 1), repeat=n)}
    fixed = {s for s, img in table.items() if s == img}
    traps = [
        cube
        for cube in product((0, 1, FREE), repeat=n)
        if all(contains(cube, table[x]) for x in _vertices(cube))
    ]
    minimal = {t for t in traps if not any(o != t and subset(o, t) for o in traps)}
    full = (FREE,) * n
    proper = [t for t in traps if t != full]
    maximal = {t for t in proper if not any(o != t and subset(t, o) for o in proper)}
    return fixed, minimal, maximal


def closure(functions, state):
    """Smallest trap space containing a state, by brute-force percolation."""
    cube = list(state)
    changed = True
    while changed:
        changed = False
        for i, f in enumerate(functions):
            if cube[i] != FREE and any(f(x) != cube[i] for x in _vertices(cube)):
                cube[i] = FREE
                changed = True
    return tuple(cube)
