"""Random Boolean network generator (scale-free in-degree topology).

Two function families are supported:

* ``inhibitor-dominant``: regulators are split into activators A and
  inhibitors I and the function is ``(OR of A) & !(OR of I)`` (one side is
  dropped when empty).  Every generated function is unate.
* ``nested-canalizing-unate``: a right-nested chain of signed literals
  combined with randomly chosen & / | at each level; each regulator
  appears once, so the function is unate as well.

Generation is fully deterministic for a given spec.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FAMILIES = ("inhibitor-dominant", "nested-canalizing-unate")


@dataclass(frozen=True)
class GenSpec:
    n: int
    gamma: float = 2.5  # power-law exponent of the in-degree distribution
    family: str = "inhibitor-dominant"
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.gamma >= 0:  # nan too
            raise ValueError("gamma must be >= 0")
        if self.family not in FAMILIES:
            raise ValueError("unknown function family %r" % self.family)


def _degree_weights(n, gamma, kmax=32):
    top = min(n, kmax)
    return list(range(1, top + 1)), [k**-gamma for k in range(1, top + 1)]


def _inhibitor_dominant(names, regulators, rng):
    activators = []
    inhibitors = []
    for reg in regulators:
        (activators if rng.random() < 0.5 else inhibitors).append(reg)
    act = " | ".join(names[i] for i in activators)
    inh = " | ".join(names[i] for i in inhibitors)
    if not inhibitors:
        return act
    guard = "!%s" % names[inhibitors[0]] if len(inhibitors) == 1 else "!(%s)" % inh
    if not activators:
        return guard
    head = names[activators[0]] if len(activators) == 1 else "(%s)" % act
    return "%s & %s" % (head, guard)


def _nested_canalizing(names, regulators, rng):
    expr = None
    for reg in reversed(regulators):
        lit = names[reg] if rng.random() < 0.5 else "!%s" % names[reg]
        if expr is None:
            expr = lit
        else:
            op = "&" if rng.random() < 0.5 else "|"
            expr = "%s %s (%s)" % (lit, op, expr)
    return expr


def generate_bnet(spec):
    """Render the random network described by a GenSpec as bnet text."""
    rng = random.Random(spec.seed)
    n = spec.n
    width = len(str(n - 1)) if n > 1 else 1
    names = ["x%0*d" % (width, i) for i in range(n)]
    degrees, weights = _degree_weights(n, spec.gamma)
    lines = ["targets, factors"]
    build = (
        _inhibitor_dominant
        if spec.family == "inhibitor-dominant"
        else _nested_canalizing
    )
    for i in range(n):
        k = rng.choices(degrees, weights)[0]
        regulators = sorted(rng.sample(range(n), k))
        lines.append("%s, %s" % (names[i], build(names, regulators, rng)))
    return "\n".join(lines) + "\n"
