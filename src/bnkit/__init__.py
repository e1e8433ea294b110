"""Boolean network analysis toolkit.

Parsing and edition of bnet models, functions as canonical DNFs of f
with their prime implicants, cube algebra with exact evaluation and
closure, native enumeration of fixed points and minimal/maximal trap
spaces, state transition graphs under synchronous, asynchronous, general
and most-permissive update modes, and a benchmark harness with a
random-network generator.
"""

from .cubes import Cube, closure, eval_on_cube, is_trap_space, vertices
from .dynamics import (
    attractors,
    build_stg,
    influence_graph,
    mp_successors,
    reachability,
    successors,
)
from .generator import GenSpec, generate_bnet
from .network import (
    BooleanNetwork,
    NetworkError,
    ParseError,
    evaluate,
    export_bnet,
    parse_bnet,
    set_function,
)
from .solver import (
    SolverTimeout,
    fixed_points,
    maximal_trap_spaces,
    minimal_trap_spaces,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanNetwork",
    "Cube",
    "GenSpec",
    "NetworkError",
    "ParseError",
    "SolverTimeout",
    "attractors",
    "build_stg",
    "closure",
    "eval_on_cube",
    "evaluate",
    "export_bnet",
    "fixed_points",
    "generate_bnet",
    "influence_graph",
    "is_trap_space",
    "maximal_trap_spaces",
    "minimal_trap_spaces",
    "mp_successors",
    "parse_bnet",
    "reachability",
    "set_function",
    "successors",
    "vertices",
]
