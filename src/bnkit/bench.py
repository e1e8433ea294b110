"""Time-to-first-solution benchmark harness.

Each model in a suite directory is parsed and the configured enumeration
is run until its first solution (or until the stream completes empty);
the wall clock covers parsing and solving of that model only.  Timeouts
are enforced cooperatively by the solver's deadline checks.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from .network import parse_bnet
from .solver import (
    SolverTimeout,
    fixed_points,
    maximal_trap_spaces,
    minimal_trap_spaces,
)

PROBLEMS = {
    "fix": fixed_points,
    "min": minimal_trap_spaces,
    "max": maximal_trap_spaces,
}
THRESHOLDS = (0.5, 2.0, 10.0, 60.0, 600.0, 3600.0)
THRESHOLD_LABELS = ("<0.5s", "<2s", "<10s", "<1min", "<10min", "<1h")


@dataclass
class BenchRecord:
    model: str
    problem: str
    seconds: float
    status: str  # ok | timeout | error


def run_model(path, problem, timeout):
    """Benchmark one model file; returns a BenchRecord."""
    path = Path(path)
    start = time.monotonic()
    deadline = start + timeout
    try:
        net = parse_bnet(path.read_text(encoding="utf-8-sig"))
        if time.monotonic() > deadline:
            raise SolverTimeout
        if problem not in PROBLEMS:
            raise ValueError("unknown problem %r" % problem)
        next(PROBLEMS[problem](net, limit=1, deadline=deadline), None)
        status = "ok"
    except SolverTimeout:
        status = "timeout"
    except (ValueError, OSError):
        status = "error"
    except Exception:
        # a failure of one model must not end the suite: report it, go on
        traceback.print_exc()
        status = "error"
    elapsed = time.monotonic() - start
    if status == "ok" and elapsed > timeout:
        # finished right at the wire; count it against the timeout
        status = "timeout"
    return BenchRecord(path.name, problem, elapsed, status)


def run_suite(suite_dir, problem, timeout, jobs=1):
    """Benchmark every .bnet file in the directory, in sorted name order."""
    paths = sorted(Path(suite_dir).glob("*.bnet"))
    if jobs <= 1:
        return [run_model(p, problem, timeout) for p in paths]
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        futures = [pool.submit(run_model, p, problem, timeout) for p in paths]
        return [f.result() for f in futures]


def to_tsv(records):
    lines = [
        "%s\t%s\t%.6f\t%s" % (r.model, r.problem, r.seconds, r.status)
        for r in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def cumulative_summary(records):
    """Completed-instance counts per cumulative time threshold."""
    return [
        sum(1 for r in records if r.status == "ok" and r.seconds < limit)
        for limit in THRESHOLDS
    ]


def format_summary(records):
    counts = cumulative_summary(records)
    header = "\t".join(("",) + THRESHOLD_LABELS)
    row = "\t".join(["completed"] + [str(c) for c in counts])
    return header + "\n" + row + "\n"
