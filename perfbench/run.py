"""Layered time-to-first-solution benchmark for bnkit.

    python3 perfbench/run.py --workload scale-first --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One workload runs in one process on one thread.  The run builds its inputs
from the seed, parses them several times (set-up), runs every step once,
then repeats the steps that succeeded until --seconds have passed and
reports medians.  With --trace 1 it alternates untraced and traced cycles
and reports per-layer figures from the traced ones instead.  Every answer
is checked; a failed check makes the run exit with code 1.  The last line
of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
REFERENCE_INTERVAL_S = 0.1
SETUP_REFERENCE_INTERVAL_S = 0.02
REFERENCE_S = 0.001  # nominal reference_work time that setup_s is scaled to
REFERENCE_BNET = """targets, factors
a, !b | (c & d)
b, (a & !e) | (!a & e)
c, !c & a
d, b | !e
e, (a & b) | !d
"""

SPAN_OF_KIND = {
    "fix": "solver.fix",
    "min": "solver.min",
    "max": "solver.max",
    "reach": "dynamics.reachability",
    "attractors": "dynamics.attractors",
    "stg": "dynamics.build_stg",
}


def _load_library():
    if not (SRC / "bnkit" / "__init__.py").is_file():
        sys.exit("perfbench: no bnkit sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import bnkit

    if Path(bnkit.__file__).resolve().parent != SRC / "bnkit":
        sys.exit("perfbench: imported bnkit from %s, not from %s" % (bnkit.__file__, SRC))
    return bnkit


# ---------------------------------------------------------------------------
# Environment


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_work():
    """Fixed pure-Python work, timed through a run as a yardstick of host speed.

    A shared 2-core Xeon VM ran the same code up to 1.7 times faster in some
    minutes than in others; time in units of this work cancels most of that.
    It is the benchmark's own brute-force oracle on one fixed network, which
    uses no bnkit code but the same kind of tuple, dict and generator work,
    and so tracked bnkit's speed about twice as closely as an integer loop.
    It took about REFERENCE_S there.
    """
    return oracle.answers(REFERENCE_BNET)


# ---------------------------------------------------------------------------
# Timing


def _time_reference():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class Runner:
    """Times the steps of one workload and keeps every sample and answer."""

    def __init__(self, bnkit, steps, deadline_s):
        self.timeout_error = bnkit.SolverTimeout
        self.deadline_s = deadline_s
        self.steps = steps
        self.samples = [[] for _ in steps]
        self.first = [None] * len(steps)
        self.status = [None] * len(steps)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = []  # seconds per reference_work() call
        self._next_reference = 0.0

    def time_step(self, i, tracer=None):
        step = self.steps[i]
        start = time.perf_counter()
        try:
            deadline = time.monotonic() + self.deadline_s
            if tracer is None:
                result = step.run(deadline)
            else:
                result = tracer.span(SPAN_OF_KIND[step.kind], step.run, deadline)
            status = "ok"
        except self.timeout_error:
            result, status = None, "timeout"
        except Exception as exc:  # a raising step is a failed query, not a crash
            result, status = repr(exc), "error"
        elapsed = time.perf_counter() - start
        if tracer is None and time.perf_counter() >= self._next_reference:
            self.reference.append(_time_reference())
            self._next_reference = time.perf_counter() + REFERENCE_INTERVAL_S
        self.attempted += 1
        if status != "ok":
            # PAR-1: a timed-out or raising step costs the whole deadline,
            # so a slower program can never score better by failing more.
            self.failed += 1
            elapsed = self.deadline_s
        if self.status[i] is None:
            self.status[i], self.first[i] = status, result
        elif status == "ok" and result != self.first[i]:
            self.errors.append("%s %s: answer changed between cycles" % (step.group, step.kind))
        return elapsed

    def cycle(self, tracer=None, indices=None):
        """Time each step once; returns the per-step seconds."""
        indices = range(len(self.steps)) if indices is None else indices
        return {i: self.time_step(i, tracer) for i in indices}

    def ok_indices(self):
        return [i for i, s in enumerate(self.status) if s == "ok"]

    def check(self):
        for step, status, result in zip(self.steps, self.status, self.first):
            if status == "ok":
                error = step.check(result)
                if error:
                    self.errors.append("%s %s: %s" % (step.group, step.kind, error))
        return not self.errors

    def digest(self):
        text = "\n".join(
            "%s %s %s %r" % (s.group, s.kind, st, r if st == "ok" else None)
            for s, st, r in zip(self.steps, self.status, self.first)
        )
        return hashlib.sha256(text.encode()).hexdigest()


def setup(bnkit, inputs):
    """Parse every model SETUP_REPEATS times, and for SETUP_MIN_S at least.

    Within a pass, reference_work is timed after a parse whenever
    SETUP_REFERENCE_INTERVAL_S have passed; the pass's summed parse time is
    scaled by REFERENCE_S over the median of those, so set-up reads in seconds
    on a host where reference_work takes REFERENCE_S.  Returns the median
    scaled and raw summed parse times, and the models.
    """
    raw, scaled = [], []
    while len(raw) < SETUP_REPEATS or sum(raw) < SETUP_MIN_S:
        total = 0.0
        nets = []
        reference = [_time_reference()]
        next_reference = time.perf_counter() + SETUP_REFERENCE_INTERVAL_S
        for _, text, _ in inputs:
            start = time.perf_counter()
            nets.append(bnkit.parse_bnet(text))
            total += time.perf_counter() - start
            if time.perf_counter() >= next_reference:
                reference.append(_time_reference())
                next_reference = time.perf_counter() + SETUP_REFERENCE_INTERVAL_S
        raw.append(total)
        scaled.append(total * REFERENCE_S / statistics.median(reference))
    models = [(label, text, net, extra) for (label, text, extra), net in zip(inputs, nets)]
    return statistics.median(scaled), statistics.median(raw), models


def untraced_metrics(workload, runner, setup_s, setup_raw_s, seconds, started):
    from workloads import percentile

    first = runner.cycle()
    for i, t in first.items():
        runner.samples[i].append(t)
    ok = runner.ok_indices()
    k = 0
    while ok and time.perf_counter() - started < seconds:
        i = ok[k % len(ok)]
        runner.samples[i].append(runner.time_step(i))
        k += 1
    # A step that failed on its first run is not repeated; its one sample
    # is the deadline (see Runner.time_step), so it counts in every sum.
    done = [(step, statistics.median(t)) for step, t in zip(runner.steps, runner.samples)]
    latency = [t for step, t in done if step.kind in workload.latency_kinds]
    by_kind = {}
    for step, t in done:
        by_kind.setdefault(step.kind, []).append(t)
    solve_s = sum(t for _, t in done)
    reference_s = statistics.median(runner.reference)
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_ref": (solve_s / reference_s, "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = workload.detail(by_kind)
    detail["solve_s"] = solve_s
    detail["setup_raw_s"] = setup_raw_s
    detail["reference_ms"] = 1000.0 * reference_s
    detail["reference_samples"] = len(runner.reference)
    detail["queries"] = len(latency)
    detail["query_p50_ms"] = 1000.0 * statistics.median(latency)
    detail["query_p90_ms"] = 1000.0 * percentile(latency, 90)
    detail["failed_steps"] = sum(st != "ok" for st in runner.status)
    detail["repeats"] = k
    return metrics, detail


def traced_metrics(bnkit, inputs, runner, seconds, started):
    from tracing import Tracer

    untraced_s = traced_s = 0.0
    layer = None
    while layer is None or time.perf_counter() - started + 2 * cycle_s < seconds:
        t0 = time.perf_counter()
        plain = runner.cycle(indices=runner.ok_indices() if layer else None)
        tracer = Tracer()
        with tracer:
            if layer is None:
                for _, text, _ in inputs:
                    tracer.span("network.parse_bnet", bnkit.parse_bnet, text)
            traced = runner.cycle(tracer, indices=runner.ok_indices())
        untraced_s += sum(plain[i] for i in traced)
        traced_s += sum(traced.values())
        if layer is None:
            layer = tracer
        cycle_s = time.perf_counter() - t0
    return layer, (traced_s - untraced_s) / untraced_s if untraced_s else 0.0


def layer_metrics(layer, models, runner, overhead):
    calls, total, own = layer.calls, layer.total, layer.self_time
    created = calls.get("solver.fixed_points.created", 0)
    answers = sum(
        len(r) for s, st, r in zip(runner.steps, runner.status, runner.first)
        if st == "ok" and s.kind in ("fix", "min", "max", "attractors")
    )
    reach = [r for s, st, r in zip(runner.steps, runner.status, runner.first)
             if st == "ok" and s.kind == "reach"]
    solver_self = {p: own.get("solver." + p, 0.0) for p in ("fix", "min", "max")}
    metrics = {
        "expressions.parse_expression.s": (total.get("expressions.parse_expression", 0.0), "s"),
        "network.parse_bnet.self_s": (own.get("network.parse_bnet", 0.0), "s"),
        "network.normalize.s": (total.get("network.normalize", 0.0), "s"),
        "network.image.calls": (calls.get("network.image", 0), "count"),
        "network.image.s": (total.get("network.image", 0.0), "s"),
        "network.evaluate.calls": (calls.get("network.evaluate", 0), "count"),
        "network.bdd_functions": (
            sum(getattr(fn, "bdd", None) is not None
                for _, _, net, _ in models for fn in net.functions), "count"),
        "cubes.eval_mask.calls": (calls.get("cubes.eval_mask", 0), "count"),
        "cubes.closure.calls": (calls.get("cubes.closure", 0), "count"),
        "cubes.closure.s": (total.get("cubes.closure", 0.0), "s"),
        "solver.self_s": (sum(solver_self.values()) + own.get("solver.fixed_points", 0.0), "s"),
        "solver.fixed_points.calls": (created, "count"),
        "solver.fixed_points.hit_ratio": (
            layer.hits.get("solver.fixed_points", 0) / created if created else 0.0, "ratio"),
        "solver.solutions": (answers, "count"),
        "dynamics.mp_successors.calls": (calls.get("dynamics.mp_successors", 0), "count"),
        "dynamics.reach.true_frac": (sum(reach) / len(reach) if reach else 0.0, "ratio"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    detail = {"solver.%s.self_s" % p: v for p, v in solver_self.items()}
    detail.update({
        "dynamics.mp_successors.s": total.get("dynamics.mp_successors", 0.0),
        "dynamics.reachability.self_s": own.get("dynamics.reachability", 0.0),
        "dynamics.attractors.s": total.get("dynamics.attractors", 0.0),
        "dynamics.build_stg.s": total.get("dynamics.build_stg", 0.0),
    })
    return metrics, detail


# ---------------------------------------------------------------------------
# Entry points


def run_workload(bnkit, workload, seed, seconds, trace):
    name = workload.name
    inputs = workload.inputs(seed)
    setup_s, setup_raw_s, models = setup(bnkit, inputs)
    runner = Runner(bnkit, workload.steps(models), workload.deadline_s)
    started = time.perf_counter()
    if trace:
        layer, overhead = traced_metrics(bnkit, inputs, runner, seconds, started)
        metrics, detail = layer_metrics(layer, models, runner, overhead)
    else:
        metrics, detail = untraced_metrics(
            workload, runner, setup_s, setup_raw_s, seconds, started)
    measured_s = time.perf_counter() - started
    correct = runner.check()
    for error in runner.errors:
        print("check failed: " + error, file=sys.stderr)
    info = environment(seed)
    info.update({
        "workload": name,
        "trace": trace,
        "measured_s": measured_s,
        "query_deadline_s": workload.deadline_s,
        "fail_frac": runner.failed / runner.attempted,
        "digest": runner.digest(),
        "detail": detail,
    })
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (name, seed, trace)
    if trace:
        layer.write(OUT / ("spans-" + stem + ".json"), info)
    steps = [[s.group, s.kind, st, t] for s, st, t in zip(runner.steps, runner.status, runner.samples)]
    (OUT / (stem + ".json")).write_text(
        json.dumps({"info": info, "result": result, "steps": steps,
                    "reference_s": runner.reference}))
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(names, seed, seconds, trace):
    """Each workload in its own process; prints every metric by name and unit."""
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if len(lines) < 2:
            print("%s: no result (exit code %d)" % (name, proc.returncode))
            continue
        info = json.loads(lines[-2][len("info: "):])
        result = json.loads(lines[-1])
        print("%s  correct=%s attempted=%d failed=%d fail_frac=%.4f" % (
            name, result["correct"], result["attempted"], result["failed"], info["fail_frac"]))
        for key, m in result["metrics"].items():
            print("  %-34s %14.6g %s" % (key, m["value"], m["unit"]))
        for key, value in info["detail"].items():
            print("  %-34s %14.6g" % (key, value))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bnkit = _load_library()
    from workloads import DIAGNOSTICS, WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds, args.trace)
    known = {**WORKLOADS, **DIAGNOSTICS}
    if args.workload not in known:
        parser.error("unknown workload %r; choose from %s or all"
                     % (args.workload, ", ".join(known)))
    return run_workload(bnkit, known[args.workload], args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
