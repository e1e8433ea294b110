"""Tests of the benchmark itself: input determinism, output names, checks.

    python3 -m pytest perfbench
"""

import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

bnkit = run._load_library()

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _small(workload, count=2):
    return replace(workload, inputs=lambda seed: workload.inputs(seed)[:count])


def _run(workload, trace, with_info=False):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.run_workload(bnkit, workload, 7, 0, trace)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    if with_info:
        return code, result, json.loads(lines[-2][len("info: "):])
    return code, result


def test_same_seed_gives_identical_inputs():
    for workload in {**workloads.WORKLOADS, **workloads.DIAGNOSTICS}.values():
        first = repr(workload.inputs(11)).encode()
        assert repr(workload.inputs(11)).encode() == first
        assert repr(workload.inputs(12)).encode() != first


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metrics_match_spec():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in workloads.WORKLOADS.values():
        for trace, spec in ((0, end_to_end), (1, per_layer)):
            code, result = _run(_small(workload), trace)
            assert code == 0 and result["correct"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert {k: m["unit"] for k, m in result["metrics"].items()} == spec


def test_failed_check_fails_the_run():
    def wrong(models):
        steps = workloads.enum_small_steps(models)
        return [replace(s, run=lambda deadline: []) if s.kind == "min" else s for s in steps]

    broken = replace(_small(workloads.WORKLOADS["enum-small"]), steps=wrong)
    code, result = _run(broken, 0)
    assert code == 1 and result["correct"] is False


def test_failed_step_costs_its_deadline():
    def raising(deadline):
        raise RuntimeError("boom")

    def steps(models):
        steps = workloads.enum_small_steps(models)
        return [replace(s, run=raising) if s.kind == "max" else s for s in steps]

    broken = replace(_small(workloads.WORKLOADS["enum-small"]), steps=steps)
    code, result, info = _run(broken, 0, with_info=True)
    assert code == 0 and result["failed"] == 2
    assert info["detail"]["failed_steps"] == 2
    assert info["detail"]["max.all_s"] == 2 * broken.deadline_s


def test_oracle_agrees_on_a_known_network():
    fixed, minimal, maximal = workloads.oracle.answers(
        "targets, factors\na, !b\nb, !a\nc, !(a & !b) & !c\n")
    assert fixed == {(1, 0, 0)}
    assert minimal == {(1, 0, 0), (0, 1, 2)}
    assert maximal == {(1, 0, 2), (0, 1, 2)}


def test_tracer_restores_patched_functions():
    before = bnkit.solver.closure, bnkit.network.BooleanNetwork.image
    with Tracer() as tracer:
        net = bnkit.parse_bnet("a, b\nb, a\n")
        list(bnkit.minimal_trap_spaces(net))
    assert (bnkit.solver.closure, bnkit.network.BooleanNetwork.image) == before
    assert tracer.calls["expressions.parse_expression"] == 2
    assert tracer.calls["cubes.eval_mask"] > 0


def test_spans_record_their_parent():
    tracer = Tracer()
    tracer.span("outer", tracer.span, "inner", sum, [1, 2])
    names = [tracer.names[i] for i, _, _, _ in tracer.spans]
    assert names == ["outer", "inner"]
    (_, o_start, o_end, o_parent), (_, i_start, i_end, i_parent) = tracer.spans
    assert o_parent == -1 and i_parent == 0
    assert o_start <= i_start <= i_end <= o_end
    assert tracer.self_time["outer"] <= tracer.total["outer"]
