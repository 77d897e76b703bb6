"""Tests of the benchmark itself: generation, expectations, span arithmetic, tracing."""
import importlib
import inspect
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import quadareas
import reference as ref
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
def take(workload, seed, count):
    return list(itertools.islice(workloads.LIBRARY_WORKLOADS[workload](quadareas, seed), count))


@pytest.mark.parametrize("workload", sorted(workloads.LIBRARY_WORKLOADS))
def test_generation_is_deterministic_for_a_seed(workload):
    first = [(op.label, op.fn, op.args) for op in take(workload, 7, 40)]
    again = [(op.label, op.fn, op.args) for op in take(workload, 7, 40)]
    other = [(op.label, op.fn, op.args) for op in take(workload, 8, 40)]
    assert first == again
    assert first != other


def test_cli_generation_is_deterministic_for_a_seed():
    assert [op.argv for op in workloads.cli_invocations(3)] == [op.argv for op in workloads.cli_invocations(3)]
    assert [op.argv for op in workloads.cli_invocations(3)] != [op.argv for op in workloads.cli_invocations(4)]


BRANCHES = {"q1", "q2", "face", "ray", "degenerate"}
REASONS = {"boundary", "negative-coefficient", "off-subspace", "non-positive-entry"}


def outcomes(ops, verbs):
    return {op.label.split("/")[1] for op in ops if op.label.split("/")[0] in verbs}


def test_decide_long_schedule_covers_every_branch_and_reason():
    ops = take("decide-long", 1, 400)
    assert outcomes(ops, {"member"}) >= BRANCHES | REASONS
    assert outcomes(ops, {"tail"}) >= BRANCHES | REASONS
    assert outcomes(ops, {"witness"}) >= BRANCHES
    assert outcomes(ops, {"strict"}) >= REASONS


def small(ops):
    """The ops on the shorter of the decide-long specs, which cycle through the same cases."""
    def length(spec):  # a DivisionSpec, or the ratio sequence of a member_tail op
        return len(spec.prefix) if hasattr(spec, "prefix") else spec.n

    return [op for op in ops if length(op.args[0]) == workloads.DECIDE_LONG_SIZES[0]]


@pytest.mark.parametrize("workload", ["decide-bigdigit", "oracle"])
def test_every_generated_op_passes_its_check_on_this_commit(workload):
    runner = run.Runner(quadareas, workload)
    for op in take(workload, 2, 20):
        runner.run(op)
    assert runner.attempted == 20 and runner.failed == 0


def test_decide_long_branches_and_reasons_hold_on_this_commit():
    runner = run.Runner(quadareas, "decide-long")
    ops = small(take("decide-long", 5, 400))
    for op in ops:
        runner.run(op)
    assert runner.failed == 0
    assert outcomes(ops, {"member", "tail"}) >= BRANCHES | REASONS
    assert outcomes(ops, {"witness"}) >= BRANCHES


def test_a_wrong_result_counts_as_failed():
    op = take("decide-long", 1, 1)[0]
    spec, x, mode = op.args
    bumped = workloads.Op(op.label, op.fn, (spec, (x[0] + 1, *x[1:]), mode), op.check)
    runner = run.Runner(quadareas, "decide-long")
    runner.run(bumped)
    assert runner.failed == 1


def test_cli_invocations_agree_with_their_construction():
    ops = workloads.cli_invocations(11)
    expected = run.expected_cli(ops)
    assert all(ok for _, _, ok in expected.values())
    verbs = {op.argv[0] for op in ops}
    assert verbs == {"describe", "member", "witness", "areas", "sample", "reduce"}
    assert {op.code for op in ops} == {0, 2}


def test_strict_parallel_count_replays_the_oracle_stream():
    spec = quadareas.DivisionSpec.of((1, 2, 3, 5), (2, 1, 1, 3))
    for seed in (0, 5, 99):
        report = quadareas.sample_parallel_family(spec, 300, seed, "strict")
        assert report.accepted == ref.strict_parallel_accepted(seed, 300)


def add_span(tracer, name, start, end, parent, op=0):
    tracer.span_name.append(tracer.intern(name))
    tracer.parent.append(parent)
    tracer.span_op.append(op)
    tracer.start.append(start)
    tracer.end.append(end)
    return len(tracer) - 1


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    tracer = spans.Tracer()
    root = add_span(tracer, "membership.member", 0, 100, -1)
    hyper = add_span(tracer, "cone.hyperplanes", 10, 60, root)
    add_span(tracer, "linalg.solve3", 20, 30, hyper)
    add_span(tracer, "linalg.solve3", 35, 50, hyper)
    add_span(tracer, "cone.evaluate_plane", 70, 90, root)
    assert spans.self_times(tracer) == [30, 25, 10, 15, 20]
    raw = spans.aggregate(tracer)
    assert raw["self_ns"]["cone"] == 45 and raw["calls"]["cone"] == 2
    assert raw["self_ns"]["linalg"] == 25 and raw["calls"]["linalg.solve3"] == 2
    metrics = spans.per_op(raw, 2)
    assert metrics["membership.self_ms"] == 30 / 1e6 / 2
    assert metrics["cone.hyperplanes.self_ms"] == 25 / 1e6 / 2
    assert metrics["linalg.solve3.calls"] == 1


def test_spans_opened_outside_an_operation_are_not_counted():
    tracer = spans.Tracer()
    add_span(tracer, "division.DivisionSpec", 0, 40, -1, op=-1)
    add_span(tracer, "membership.member", 50, 100, -1, op=0)
    raw = spans.aggregate(tracer)
    assert raw["calls"] == {"membership": 1, "membership.member": 1}
    assert raw["self_ns"] == {"membership": 50, "membership.member": 50}
    spec = quadareas.DivisionSpec.of((1, 2, 3, 4), (2, 1, 1, 3))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        quadareas.hyperplanes(spec)
        tracer.op = 0
        quadareas.hyperplanes(spec)
    raw = spans.aggregate(tracer)
    assert 2 * sum(raw["calls"].get(layer, 0) for layer in spans.LAYERS) == len(tracer)
    assert len(tracer.captured["cone.classify"]) == raw["calls"]["cone.classify"] > 0


def test_layer_self_times_add_up_to_the_root_span():
    tracer = spans.Tracer()
    spec = quadareas.DivisionSpec.of((1, 2, 3, 4, 5), (2, 1, 1, 3, 2))
    with spans.installed(tracer):
        quadareas.synthesize_witness(spec, quadareas.strip_areas(
            quadareas.apex_quad(spec, 1, 2, 3), spec))
    roots = [i for i in range(len(tracer)) if tracer.parent[i] == -1]
    total = sum(tracer.end[i] - tracer.start[i] for i in roots)
    assert sum(spans.self_times(tracer)) == total


def snapshot():
    """Identity of every function binding in the package and of every wrapped class method."""
    modules = [quadareas, *(importlib.import_module(f"quadareas.{layer}") for layer in spans.LAYERS)]
    state = {(mod.__name__, attr): obj for mod in modules for attr, obj in vars(mod).items()
             if inspect.isfunction(obj)}
    for layer, classes in spans.CLASS_METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(importlib.import_module(f"quadareas.{layer}"), cls_name)
            state.update({(cls_name, meth): cls.__dict__[meth] for meth in methods})
    return state


def test_wrappers_go_under_every_import_name_and_are_removed_after():
    spec = quadareas.DivisionSpec.of((1, 2, 3, 4), (2, 1, 1, 3))
    x = quadareas.strip_areas(quadareas.apex_quad(spec, 1, 2, 3), spec)
    before = snapshot()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert quadareas.membership.hyperplanes is not before["quadareas.membership", "hyperplanes"]
        assert quadareas.witness.member.__wrapped__ is before["quadareas.witness", "member"]
        traced_spec = quadareas.DivisionSpec.of((1, 2, 3, 4), (2, 1, 1, 3))
        quadareas.witness.synthesize_witness(traced_spec, x)
    names = {tracer.names[i] for i in tracer.span_name}
    assert {"witness.synthesize_witness", "membership.member", "cone.hyperplanes", "cone.evaluate_plane",
            "linalg.solve3", "division.DivisionSpec", "cone.frame"} <= names
    assert snapshot() == before
    recorded = len(tracer)
    quadareas.member(spec, x)
    assert len(tracer) == recorded


def test_benchmark_json_names_match_the_reported_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == dict(run.END_TO_END)
    assert sorted(m["name"] for m in config["per_layer"]) == spans.metric_names()
    assert all(m["unit"] == spans.unit(m["name"]) for m in config["per_layer"])
    assert sorted(w["name"] for w in config["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "decide-long", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
