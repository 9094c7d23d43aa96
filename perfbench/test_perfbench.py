"""Tests of the benchmark itself: inputs, failure counting, the deadline, tracing."""

import dataclasses
import itertools
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import benchcore  # noqa: E402
import wl_cli  # noqa: E402
import wl_finite  # noqa: E402
import wl_haar  # noqa: E402
import wl_spin  # noqa: E402

IN_PROCESS = (wl_spin, wl_haar, wl_finite)
ALL = (wl_cli, *IN_PROCESS)


@pytest.mark.parametrize("workload", ALL, ids=lambda w: w.NAME)
def test_same_seed_gives_same_inputs(workload):
    first = list(itertools.islice(workload.ops(7), 60))
    assert first == list(itertools.islice(workload.ops(7), 60))
    assert first != list(itertools.islice(workload.ops(8), 60))


def test_cycles_keep_the_same_strata_whatever_the_seed():
    def strata(seed):
        ops = list(itertools.islice(wl_spin.ops(seed), wl_spin.HEAD_OPS + len(wl_spin.STRATA)))[wl_spin.HEAD_OPS:]
        return sorted(len(op.thetas) for op in ops)

    assert strata(1) == strata(2) == sorted(a for a, _ in wl_spin.STRATA)


class _Stub:
    """A workload whose ops are callables; the expected answer is always 42."""

    NAME = "stub"
    DEADLINE_S = 0.2

    @staticmethod
    def run_op(op, tracer):
        return op()

    @staticmethod
    def check(op, result):
        return result == 42, abs(result - 42)


def _loop(*ops):
    return benchcore.run_loop(_Stub, iter(ops), benchcore.NullTracer(), 0.0, min_ops=len(ops), max_ops=len(ops))


def test_wrong_answer_is_counted_as_failed():
    records = _loop(lambda: 42, lambda: 41, lambda: 42)
    assert [r.status for r in records] == ["ok", "wrong", "ok"]
    e2e = benchcore.end_to_end(records)
    assert e2e["failed_ratio"] == pytest.approx(1 / 3)
    assert e2e["ok_ratio"] == pytest.approx(2 / 3)
    assert not benchcore.is_correct(records)


def test_wrong_answer_from_a_real_workload_is_caught():
    op = next(wl_haar.ops(3))
    result = wl_haar.run_op(op, benchcore.NullTracer())
    assert wl_haar.check(op, result)[0]
    normalizer, *rest = result
    assert not wl_haar.check(op, (normalizer * (1 + 1e-4), *rest))[0]


def test_deadline_fires_on_a_call_that_never_returns():
    def never_returns():
        while True:
            pass

    started = time.perf_counter()
    with pytest.raises(benchcore.DeadlineExceeded):
        with benchcore.deadline(0.05):
            never_returns()
    assert time.perf_counter() - started < 2.0

    records = _loop(never_returns, lambda: 42)
    assert [r.status for r in records] == ["deadline", "ok"]
    assert records[0].wall_s == _Stub.DEADLINE_S


def test_deadline_miss_on_a_known_defect_keeps_the_run_correct():
    op = dataclasses.replace(next(wl_haar.ops(5)), known_defect="tagged")
    records = [benchcore.Record(op, 1.0, "deadline"), benchcore.Record(op, 0.1, "ok")]
    assert benchcore.is_correct(records)
    assert not benchcore.is_correct([benchcore.Record(op, 0.1, "wrong")])
    untagged = dataclasses.replace(op, known_defect=None)
    assert not benchcore.is_correct([benchcore.Record(untagged, 1.0, "deadline")])


def test_known_defects_run_apart_from_the_timed_ops_and_miss_the_deadline():
    assert not any(op.known_defect for op in itertools.islice(wl_haar.ops(1), 3 + 15 * 4))
    defects = wl_haar.known_defects(1)
    assert defects == wl_haar.known_defects(1)
    assert {op.known_defect for op in defects} == {wl_haar.QUANTILE_HANG, wl_haar.SLOW_QUADRATURE}
    records = benchcore.run_loop(wl_haar, iter(defects[:1]), benchcore.NullTracer(), 0.0, min_ops=1, max_ops=1)
    assert records[0].status == "deadline"
    assert records[0].wall_s == wl_haar.KNOWN_DEFECT_DEADLINE_S < wl_haar.DEADLINE_S
    assert benchcore.is_known_failure(records[0])


def test_traced_run_with_an_unmeasured_layer_metric_fails(monkeypatch):
    import run

    layers = {name: 1.0 for name in run.per_layer_units()}
    del layers["cli.import_ms"]
    monkeypatch.setattr(run, "worker", lambda *args, **kwargs: {"per_layer": layers})
    with pytest.raises(SystemExit, match="cli.import_ms"):
        run.run_workload(ROOT, "cli_examples", 1, 1.0, 1)


@pytest.mark.parametrize("workload", IN_PROCESS, ids=lambda w: w.NAME)
def test_traced_and_untraced_runs_give_identical_answers(workload):
    ops = list(itertools.islice(workload.ops(11), workload.HEAD_OPS))
    plain = [workload.run_op(op, benchcore.NullTracer()) for op in ops]
    tracer = benchcore.Tracer()
    hooks = getattr(workload, "trace_hooks", None)
    if hooks:
        hooks(tracer)
    try:
        traced = [workload.run_op(op, tracer) for op in ops]
    finally:
        tracer.restore()
    assert traced == plain
    assert all(workload.check(op, answer)[0] for op, answer in zip(ops, plain))
    assert tracer.spans


def test_traced_and_untraced_cli_give_identical_stdout():
    for op in itertools.islice(wl_cli.ops(11), 2):
        plain = wl_cli.run_op(op, benchcore.NullTracer())
        tracer = benchcore.Tracer()
        assert wl_cli.run_op(op, tracer) == plain
        assert wl_cli.check(op, plain)[0]
        assert tracer.counts["cli.children"] == 1


def test_tracer_restores_wrapped_names():
    from groupmeasure import spin

    original = spin.probabilities
    tracer = benchcore.Tracer()
    wl_spin.trace_hooks(tracer)
    assert spin.probabilities is not original
    tracer.restore()
    assert spin.probabilities is original


def test_benchmark_json_declares_what_run_reports():
    import json

    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
