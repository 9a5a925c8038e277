"""Tests of the benchmark's own machinery; run with

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from odds_nls import experiments, linalg, stepper  # noqa: E402
from odds_nls.stepper import StepFailure  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_direct_children():
    #   root [0, 100]
    #     a [10, 40]
    #       b [15, 25]
    #     c [50, 90]
    #     a [92, 97]
    spans = [["root", 0, 100, -1], ["a", 10, 40, 0], ["b", 15, 25, 1],
             ["c", 50, 90, 0], ["a", 92, 97, 0]]
    assert tracing.self_times(spans) == [100 - 30 - 40 - 5, 30 - 10, 10, 40, 5]
    ns, calls = tracing.layer_totals(spans)
    assert ns == {"root": 25, "a": 25, "b": 10, "c": 40}
    assert calls == {"root": 1, "a": 2, "b": 1, "c": 1}


def test_tracer_nests_wrapped_calls_and_reads_a_fake_clock():
    ticks = iter(range(0, 1000, 10))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    tracer.begin()
    outer()
    assert tracer.spans == [["outer", 0, 30, -1], ["inner", 10, 20, 0]]
    assert tracing.self_times(tracer.spans) == [20, 10]


def test_failed_frac_counts_an_injected_failure(monkeypatch, tmp_path):
    cfg = dataclasses.replace(
        workloads.WORKLOADS["soliton1d"].config(1, str(tmp_path)),
        t_final=0.03, snapshot_times=(0.0, 0.03))
    tally = run.Tally()
    for _ in range(2):
        tally.add(run.call(cfg, workloads.check_result)[2])

    def broken(config, workers=1):
        raise StepFailure("injected", step=1, time=0.015, residual=1.0)

    monkeypatch.setattr(experiments, "run_experiment", broken)
    wall, result, problems = run.call(cfg, workloads.check_result)
    tally.add(problems)
    assert result is None and "injected" in problems[0]
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.failed_frac == pytest.approx(1 / 3)


def test_output_checks_reject_bad_csvs(tmp_path):
    charge = tmp_path / "charge.csv"
    charge.write_text("trajectory,time,charge\n0,0.0,2.0\n0,1.0,2.01\n")
    assert workloads.check_charge_drift(str(charge)) == []
    charge.write_text("trajectory,time,charge\n0,0.0,2.0\n0,1.0,2.03\n")
    assert workloads.check_charge_drift(str(charge))
    table = tmp_path / "table.csv"
    table.write_text("tau,err,order\n0.1,1.0,\n0.05,1.1,1\n0.02,0.5,1\n")
    assert workloads.check_convergence(str(table)) == []
    table.write_text("tau,err,order\n0.1,1.0,\n0.05,1.1,1\n0.02,1.2,1\n")
    assert workloads.check_convergence(str(table))
    assert workloads.check_finite(str(table)) == []
    table.write_text("tau,err,order\n0.1,nan,\n")
    assert workloads.check_finite(str(table))


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    for section, expected in (("end_to_end", run.END_TO_END),
                              ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[section]}
        assert listed == expected
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [*run.END_TO_END.values(), *run.PER_LAYER.values()]:
        assert UNIT.fullmatch(unit), unit


def test_traced_call_reports_every_layer_and_restores_the_program(tmp_path):
    cfg = dataclasses.replace(
        workloads.WORKLOADS["soliton1d"].config(1, str(tmp_path)),
        t_final=0.03, snapshot_times=(0.0, 0.03))
    originals = (stepper.odds_step_1d, stepper.cn_step_linear,
                 linalg.krylov_solve, linalg.assemble_global)
    tracer = tracing.Tracer()
    tracer.begin()
    with tracing.installed(tracer):
        assert stepper.odds_step_1d is not originals[0]
        _, result, problems = run.call(cfg, workloads.check_result, tracer)
    assert (stepper.odds_step_1d, stepper.cn_step_linear,
            linalg.krylov_solve, linalg.assemble_global) == originals
    assert problems == []
    metrics = tracing.call_metrics(tracer, workloads.csv_bytes(result))
    assert set(metrics) | {"trace_overhead"} == set(run.PER_LAYER)
    assert metrics["stepper.steps"] == 2
    assert metrics["linalg.matvecs_per_solve"] > 0
    assert metrics["linalg.residual_max"] <= 1e-5
    assert metrics["experiments.csv_bytes"] > 0
    assert tracer.stack == []
