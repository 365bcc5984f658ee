"""Tests of the benchmark harness itself, on a tiny configuration."""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import tracer  # noqa: E402

TINY = {"cycle": "F", "grids": "8,4,2,1", "lmax": 1, "cells": 4, "quad": 2,
        "dt": 0.02, "tend": 0.06, "snapshots": 0.06}


def _bindings():
    """Every function-valued binding in trtmg modules and traced classes."""
    from trtmg import grids
    owners = tracer._trtmg_modules() + [grids.FrequencyGridHierarchy,
                                        grids.SpatialMesh]
    return [(o.__name__, k, v) for o in owners for k, v in vars(o).items()
            if callable(v) or isinstance(v, classmethod)]


def test_traced_and_untraced_outputs_are_bitwise_identical(tmp_path):
    bench = harness.Bench(TINY, tmp_path)
    bench.rep()
    plain = bench.outputs["files"]
    bench.rep(tracer.Tracer())
    assert harness.read_outputs(bench.out)["files"] == plain
    assert set(plain) >= {"profiles.csv", "stats.csv", "totals.csv"}
    assert bench.problems == []


def test_traced_run_rederives_counters_and_restores_wrappers(tmp_path):
    before = _bindings()
    bench = harness.Bench(TINY, tmp_path)
    result = bench.traced(0.0)
    after = _bindings()
    assert [(n, k) for n, k, _ in after] == [(n, k) for n, k, _ in before]
    assert all(a is b for (_, _, a), (_, _, b) in zip(after, before))

    assert result["correct"], bench.problems
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(harness.METRICS["per_layer"])
    assert m["cycles.steps"] == 3
    assert m["grids.restrict.calls"] > 0
    assert m["loqd.solve_coarse.calls"] > 0
    assert m["step_fail_frac"] == 0.0


def test_percentile_rule():
    times = [i / 1000.0 for i in range(1, 101)]
    assert harness.percentile_ms(times, 90) == pytest.approx(90.1)
    assert harness.percentile_ms(times[:99], 90) is None
    assert harness.percentile_ms(times[:20], 50) is not None
    assert harness.percentile_ms(times[:19], 50) is None


def test_end_to_end_collects_enough_steps_for_p90(tmp_path):
    bench = harness.Bench(TINY, tmp_path)
    result = bench.end_to_end(0.0)
    assert result["correct"], bench.problems
    assert result["attempted"] >= harness.P90_MIN_SAMPLES
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(harness.METRICS["end_to_end"])


def test_injected_fault_counts_failed_steps(tmp_path):
    faulty = dict(TINY, max_outer=1)
    result = harness.Bench(faulty, tmp_path / "e2e").end_to_end(0.0)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    traced = harness.Bench(faulty, tmp_path / "traced").traced(0.0)
    assert traced["metrics"]["step_fail_frac"]["value"] > 0.0


def test_profile_check_absorbs_round_off_but_not_errors():
    T = [1.0, 0.5, 0.1]
    E = [2.0, 1.0, 0.01]
    ref = [0.6, T, E]
    shifted = [0.6, [x * (1 + 2e-7) for x in T], E]
    assert harness.profile_mismatch(shifted, ref) is None
    wrong = [0.6, T, [2.0, 1.001, 0.01]]
    assert "E_total" in harness.profile_mismatch(wrong, ref)


def test_energy_gate_rejects_a_broken_balance(tmp_path):
    from trtmg.cli import fc_problem, parse_config
    from trtmg.cycles import (ConvergenceCriteria, initial_state,
                              make_schedule, run_time_step)
    cfg = parse_config(None, {k: str(v) for k, v in TINY.items()})
    problem = fc_problem(cfg)
    old = initial_state(problem)
    new = run_time_step(problem, old, make_schedule("F", cfg.grid_counts, 1),
                        ConvergenceCriteria(), cfg.dt)
    assert harness.step_passes(problem, old, new, cfg.dt)
    new.T = new.T * 1.01
    assert not harness.step_passes(problem, old, new, cfg.dt)


def test_step_gate_is_not_solver_time(tmp_path, monkeypatch):
    """A slow gate shows in no module's self time and in no wall time."""
    delay = 0.2     # the tiny run takes about 0.2 s in all
    judge = harness.step_passes

    def slow(*args):
        time.sleep(delay)
        return judge(*args)
    monkeypatch.setattr(harness, "step_passes", slow)

    bench = harness.Bench(TINY, tmp_path)
    tr = tracer.Tracer()
    wall = bench.rep(tr)
    assert bench.monitor.gate_s >= 3 * delay
    gate = tr.summary()["harness.gate"]
    assert gate["calls"] == 3 and gate["self"] >= 3 * delay
    m = harness.layer_metrics(tr, wall, 0, 0)
    assert m["cycles.driver.self_s"] < delay
    assert m["trace.coverage_frac"] < 1.0
    assert wall < 3 * delay and bench.rep() < 3 * delay
