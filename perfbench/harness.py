"""Time-to-solution benchmark of the trtmg slab solver.

One repetition ("rep") is one call of trtmg.cli.main on a config file, the
path a user takes: config -> fc_problem -> run_simulation -> write_outputs.
Untraced reps give the end-to-end metrics; traced reps (spans around the
public functions of every module, see tracer.py) give the per-layer ones.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import logging
import resource
import statistics
import sys
import traceback
from contextlib import ExitStack, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as tr

DT = 0.02           # ns
TEND = 0.6          # ns: the first 30 steps of the transient
WORKLOADS = {
    "v2": {"cycle": "V", "grids": "256,1", "lmax": 4, "cells": 10, "quad": 8},
    "f2": {"cycle": "F", "grids": "256,128,32,16,8,4,1", "lmax": 1,
           "cells": 10, "quad": 8},
    "v1_s128": {"cycle": "V", "grids": "64,1", "lmax": 1, "cells": 20,
                "quad": 64},
}

# a tail percentile needs ten samples beyond it
P90_MIN_SAMPLES = 100
SETUP_PASSES = 10         # per rep
# the paper's per-step energy-balance bound (acceptance criterion 5)
ENERGY_TOL = 1e-8
# final-profile tolerance, relative to each profile's maximum
PROFILE_RTOL = 1e-5

_SPEC = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
# metric name -> unit, for "end_to_end" (--trace 0) and "per_layer" (--trace 1)
METRICS = {kind: {m["name"]: m["unit"] for m in _SPEC[kind]}
           for kind in ("end_to_end", "per_layer")}


def workload_config(name: str, tend: float = TEND) -> dict:
    """The workload's config; record_reference.py runs it to 3 ns too."""
    return dict(WORKLOADS[name], dt=DT, tend=tend)


def write_config_file(config: dict, path: Path, out_dir: Path):
    lines = [f"{k} = {v}" for k, v in config.items()] + [f"out = {out_dir}"]
    path.write_text("\n".join(lines) + "\n")


class SetupDone(Exception):
    """Raised at the first time step of a set-up-only pass."""


class StepMonitor:
    """Replacement for cycles.run_time_step that times each step and judges
    it: a step fails if it raises, if its new state is non-finite, or if its
    material + radiation energy change misses the net boundary influx by
    more than ENERGY_TOL of the total energy.  The judging is the harness's
    own work: gate_s sums its seconds, and in a traced rep it is a span of
    its own ("harness.gate"), so no module's self time includes it."""

    def __init__(self):
        self.reset()

    def reset(self, setup_only=False, tracer=None):
        self.setup_only = setup_only
        self.tracer = tracer
        self.setup_end = None
        self.times = []
        self.passed = 0
        self.gate_s = 0.0

    def make(self, fn):
        sig = inspect.signature(fn)

        def judge(args, kwargs, new):
            a = sig.bind(*args, **kwargs).arguments
            return step_passes(a["problem"], a["state"], new, a["dt"])
        if self.tracer is not None:
            judge = self.tracer.wrap("harness.gate")(judge)

        def monitored(*args, **kwargs):
            if self.setup_end is None:
                self.setup_end = perf_counter()
                if self.setup_only:
                    raise SetupDone
            t0 = perf_counter()
            try:
                new = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.times.append(t1 - t0)
            if judge(args, kwargs, new):
                self.passed += 1
            self.gate_s += perf_counter() - t1
            return new
        return monitored


def _energy(problem, state):
    """Total (material + radiation) energy and the net boundary influx rate."""
    dx = problem.mesh.dx
    F = state.F.sum(axis=0)
    total = dx @ problem.material.energy(state.T) + dx @ state.E.sum(axis=0)
    return float(total), float(F[0] - F[-1])


def step_passes(problem, old, new, dt) -> bool:
    if not all(np.all(np.isfinite(a)) for a in (new.T, new.E, new.F, new.psi)):
        return False
    e_old, _ = _energy(problem, old)
    e_new, influx = _energy(problem, new)
    return abs(e_new - e_old - dt * influx) <= ENERGY_TOL * e_new


def read_outputs(out_dir: Path) -> dict:
    """Bytes of every output file, the profile snapshots and the counters."""
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    profiles = {}
    rows = csv.DictReader(io.StringIO(files["profiles.csv"].decode()))
    for row in rows:
        snap = profiles.setdefault(float(row["time_ns"]), ([], []))
        snap[0].append(float(row["T_keV"]))
        snap[1].append(float(row["E_total"]))
    totals = next(csv.DictReader(io.StringIO(files["totals.csv"].decode())))
    return {"files": files,
            "profiles": [[t, T, E] for t, (T, E) in sorted(profiles.items())],
            "counters": [int(totals[k]) for k in ("N_ti", "N_c", "N_lo")]}


def profile_mismatch(final, reference) -> str | None:
    """Compare the final [t, T, E_total] snapshot with a reference one."""
    t, T, E = final
    t_ref, T_ref, E_ref = reference
    if abs(t - t_ref) > 1e-9 or len(T) != len(T_ref):
        return f"final snapshot at t={t} ({len(T)} cells), reference " \
               f"t={t_ref} ({len(T_ref)} cells)"
    for name, got, want in (("T", T, T_ref), ("E_total", E, E_ref)):
        got, want = np.asarray(got), np.asarray(want)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        if not err <= PROFILE_RTOL:
            return f"final {name} profile off by {err:.3e} relative"
    return None


def percentile_ms(times, q) -> float | None:
    """q-th percentile of step times in ms; None unless at least ten samples
    lie beyond it."""
    if len(times) * (1.0 - q / 100.0) < 10.0 - 1e-9:
        return None
    return float(np.percentile(np.asarray(times) * 1e3, q))


def _trace_points(tracer):
    """(owner, attribute, make_wrapper) for every traced function."""
    from trtmg import cli, cycles, grey, grids, loqd, phys, transport
    w = tracer.wrap

    def solve_label(args, kwargs):
        coef = args[0]
        if coef.level == 0:
            return "loqd.solve_fine"
        return "loqd.solve_grey" if coef.sig_E.shape[0] == 1 \
            else "loqd.solve_coarse"

    return [
        (phys, "build_group_opacities", w(
            "phys.opacity",
            lambda a, k: np.size(a[0]) * (np.size(a[2]) - 1) * 16)),
        (phys, "planck_groups", w("phys.planck")),
        (transport, "transport_solve", w("transport.solve")),
        (transport, "sweep_all", w("transport.sweep",
                                   lambda a, k: a[0].size // 2)),
        (transport, "compute_qd_factors", w("transport.closures")),
        (loqd, "build_fine_coefficients", w("loqd.coef_fine")),
        (loqd, "solve_moment_system", w(solve_label,
                                        lambda a, k: a[0].sig_E.shape[0])),
        (loqd, "merge_coefficients", w("loqd.merge")),
        (grey, "form_grey", w("grey.form")),
        (grey, "solve_grey_meb", w("grey.newton")),
        (grey, "frechet_update", w("grey.frechet")),
        (grids.FrequencyGridHierarchy, "restrict", w("grids.restrict")),
        (grids.SpatialMesh, "uniform", w("grids.setup")),
        (grids, "build_fc_frequency_grid", w("grids.setup")),
        (grids, "build_hierarchy", w("grids.setup")),
        (grids, "double_gauss_legendre", w("grids.setup")),
        (cycles, "make_schedule", w("cycles.schedule")),
        (cycles, "initial_state", w("cycles.init")),
        (cycles, "run_simulation", w("cycles.run")),
        (cycles, "run_time_step", w("cycles.step")),
        (cycles, "run_transport_iteration", w("cycles.outer",
                                              lambda a, k: a[3].l_max)),
        (cycles, "run_cycle", w("cycles.cycle")),
        (cli, "parse_config", w("cli.setup")),
        (cli, "fc_problem", w("cli.setup")),
        (cli, "write_config", w("cli.write")),
        (cli, "write_outputs", w("cli.write")),
    ]


class _CountHandler(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, wall: float, floor_events: int,
                  write_bytes: int) -> dict:
    s = tracer.summary()

    def get(label, key):
        return s.get(label, {}).get(key, 0)

    def self_s(*labels):
        return sum(get(lb, "self") for lb in labels)

    outer = tracer.children("cycles.outer", "cycles.cycle")
    solves = ("loqd.solve_fine", "loqd.solve_coarse", "loqd.solve_grey")
    m = {
        "phys.opacity.calls": get("phys.opacity", "calls"),
        "phys.opacity.self_s": self_s("phys.opacity"),
        "phys.opacity.ms_per_call": 1e3 * _ratio(
            get("phys.opacity", "total"), get("phys.opacity", "calls")),
        "phys.opacity.points_per_s": _ratio(
            get("phys.opacity", "work"), get("phys.opacity", "total")),
        "phys.planck.calls": get("phys.planck", "calls"),
        "phys.planck.self_s": self_s("phys.planck"),
        "transport.sweep.calls": get("transport.sweep", "calls"),
        "transport.sweep.self_s": self_s("transport.sweep"),
        "transport.sweep.ms_per_call": 1e3 * _ratio(
            get("transport.sweep", "total"), get("transport.sweep", "calls")),
        "transport.sweep.cell_dirs_per_s": _ratio(
            get("transport.sweep", "work"), get("transport.sweep", "total")),
        "transport.closures.self_s": self_s("transport.closures",
                                            "transport.solve"),
        "loqd.intervals_solved": sum(get(lb, "work") for lb in solves),
        "loqd.merge.calls": get("loqd.merge", "calls"),
        "loqd.merge.self_s": self_s("loqd.merge"),
        "loqd.coef_fine.self_s": self_s("loqd.coef_fine"),
        "grey.form.self_s": self_s("grey.form"),
        "grey.newton.calls": get("grey.newton", "calls"),
        "grey.newton.self_s": self_s("grey.newton"),
        "grey.frechet.self_s": self_s("grey.frechet"),
        "grey.floor_events": floor_events,
        "grids.restrict.calls": get("grids.restrict", "calls"),
        "grids.restrict.self_s": self_s("grids.restrict"),
        "grids.setup_s": self_s("grids.setup"),
        "cycles.steps": get("cycles.step", "calls"),
        "cycles.outer.calls": get("cycles.outer", "calls"),
        "cycles.cycle.calls": get("cycles.cycle", "calls"),
        "cycles.driver.self_s": self_s(*[lb for lb in s
                                         if lb.startswith("cycles.")]),
        "cycles.inner_at_lmax_frac": _ratio(
            sum(1 for l_max, n in outer if n >= l_max), len(outer)),
        "cli.setup.self_s": self_s("cli.setup"),
        "cli.write.self_s": self_s("cli.write"),
        "cli.write.bytes": write_bytes,
        "trace.coverage_frac": _ratio(
            sum(v["self"] for lb, v in s.items()
                if not lb.startswith("harness.")), wall),
    }
    for lb in solves:
        m[lb + ".calls"] = get(lb, "calls")
        m[lb + ".self_s"] = self_s(lb)
    return m


class Bench:
    """One benchmark run of one configuration; out_dir is scratch space."""

    def __init__(self, config: dict, out_dir: Path, reference=None):
        from trtmg import cli, cycles
        self.cli, self.cycles = cli, cycles
        self.n_steps = int(round(config["tend"] / config["dt"]))
        self.out = out_dir / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.cfg_path = out_dir / "config.in"
        write_config_file(config, self.cfg_path, self.out)
        self.reference = reference
        self.monitor = StepMonitor()
        self.problems = []
        self.outputs = None       # outputs of the first successful rep
        self.attempted = self.failed = self.reps = self.setup_passes = 0

    def _main(self, traced=None, setup_only=False):
        """One call of cli.main; returns its wall seconds less the step
        gate's, its exit code and the seconds until the first time step
        started."""
        self.monitor.reset(setup_only, traced)
        for p in self.out.iterdir():
            p.unlink()
        with ExitStack() as stack:
            if traced is not None:
                for owner, attr, make in _trace_points(traced):
                    stack.enter_context(tr.replaced(owner, attr, make))
            stack.enter_context(
                tr.replaced(self.cycles, "run_time_step", self.monitor.make))
            t0 = perf_counter()
            try:
                with redirect_stdout(io.StringIO()):
                    code = self.cli.main(["--config", str(self.cfg_path)])
            except SetupDone:
                code = None
            except Exception:  # a failing solver is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                code = -1
            wall = perf_counter() - t0
        if self.monitor.setup_end is None:
            raise RuntimeError(f"{self.cfg_path}: the run never reached its "
                               f"first time step (exit code {code})")
        return (wall - self.monitor.gate_s, code,
                self.monitor.setup_end - t0)

    def setup_pass(self) -> float:
        self.setup_passes += 1
        return self._main(setup_only=True)[2]

    def rep(self, traced=None) -> float:
        """One full run; counts its steps and checks its outputs."""
        wall, code, _ = self._main(traced)
        self.reps += 1
        self.attempted += self.n_steps
        self.failed += self.n_steps - self.monitor.passed
        if code != 0:
            self.problems.append(f"cli.main exited with {code}")
            return wall
        missing = {"profiles.csv", "totals.csv"} - {
            p.name for p in self.out.iterdir()}
        if missing:
            self.problems.append(f"no {', '.join(sorted(missing))} written")
            return wall
        out = read_outputs(self.out)
        if self.outputs is None:
            self.outputs = out
            if self.reference is not None:
                bad = profile_mismatch(out["profiles"][-1],
                                       self.reference["final"])
                if bad:
                    self.problems.append(bad)
        elif out["files"] != self.outputs["files"]:
            self.problems.append("outputs differ between repetitions"
                                 + (" (traced vs untraced)" if traced else ""))
        return wall

    def _result(self, kind: str, metrics: dict) -> dict:
        return {"correct": not self.problems and self.outputs is not None,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": metrics[k], "unit": unit}
                            for k, unit in METRICS[kind].items()
                            if k in metrics}}

    def end_to_end(self, seconds: float) -> dict:
        """Rounds of SETUP_PASSES set-up passes and one untraced rep, until
        `seconds` have passed and at least P90_MIN_SAMPLES steps ran (or a
        step failed).  The machine's speed drifts within seconds here, so
        set-up is sampled across the whole run, not once at its start."""
        start = perf_counter()
        setups, walls, steps = [], [], []
        while True:
            setups += [self.setup_pass() for _ in range(SETUP_PASSES)]
            walls.append(self.rep())
            steps += self.monitor.times
            enough = len(steps) >= P90_MIN_SAMPLES or self.failed
            if enough and perf_counter() - start + walls[-1] > seconds:
                break
        m = {"wall_s": statistics.median(walls),
             "setup_s": statistics.median(setups),
             "step_p50_ms": percentile_ms(steps, 50),
             "step_p90_ms": percentile_ms(steps, 90),
             "peak_rss_mb":
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if self.outputs is not None:
            m.update(zip(("N_ti", "N_c", "N_lo"), self.outputs["counters"]))
        return self._result("end_to_end",
                            {k: v for k, v in m.items() if v is not None})

    def traced(self, seconds: float) -> dict:
        """Pairs of (untraced, traced) reps until `seconds` have passed; the
        traced counters must re-derive N_ti, N_c and N_lo exactly."""
        start = perf_counter()
        plain, traced, layers = [], [], []
        while True:
            plain.append(self.rep())
            tracer = tr.Tracer()
            handler = _CountHandler()
            log = logging.getLogger("trtmg.grey")
            log.addHandler(handler)
            try:
                wall = self.rep(tracer)
            finally:
                log.removeHandler(handler)
            traced.append(wall)
            m = layer_metrics(tracer, wall, handler.count,
                              sum(p.stat().st_size for p in self.out.iterdir()))
            layers.append(m)
            self._cross_check(m)
            if perf_counter() - start + plain[-1] + wall > seconds:
                break
        out = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        out["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
        out["step_fail_frac"] = _ratio(self.failed, self.attempted)
        return self._result("per_layer", out)

    def _cross_check(self, m: dict):
        if self.outputs is None:
            return
        for name, key, want in zip(
                ("transport.sweep.calls", "cycles.cycle.calls",
                 "loqd.intervals_solved"),
                ("N_ti", "N_c", "N_lo"), self.outputs["counters"]):
            if m[name] != want:
                self.problems.append(f"traced {name}={m[name]} but the run "
                                     f"reports {key}={want}")
