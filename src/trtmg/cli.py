"""Command-line driver: run configuration, the slab benchmark factory, and
CSV emission of profiles, per-step stats, run totals, and convergence
histories.

Config files use one `key = value` pair per line with # comments; list
values are comma separated.  Command-line flags override file values.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import phys
from .cycles import (ConvergenceCriteria, ConvergenceError, Problem,
                     ScheduleError, SimulationResult, make_schedule,
                     run_simulation, step_count)
from .grids import (GridError, SpatialMesh, build_fc_frequency_grid,
                    build_hierarchy, double_gauss_legendre)
from .phys import A_RAD, FleckCummingsOpacity, MaterialModel


class ConfigError(ValueError):
    pass


DEFAULT_SNAPSHOTS = (0.2, 0.4, 0.6, 1.0, 2.0, 3.0)


@dataclass(frozen=True)
class RunConfig:
    grids: tuple = (256, 1)      # group counts, fine grid first
    cycle: str = "V"
    visits: tuple = ()           # custom schedules only
    lmax: int = 4
    cells: int = 10
    length: float = 4.0
    quad: int = 8                # directions per half range
    dt: float = 2e-2
    tend: float = 3.0
    eps: float = ConvergenceCriteria.eps
    eps_tilde: float = ConvergenceCriteria.eps_tilde
    max_outer: int = ConvergenceCriteria.max_outer
    out: str = "out"
    snapshots: tuple = DEFAULT_SNAPSHOTS

    @property
    def grid_counts(self) -> tuple:
        # perfbench/test_perfbench.py reads this name
        return self.grids


def _parse_int_list(s):
    s = s.strip()
    return tuple(int(x) for x in s.split(",")) if s else ()


def _parse_float_list(s):
    s = s.strip()
    return tuple(float(x) for x in s.split(",")) if s else ()


_PARSERS = {
    "grids": _parse_int_list, "cycle": str, "visits": _parse_int_list,
    "lmax": int, "cells": int, "length": float, "quad": int,
    "dt": float, "tend": float, "eps": float,
    "eps_tilde": float, "max_outer": int,
    "out": str, "snapshots": _parse_float_list,
}


def _read_config_file(path) -> dict:
    raw, seen = {}, {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on "
                              f"line {seen[key]}")
        seen[key] = lineno
        raw[key] = value.strip()
    return raw


def parse_config(path=None, overrides=None) -> RunConfig:
    """Assemble the effective configuration from defaults, an optional file,
    and flag overrides (strings, as received); validates everything that can
    fail before a solve starts."""
    raw = {}
    if path is not None:
        raw.update(_read_config_file(path))
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    values = {}
    for key, text in raw.items():
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            values[key] = parser(str(text))
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {e}") from e

    cfg = RunConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if not cfg.grids or cfg.grids[0] < 3:
        raise ConfigError("grids: the fine grid needs at least 3 groups")
    for key, val in (("cells", cfg.cells), ("quad", cfg.quad),
                     ("lmax", cfg.lmax)):
        if val < 1:
            raise ConfigError(f"{key} must be >= 1, got {val}")
    for key, val in (("length", cfg.length), ("dt", cfg.dt),
                     ("tend", cfg.tend)):
        if not 0 < val < np.inf:
            raise ConfigError(f"{key} must be positive and finite, got {val}")
    try:
        make_schedule(cfg.cycle, cfg.grids, cfg.lmax, cfg.visits or None)
        ConvergenceCriteria(cfg.eps, cfg.eps_tilde, cfg.max_outer)
        step_count(cfg.tend, cfg.dt)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(_format_value(x) for x in v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_config(cfg: RunConfig, path):
    """Emit the effective configuration in the same key = value format that
    parse_config reads; parse(write(cfg)) reproduces cfg exactly."""
    lines = ["# effective run configuration"]
    for f in fields(RunConfig):
        lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    Path(path).write_text("\n".join(lines) + "\n")


def fc_problem(config: RunConfig) -> Problem:
    """Slab benchmark: 1 keV black-body drive on the left of a cold
    (10^-3 keV) slab with sigma = 27(1 - e^(-nu/T))/nu^3 and c_v tied to the
    drive temperature; right boundary vacuum."""
    fine = build_fc_frequency_grid(config.grids[0])
    hier = build_hierarchy(fine, config.grids)
    mesh = SpatialMesh.uniform(config.cells, config.length)
    quad = double_gauss_legendre(config.quad)
    T_b, T_0 = 1.0, 1e-3
    material = MaterialModel(c_v=0.5917 * A_RAD * T_b**3)

    B_b = phys.planck_groups(np.array([T_b]), fine.edges)[0]  # (G,)
    G, M = fine.n_groups, quad.n_dirs
    inc_left = np.zeros((G, M))
    inc_left[:, quad.positive] = 0.5 * B_b[:, None]
    return Problem(mesh=mesh, quad=quad, hierarchy=hier, material=material,
                   sigma=FleckCummingsOpacity(), inc_left=inc_left,
                   inc_right=np.zeros((G, M)), T_init=T_0)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_outputs(result: SimulationResult, out_dir, x=None) -> list:
    """profiles.csv (per snapshot, per cell), stats.csv (per step),
    totals.csv (one row), conv_hist.csv (per recorded iteration).
    x gives cell-center coordinates for profiles.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    if result.snapshots:
        if x is None:
            raise ValueError("cell coordinates required to write profiles")
        p = out / "profiles.csv"
        with p.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time_ns", "x_cm", "T_keV", "E_total"])
            for t, T, E in result.snapshots:
                for i in range(len(T)):
                    w.writerow([_fmt(t), _fmt(x[i]), _fmt(T[i]), _fmt(E[i])])
        written.append(p)

    p = out / "stats.csv"
    with p.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "t_ns", "M_ti", "M_c", "M_lo"])
        for rec in result.steps:
            w.writerow([rec.step, _fmt(rec.t), rec.m_ti, rec.m_c, rec.m_lo])
    written.append(p)

    p = out / "totals.csv"
    sched = result.schedule
    with p.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cycle", "n_grids", "grids", "l_max",
                    "N_ti", "N_c", "N_lo"])
        w.writerow([sched.kind, sched.n_grids,
                    ";".join(str(n) for n in sched.counts), sched.l_max,
                    result.stats.n_ti, result.stats.n_c, result.stats.n_lo])
    written.append(p)

    p = out / "conv_hist.csv"
    with p.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "s", "l", "dT_inf"])
        for rec in result.conv:
            w.writerow([rec.step, rec.s, rec.cycle, _fmt(rec.dT)])
    written.append(p)
    return written


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="trtmg",
        description="1D multigroup thermal radiative transfer with "
                    "multigrid-in-frequency low-order acceleration")
    ap.add_argument("--config", help="key = value configuration file")
    ap.add_argument("--cycle", help="V, W, F, or custom")
    ap.add_argument("--grids", help="comma list of group counts, e.g. 256,32,1")
    ap.add_argument("--lmax", help="max inner cycles per transport iteration")
    ap.add_argument("--dt", help="time step, ns")
    ap.add_argument("--tend", help="final time, ns")
    ap.add_argument("--cells", help="spatial cells")
    ap.add_argument("--out", help="output directory")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:  # usage printed: 0 after --help, 2 on a bad flag
        return e.code

    overrides = vars(args)
    try:
        cfg = parse_config(overrides.pop("config"), overrides)
        problem = fc_problem(cfg)
        schedule = make_schedule(cfg.cycle, cfg.grids, cfg.lmax,
                                 cfg.visits or None)
        criteria = ConvergenceCriteria(cfg.eps, cfg.eps_tilde, cfg.max_outer)
        result = run_simulation(problem, schedule, criteria, cfg.dt, cfg.tend,
                                cfg.snapshots)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        write_config(cfg, out / "config.txt")
        write_outputs(result, out, x=problem.mesh.centers)
        s = result.stats
        print(f"{schedule.kind} cycle on {';'.join(map(str, schedule.counts))}"
              f" l_max={schedule.l_max}: N_ti={s.n_ti} N_c={s.n_c}"
              f" N_lo={s.n_lo}")
        return 0
    except (ConfigError, GridError, ScheduleError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except ConvergenceError as e:
        print(f"convergence failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
