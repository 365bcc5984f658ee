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
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import phys
from .cycles import (ConvergenceCriteria, Problem, SimulationResult,
                     make_schedule, run_simulation, step_count)
from .grids import (SpatialMesh, build_fc_frequency_grid, build_hierarchy,
                    double_gauss_legendre)
from .phys import A_RAD, ConvergenceError, FleckCummingsOpacity, MaterialModel


DEFAULT_SNAPSHOTS = (0.2, 0.4, 0.6, 1.0, 2.0, 3.0)


@dataclass(frozen=True)
class RunConfig:
    """The run's keys; each annotation is the type its value parses to."""
    grids: tuple[int, ...] = (256, 1)   # group counts, fine grid first
    cycle: str = "V"
    visits: tuple[int, ...] = ()        # custom schedules only
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
    snapshots: tuple[float, ...] = DEFAULT_SNAPSHOTS

    @property
    def grid_counts(self) -> tuple:
        # perfbench/test_perfbench.py reads this name
        return self.grids


def _parser(kind):
    """Parser of a value of type kind; tuple[item, ...] takes a
    comma-separated list of item values, and empty text gives ()."""
    if get_origin(kind) is not tuple:
        return kind
    item = get_args(kind)[0]
    return lambda s: (tuple(map(item, s.strip().split(",")))
                      if s.strip() else ())


_PARSERS = {key: _parser(kind)
            for key, kind in get_type_hints(RunConfig).items()}


def _read_config_file(path) -> dict:
    raw, seen = {}, {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ValueError(f"cannot read config file {path}: {e}") from e
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ValueError(f"{path}:{lineno}: key {key!r} already set on "
                             f"line {seen[key]}")
        seen[key] = lineno
        raw[key] = value.strip()
    return raw


def parse_config(path=None, overrides=None) -> RunConfig:
    """Assemble the effective configuration from defaults, an optional file,
    and flag overrides (strings, as received).  Only parses: a key must be
    known and its value must convert to the key's type; each value is
    checked by the object main builds from it."""
    raw = {}
    if path is not None:
        raw.update(_read_config_file(path))
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    values = {}
    for key, text in raw.items():
        parser = _PARSERS.get(key)
        if parser is None:
            raise ValueError(f"unknown configuration key {key!r}")
        try:
            values[key] = parser(str(text))
        except ValueError as e:
            raise ValueError(f"bad value for {key!r}: {e}") from e
    return RunConfig(**values)


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
    hier = build_hierarchy(build_fc_frequency_grid(config.grids[0]),
                           config.grids)
    mesh = SpatialMesh.uniform(config.cells, config.length)
    quad = double_gauss_legendre(config.quad)
    T_b, T_0 = 1.0, 1e-3
    material = MaterialModel(c_v=0.5917 * A_RAD * T_b**3)

    B_b = phys.planck_groups(np.array([T_b]), hier.rule, hier.edges)[0]
    n = quad.n_neg
    return Problem(mesh=mesh, quad=quad, hierarchy=hier, material=material,
                   sigma=FleckCummingsOpacity(),
                   inc_left=np.tile(0.5 * B_b, (quad.n_dirs - n, 1)),
                   inc_right=np.zeros((n, B_b.size)), T_init=T_0)


def _write_csv(path, header, rows):
    """The header, then the rows, every value written by _format_value."""
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_format_value(v) for v in row] for row in rows)


def _totals_row(result: SimulationResult) -> tuple:
    """cycle, n_grids, grids (counts joined by ;), l_max, N_ti, N_c, N_lo."""
    sched, s = result.schedule, result.stats
    return (sched.kind, sched.n_grids, ";".join(map(str, sched.counts)),
            sched.l_max, s.n_ti, s.n_c, s.n_lo)


def write_outputs(result: SimulationResult, out_dir, x):
    """profiles.csv (per snapshot, per cell at the cell centers x; only the
    header without snapshots), stats.csv (per step), totals.csv (one row),
    conv_hist.csv (per recorded iteration)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "profiles.csv", ("time_ns", "x_cm", "T_keV", "E_total"),
               ((t, *cell) for t, T, E in result.snapshots
                for cell in zip(x, T, E)))
    _write_csv(out / "stats.csv", ("step", "t_ns", "M_ti", "M_c", "M_lo"),
               ((r.step, r.t, r.m_ti, r.m_c, r.m_lo)
                for r in result.stats.steps))
    _write_csv(out / "totals.csv", ("cycle", "n_grids", "grids", "l_max",
                                    "N_ti", "N_c", "N_lo"),
               [_totals_row(result)])
    _write_csv(out / "conv_hist.csv", ("step", "s", "l", "dT_inf"),
               ((r.step, r.s, r.cycle, r.dT) for r in result.stats.conv))


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
    try:  # every run object, each checking its own inputs, before any solve
        cfg = parse_config(overrides.pop("config"), overrides)
        schedule = make_schedule(cfg.cycle, cfg.grids, cfg.lmax, cfg.visits)
        criteria = ConvergenceCriteria(cfg.eps, cfg.eps_tilde, cfg.max_outer)
        n_steps = step_count(cfg.tend, cfg.dt)
        problem = fc_problem(cfg)
    except ValueError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    try:
        result = run_simulation(problem, schedule, criteria, cfg.dt, n_steps,
                                cfg.snapshots)
        write_outputs(result, cfg.out, problem.mesh.centers)
        write_config(cfg, Path(cfg.out) / "config.txt")
    except ConvergenceError as e:
        print(f"convergence failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
    kind, _, grids, l_max, n_ti, n_c, n_lo = _totals_row(result)
    print(f"{kind} cycle on {grids} l_max={l_max}: N_ti={n_ti} N_c={n_c}"
          f" N_lo={n_lo}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
