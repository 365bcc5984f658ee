"""Time stepping, outer transport iterations, and multigrid inner cycles.

One time step runs transport (outer) iterations; each begins with a sweep
at the latest temperature (skipped on the very first pass, which reuses the
previous step's closures) and then drives the temperature with inner cycles
of low-order solves.  A cycle always solves the full multigroup system on
the fine grid, evaluates temperature through the grey problem, and then
walks the scheduled coarse grids, re-evaluating spectral coefficients at
each fresh temperature but weighing them with this cycle's fine solution.

Iteration accounting, counted here where each solve is called: a
"low-order solve" is one single-interval moment solve on any grid (the grey
solve counts one), so a cycle with K scheduled coarse visits costs
n_fine + sum of coarse group counts + (K + 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grey, loqd, phys, transport
from .grids import AngularQuadrature, FrequencyGridHierarchy, SpatialMesh
from .phys import C_LIGHT, ConvergenceError, MaterialModel


@dataclass(frozen=True)
class CycleSchedule:
    """Grid-visit plan for inner cycles.

    counts: groups per grid, finest first, ending in 1 (the grey grid).
    visits: 1-based grid numbers solved after each grey temperature update,
    in visit order (V, W and F visit each intermediate grid once, coarsest
    first).
    """
    kind: str
    counts: tuple
    visits: tuple
    l_max: int

    @property
    def n_grids(self) -> int:
        return len(self.counts)


def make_schedule(kind: str, counts, l_max: int, visits=()) -> CycleSchedule:
    counts = tuple(int(n) for n in counts)
    visits = tuple(int(g) for g in visits)
    kind = kind.upper() if kind.upper() in ("V", "W", "F") else kind.lower()
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    n = len(counts)
    if kind in ("V", "W", "F"):
        if visits:
            raise ValueError(f"{kind} cycle takes no explicit visit list")
        if not {"V": n == 2, "W": n == 3, "F": n >= 3}[kind]:
            raise ValueError(f"{kind} cycle cannot use {n} grids: V uses "
                             "two, W three, F three or more")
        # every intermediate grid once, coarsest first
        visits = tuple(range(n - 1, 1, -1))
    elif kind == "custom":
        if not visits:
            raise ValueError("custom schedule requires an explicit visit list")
        for g in visits:
            if not 1 < g < n:
                raise ValueError(
                    f"visit {g} outside intermediate grid range 2..{n - 1}")
    else:
        raise ValueError(f"unknown cycle kind {kind!r}")
    return CycleSchedule(kind=kind, counts=counts, visits=visits, l_max=l_max)


@dataclass(frozen=True)
class ConvergenceCriteria:
    eps: float = 1e-6        # outer (transport) relative tolerance
    eps_tilde: float = 1e-7  # inner (cycle) relative tolerance
    max_outer: int = 200

    def __post_init__(self):
        if not 0.0 < self.eps_tilde <= self.eps < 1.0:
            raise ValueError("need 0 < eps_tilde <= eps < 1")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")


@dataclass(frozen=True)
class StepRecord:
    step: int
    t: float
    m_ti: int
    m_c: int
    m_lo: int


class FailedStepRecord(StepRecord):
    """The record of a step that raised and committed nothing."""


@dataclass(frozen=True)
class ConvRecord:
    step: int
    s: int       # transport iteration
    cycle: int   # inner cycle index, 0 for the outer-iteration change
    dT: float    # max-norm temperature change


@dataclass
class IterationStats:
    """The run's record: one StepRecord per attempted step (a failed one
    marked so) and one ConvRecord per inner cycle and per outer iteration."""
    steps: list = field(default_factory=list)
    conv: list = field(default_factory=list)
    n_ti = property(lambda self: sum(r.m_ti for r in self.steps))
    n_c = property(lambda self: sum(r.m_c for r in self.steps))
    n_lo = property(lambda self: sum(r.m_lo for r in self.steps))


@dataclass(frozen=True)
class Problem:
    """Static problem definition: geometry, material, spectral opacity,
    quadrature, grid hierarchy, and boundary/initial data."""
    mesh: SpatialMesh
    quad: AngularQuadrature
    hierarchy: FrequencyGridHierarchy
    material: MaterialModel
    sigma: object              # callable (nu, T) -> opacity
    # the inflows hold the entering half range only, directions before
    # groups like a psi corner block, with n = quad.n_neg
    inc_left: np.ndarray       # (M - n, G) at x=0, the mu>0 directions
    inc_right: np.ndarray      # (n, G) at x=X, the mu<0 directions
    T_init: float = phys.T_FLOOR

    def __post_init__(self):
        if not 0.0 < self.T_init < np.inf:
            raise ValueError(
                f"T_init must be positive and finite, got {self.T_init}")
        n, G = self.quad.n_neg, self.hierarchy.counts[0]
        for name, m in (("inc_left", self.quad.n_dirs - n), ("inc_right", n)):
            inc = getattr(self, name)
            if np.shape(inc) != (m, G):
                raise ValueError(f"{name} must be (entering directions, "
                                 f"groups) = {(m, G)}, got {np.shape(inc)}")
            for k, g in np.argwhere(~((inc >= 0.0) & (inc < np.inf)))[:1]:
                raise ValueError(f"{name} is {inc[k, g]} in entering "
                                 f"direction {k}, group {g}: an inflow must "
                                 f"be finite and nonnegative")


@dataclass
class SimulationState:
    T: np.ndarray            # (n_x,)
    T_r: np.ndarray          # (n_x,) radiation temperature for opacity weights
    psi: np.ndarray          # (n_x, 2, M, G) corner intensities
    E: np.ndarray            # (G, n_x) committed fine moments
    F: np.ndarray            # (G, n_x+1)
    closures: transport.ClosureData


def initial_state(problem: Problem) -> SimulationState:
    """Isotropic Planckian field at the initial temperature, zero flux."""
    nx = problem.mesh.n_cells
    hier = problem.hierarchy
    G = hier.counts[0]
    M = problem.quad.n_dirs
    T0 = np.full(nx, float(problem.T_init))
    # the start temperature is one scalar, so its emission is formed once
    B0 = np.broadcast_to(phys.planck_groups(T0[:1], hier.rule, hier.edges),
                         (nx, G))
    psi = np.empty((nx, 2, M, G))
    psi[:] = (0.5 * B0)[:, None, None, :]
    E = np.ascontiguousarray(2.0 * B0.T / C_LIGHT)  # (G, nx) like every E
    F = np.zeros((G, nx + 1))
    return SimulationState(
        T=T0, T_r=phys.radiation_temperature(E.sum(axis=0)), psi=psi, E=E,
        F=F, closures=transport.ClosureData.isotropic(
            nx, problem.inc_left, problem.inc_right, problem.quad))


@dataclass
class _StepWork:
    """Scratch shared by the stages of one time step, and its own record."""
    step: int
    T: np.ndarray
    T_r: np.ndarray
    psi: np.ndarray
    closures: transport.ClosureData
    E_mon: np.ndarray  # spectrum total of fine_sol; before one, of state.E
    grey_E_prev: np.ndarray
    grey_F_prev: np.ndarray
    fine_sol: loqd.MomentField = None
    # moments of the latest grey Newton solve, which produced work.T
    grey_sol: loqd.MomentField = None
    # the latest grey Newton stage (see grey.solve_grey_meb); starts empty
    # each time step and persists across the step's transport iterations
    stage: tuple = None
    # opacity weights of T_r, built on first use and kept until T_r changes
    rad: phys.RadiationWeights = None
    m_ti: int = 0
    m_c: int = 0
    m_lo: int = 0
    conv: list = field(default_factory=list)


def _opacities(problem: Problem, work: _StepWork, T) -> phys.GroupOpacitySet:
    """Group opacities at cell temperatures T and the current work.T_r."""
    if work.rad is None:
        work.rad = phys.radiation_weights(work.T_r, problem.hierarchy.rule)
    return phys.build_group_opacities(T, work.rad, problem.hierarchy.edges,
                                      problem.sigma)


def _dinf(new, old) -> float:
    return float(np.max(np.abs(np.asarray(new) - np.asarray(old))))


def _rel(change: float, new) -> float:
    scale = float(np.max(np.abs(new)))
    if scale == 0.0:
        return 0.0 if change == 0.0 else np.inf
    return change / scale


def _match_sum(parts, total):
    """Spread the defect total - sum(parts) over axis 0 with weights |parts|
    (uniform where every part is zero), so the result sums to total."""
    mag = np.abs(parts)
    norm = mag.sum(axis=0)
    some = norm > 0.0
    w = np.where(some, mag / np.where(some, norm, 1.0), 1.0 / parts.shape[0])
    return parts + w * (total - parts.sum(axis=0))


def _grey_stage(problem: Problem, prev: SimulationState, coef_src, sol_src,
                T_stage, dt, work):
    """Grey Newton update from one level's solution; advances the stage
    history in work.stage and returns the new temperature."""
    coef = grey.form_grey(sol_src, coef_src, problem.hierarchy.n_levels - 1)
    T_new, work.grey_sol, work.stage = grey.solve_grey_meb(
        coef, sol_src.E.sum(axis=0), work.stage, prev.T, work.grey_E_prev,
        work.grey_F_prev, T_stage, dt, problem.material, problem.mesh)
    work.m_lo += 1
    return T_new


def run_cycle(problem: Problem, prev: SimulationState, T_tilde, work: _StepWork,
              schedule: CycleSchedule, dt: float, opac: phys.GroupOpacitySet):
    """One inner cycle: fine-grid spectrum, grey temperature update, then the
    scheduled coarse grids (each followed by a grey update).  opac holds the
    opacities at (T_tilde, work.T_r).  Sets work.E_mon to the fine spectrum
    total and returns the new temperature iterate."""
    hier = problem.hierarchy
    mesh = problem.mesh

    coef1 = loqd.build_fine_coefficients(opac, work.closures, mesh)
    sol1 = loqd.solve_moment_system(coef1, prev.E, prev.F, dt, mesh)
    work.m_lo += coef1.n_intervals
    work.fine_sol = sol1
    work.E_mon = sol1.E.sum(axis=0)
    work.T_r = phys.radiation_temperature(work.E_mon)
    work.rad = None  # the weights of the old T_r

    T_cur = _grey_stage(problem, prev, coef1, sol1, T_tilde, dt, work)
    for gnum in schedule.visits:
        level = gnum - 1
        # spectral coefficients refresh at the newest temperature, weighted
        # with this cycle's fine solution
        opk = _opacities(problem, work, T_cur)
        c1k = loqd.build_fine_coefficients(opk, work.closures, mesh)
        coefk = loqd.merge_coefficients(c1k, sol1, hier.starts_fine[level],
                                        level)
        E_pk = hier.restrict(prev.E, level)
        F_pk = hier.restrict(prev.F, level)
        solk = loqd.solve_moment_system(coefk, E_pk, F_pk, dt, mesh)
        work.m_lo += coefk.n_intervals
        T_cur = _grey_stage(problem, prev, coefk, solk, T_cur, dt, work)
    work.m_c += 1
    return T_cur


def run_transport_iteration(problem: Problem, prev: SimulationState,
                            work: _StepWork, schedule: CycleSchedule,
                            criteria: ConvergenceCriteria, s: int, dt: float):
    """One outer iteration of work's step: sweep (for s > 0) then inner
    cycles to tolerance or l_max; returns its relative changes (dT, dE)."""
    T_entry = T_tilde = work.T
    E_entry = work.E_mon
    for ell in range(1, schedule.l_max + 1):
        E_old = work.E_mon
        opac = _opacities(problem, work, T_tilde)
        if ell == 1 and s > 0:
            # the sweep shares the first cycle's opacities.  The weights of
            # the old T_r, which that cycle's fine solve replaces, go first
            # so that the sweep's working set does not stack on them.  The
            # step's first sweep writes a new psi, each later one over the
            # step's spent psi: the committed prev.psi is never written
            work.rad = None
            work.psi, work.closures = transport.transport_solve(
                prev.psi, problem.inc_left, problem.inc_right, opac,
                problem.mesh, problem.quad, dt,
                out=None if work.psi is prev.psi else work.psi)
            work.m_ti += 1
        T_new = run_cycle(problem, prev, T_tilde, work, schedule, dt, opac)
        dT = _dinf(T_new, T_tilde)
        dE = _dinf(work.E_mon, E_old)
        rT, rE = _rel(dT, T_new), _rel(dE, work.E_mon)
        work.conv.append(ConvRecord(work.step, s, ell, dT))
        T_tilde = T_new
        if rT <= criteria.eps_tilde and rE <= criteria.eps_tilde:
            break
    work.T = T_tilde
    dT_out = _dinf(T_tilde, T_entry)
    dE_out = _dinf(work.E_mon, E_entry)
    work.conv.append(ConvRecord(work.step, s, 0, dT_out))
    return _rel(dT_out, T_tilde), _rel(dE_out, work.E_mon)


def run_time_step(problem: Problem, state: SimulationState,
                  schedule: CycleSchedule, criteria: ConvergenceCriteria,
                  dt: float, stats: IterationStats = None) -> SimulationState:
    """Advance one time step, the step after the last one stats records, and
    return the committed new state; stats records the step, failed or not.

    At least one sweep always happens (convergence is only tested from
    s >= 1).  The committed temperature is the last grey Newton iterate, and
    the committed fine moments are the last fine solution projected so that
    their group sums equal that grey solve's E and F.  The grey solve's net
    absorption c sigma_eff E - S_eff equals (c_v/dt)(T_new - T_n) exactly, so
    its balance plus the material balance is the discrete budget of the
    committed state, which therefore closes to round-off (unless the
    temperature floor acted).  Taking T from the implicit grey solve keeps
    it a fixed point of the step: re-evaluating the stiff emission at an
    older iterate would amplify any temperature error.  A ConvergenceError
    inside a transport iteration is raised again naming the step and s.
    """
    if schedule.counts != problem.hierarchy.counts:
        raise ValueError(f"schedule grids {schedule.counts} differ from "
                         f"the problem's {problem.hierarchy.counts}")
    if stats is None:
        stats = IterationStats()
    step = len(stats.steps) + 1
    grey_E_prev = state.E.sum(axis=0, keepdims=True)
    work = _StepWork(
        step=step, T=state.T, T_r=state.T_r, psi=state.psi,
        closures=state.closures, E_mon=grey_E_prev[0], grey_E_prev=grey_E_prev,
        grey_F_prev=state.F.sum(axis=0, keepdims=True))

    record = FailedStepRecord  # until the outer iterations converge
    try:
        for s in range(criteria.max_outer + 1):
            try:
                rT, rE = run_transport_iteration(problem, state, work,
                                                 schedule, criteria, s, dt)
            except ConvergenceError as e:
                raise ConvergenceError(f"step {step}: transport iteration "
                                       f"s={s} failed: {e}") from e
            if not (np.isfinite(rT) and np.isfinite(rE)):
                raise ConvergenceError(
                    f"step {step}: non-finite outer change at transport "
                    f"iteration s={s} (dT={rT:.3e}, dE={rE:.3e})")
            if s >= 1 and rT <= criteria.eps and rE <= criteria.eps:
                break
        else:
            raise ConvergenceError(
                f"step {step}: outer iterations hit the cap "
                f"{criteria.max_outer} (dT={rT:.3e}, dE={rE:.3e})")
        record = StepRecord
    finally:
        stats.steps.append(record(step, step * dt, work.m_ti, work.m_c,
                                  work.m_lo))
        stats.conv.extend(work.conv)
    # commit: T from the last grey Newton step, fine moments whose group
    # sums are that step's grey moments, so the energy budget is exact
    grey_sol = work.grey_sol
    return SimulationState(
        T=work.T, T_r=work.T_r, psi=work.psi,
        E=_match_sum(work.fine_sol.E, grey_sol.E[0]),
        F=_match_sum(work.fine_sol.F, grey_sol.F[0]),
        closures=work.closures)


@dataclass
class SimulationResult:
    snapshots: list          # (t, T, E_total) tuples
    stats: IterationStats
    state: SimulationState
    schedule: CycleSchedule


def step_count(t_end: float, dt: float) -> int:
    """Number of fixed steps of size dt that reach t_end; ValueError unless
    dt is positive and t_end a positive multiple of it."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    ratio = t_end / dt
    if not np.isfinite(ratio):
        raise ValueError(f"t_end={t_end} is not a finite multiple of dt={dt}")
    n_steps = int(round(ratio))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(t_end, dt):
        raise ValueError(f"t_end={t_end} is not a positive multiple of dt={dt}")
    return n_steps


def run_simulation(problem: Problem, schedule: CycleSchedule,
                   criteria: ConvergenceCriteria, dt: float, n_steps: int,
                   snapshot_times: tuple = ()) -> SimulationResult:
    """n_steps fixed steps of size dt (see step_count), recording each
    step's iteration counts and every iteration's temperature change in
    stats, and field snapshots at t = j dt, j = 0 (no step taken) to
    n_steps, for each j with a requested time strictly within half a step
    of t."""
    state = initial_state(problem)
    stats = IterationStats()
    snapshots = []
    for j in range(n_steps + 1):
        t = j * dt  # not a running sum, which would drift
        if j:  # step j: stats records the j - 1 before it
            state = run_time_step(problem, state, schedule, criteria, dt,
                                  stats)
        if any(abs(ts - t) < 0.5 * dt * (1.0 - 1e-9) for ts in snapshot_times):
            snapshots.append((t, state.T, state.E.sum(axis=0)))
    return SimulationResult(snapshots=snapshots, stats=stats, state=state,
                            schedule=schedule)
