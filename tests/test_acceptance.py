"""End-to-end checks of the benchmark solver at full scale.

Eight checks, one per test (the last split by cycle), each printing a
single PASS/FAIL line (visible with pytest -s or -rA): exact low-order
accounting, benchmark iteration totals, physics fixed points, cross-grid
consistency oracles, per-step energy conservation, the shape of
outer-iteration convergence, the heat-wave profile, and iteration counts
that do not grow with the group count.  The four full 256-group runs
execute once as shared module fixtures; the whole module takes under a
minute (37 s on a 2-core host).
"""

from contextlib import contextmanager

import numpy as np
import pytest
from oracles import (conservation_check, dense_oracle, per_cycle_cost,
                     random_coefficients, residual_norms)
from problems import energy_balance, equilibrium_problem

from trtmg import grey, loqd, phys
from trtmg.cli import RunConfig, fc_problem
from trtmg.cycles import (ConvergenceCriteria, initial_state, make_schedule,
                          run_simulation, step_count)
from trtmg.grids import build_fc_frequency_grid


@contextmanager
def _criterion(tag):
    try:
        yield
    except Exception:
        print(f"[{tag}] FAIL")
        raise
    print(f"[{tag}] PASS")


def _run_fc(kind, counts, lmax, dt, t_end, snapshots=()):
    prob = fc_problem(RunConfig(grids=counts))
    sched = make_schedule(kind, counts, lmax)
    return run_simulation(prob, sched, ConvergenceCriteria(), dt,
                          step_count(t_end, dt), snapshot_times=snapshots)


@pytest.fixture(scope="module")
def full_v2():
    """256 groups, two grids, l_max=4, dt=0.02 ns, 150 steps."""
    return _run_fc("V", (256, 1), 4, 2e-2, 3.0, snapshots=(3.0,))


@pytest.fixture(scope="module")
def full_v4():
    """256 groups, two grids, l_max=6, dt=0.04 ns, 75 steps."""
    return _run_fc("V", (256, 1), 6, 4e-2, 3.0)


@pytest.fixture(scope="module")
def full_w2():
    return _run_fc("W", (256, 32, 1), 2, 2e-2, 3.0)


@pytest.fixture(scope="module")
def full_f2():
    return _run_fc("F", (256, 128, 32, 16, 8, 4, 1), 1, 2e-2, 3.0)


# every benchmark cycle configuration: (kind, grids, l_max, dt, cost)
CONFIGS = [
    ("V", (256, 1), 4, 2e-2, 257),
    ("W", (256, 32, 1), 2, 2e-2, 290),
    ("F", (256, 32, 16, 1), 1, 2e-2, 307),
    ("F", (256, 32, 16, 4, 1), 1, 2e-2, 312),
    ("F", (256, 128, 64, 32, 16, 1), 1, 2e-2, 501),
    ("F", (256, 128, 32, 16, 8, 4, 1), 1, 2e-2, 450),
    ("V", (256, 1), 6, 4e-2, 257),
    ("W", (256, 32, 1), 2, 4e-2, 290),
    ("F", (256, 32, 16, 1), 1, 4e-2, 307),
    ("F", (256, 32, 16, 4, 1), 1, 4e-2, 312),
    ("F", (256, 64, 32, 16, 4, 1), 1, 4e-2, 377),
    ("F", (256, 64, 32, 16, 8, 4, 1), 1, 4e-2, 386),
]


def test_criterion_1_low_order_accounting(full_v2, full_v4, full_w2, full_f2):
    # N_lo == per-cycle cost * N_c, an integer identity with zero tolerance,
    # for every configuration (three full-scale steps each) and for the
    # four complete runs
    with _criterion("criterion 1: exact low-order accounting"):
        for kind, counts, lmax, dt, cost in CONFIGS:
            sched = make_schedule(kind, counts, lmax)
            assert per_cycle_cost(sched) == cost
            res = _run_fc(kind, counts, lmax, dt, 3 * dt)
            assert res.stats.n_lo == cost * res.stats.n_c
            assert res.stats.n_c > 0
        for res in (full_v2, full_v4, full_w2, full_f2):
            assert res.stats.n_lo == \
                per_cycle_cost(res.schedule) * res.stats.n_c


def test_criterion_2_benchmark_iteration_totals(full_v2, full_v4, full_w2,
                                                full_f2):
    with _criterion("criterion 2: benchmark iteration totals"):
        # two-grid reference runs, +/-15 percent of the target totals
        assert 0.85 * 365 <= full_v2.stats.n_ti <= 1.15 * 365
        assert 0.85 * 1547 <= full_v2.stats.n_c <= 1.15 * 1547
        assert 0.85 * 210 <= full_v4.stats.n_ti <= 1.15 * 210
        # multigrid orderings: sweep counts stay comparable while the
        # low-order work drops below three quarters of the two-grid total
        for res in (full_w2, full_f2):
            assert res.stats.n_ti <= 1.3 * full_v2.stats.n_ti
            assert res.stats.n_lo < 0.75 * full_v2.stats.n_lo
        # the exact totals (N_ti, N_c, N_lo): the numerics are fixed, so any
        # move is a change of behaviour; a change that argues for a move
        # updates these numbers together with its argument
        totals = {name: (res.stats.n_ti, res.stats.n_c, res.stats.n_lo)
                  for name, res in (("V2", full_v2), ("V4", full_v4),
                                    ("W2", full_w2), ("F2", full_f2))}
        assert totals == {"V2": (356, 1618, 415826), "V4": (206, 1367, 351319),
                          "W2": (393, 1009, 292610), "F2": (438, 588, 264600)}


def test_criterion_3_physics_fixed_points():
    with _criterion("criterion 3: physics fixed points"):
        # an equilibrated slab stays put for ten steps
        prob = equilibrium_problem(T0=1.0)
        res = run_simulation(prob, make_schedule("V", (16, 1), 4),
                             ConvergenceCriteria(), 2e-2, 10)
        assert np.max(np.abs(res.state.T - 1.0)) <= 1e-10

        # group-summed Planck emission recovers the T^4 law
        edges = build_fc_frequency_grid(64)
        for T in (0.1, 1.0, 3.0):
            tot = phys.planck_groups(np.array([T]), phys.log_rule(edges),
                                     edges).sum()
            ref = 0.5 * phys.C_LIGHT * phys.A_RAD * T**4
            assert abs(tot - ref) <= 1e-10 * ref

        # the initial isotropic field closes exactly
        st = initial_state(fc_problem(RunConfig(grids=(16, 1))))
        assert st.closures.f.shape == (16, 12)   # both faces and 10 cells
        assert np.all(st.closures.f == 1.0 / 3.0)
        assert np.all(st.closures.C == [-0.5, 0.5])


def test_criterion_4_consistency_oracles():
    with _criterion("criterion 4: cross-grid consistency oracles"):
        # mid-transient state with structure across the spectrum
        prob = fc_problem(RunConfig(grids=(16, 4, 1)))
        res = run_simulation(prob, make_schedule("W", (16, 4, 1), 2),
                             ConvergenceCriteria(), 2e-2, 5)
        st, hier, mesh, dt = res.state, prob.hierarchy, prob.mesh, 2e-2

        edges = hier.edges
        rad = phys.radiation_weights(st.T_r, phys.log_rule(edges))
        opac = phys.build_group_opacities(st.T, rad, edges, prob.sigma)
        coef1 = loqd.build_fine_coefficients(opac, st.closures, mesh)
        sol1 = loqd.solve_moment_system(coef1, st.E, st.F, dt, mesh)
        assert residual_norms(coef1, sol1, st.E, st.F, dt, mesh) <= 1e-12

        # at fixed temperature the coarse and grey solves reproduce the
        # summed fine spectrum
        coef2 = loqd.merge_coefficients(coef1, sol1, hier.starts_fine[1], 1)
        E_p = hier.restrict(st.E, 1)
        F_p = hier.restrict(st.F, 1)
        sol2 = loqd.solve_moment_system(coef2, E_p, F_p, dt, mesh)
        dE, dF = conservation_check(sol1, sol2, hier, 1)
        assert dE <= 1e-9 and dF <= 1e-9
        assert residual_norms(coef2, sol2, E_p, F_p, dt, mesh) <= 1e-12

        coefg = grey.form_grey(sol1, coef1, 2)
        E_g = st.E.sum(axis=0, keepdims=True)
        F_g = st.F.sum(axis=0, keepdims=True)
        solg = loqd.solve_moment_system(coefg, E_g, F_g, dt, mesh)
        dE, dF = conservation_check(sol1, solg, hier, 2)
        assert dE <= 1e-9 and dF <= 1e-9

        # brute-force dense solve of a tiny two-cell, two-group system
        mesh2 = loqd.SpatialMesh(np.array([0.0, 0.7, 2.0]))
        rng = np.random.default_rng(7)
        coef = random_coefficients(2, mesh2, rng, with_eta=True)
        E_prev = rng.random((2, 2))
        F_prev = 0.1 * rng.standard_normal((2, 3))
        want = dense_oracle(coef, E_prev, F_prev, 0.05, mesh2)
        got = loqd.solve_moment_system(coef, E_prev, F_prev, 0.05, mesh2)
        assert np.allclose(got.u, want.u, rtol=1e-12, atol=0)
        assert np.allclose(got.F, want.F, rtol=1e-12,
                           atol=1e-12 * np.max(np.abs(want.F)))


def test_criterion_5_per_step_energy_balance():
    # material + radiation energy change equals the net boundary influx
    # at every committed step of a 64-group benchmark run
    with _criterion("criterion 5: per-step energy balance"):
        with energy_balance(1e-8) as taken:
            res = _run_fc("V", (64, 1), 4, 2e-2, 3.0)
        assert len(taken) == len(res.stats.steps) == 150


def test_criterion_6_outer_convergence_shape():
    # early in the transient the outer temperature change contracts
    # geometrically: monotone decreasing from the third sweep on, converged
    # within five sweeps for both step sizes
    with _criterion("criterion 6: outer convergence shape"):
        for dt, lmax in ((2e-2, 4), (4e-2, 6)):
            res = _run_fc("V", (64, 1), lmax, dt, 8e-2)
            rec = res.stats.steps[-1]
            assert rec.t == pytest.approx(8e-2)
            assert rec.m_ti <= 5
            outer = [r.dT for r in res.stats.conv
                     if r.step == rec.step and r.cycle == 0]
            assert len(outer) == rec.m_ti + 1
            for a, b in zip(outer[3:], outer[4:]):
                assert b < a


def test_criterion_7_heat_wave_profile(full_v2):
    with _criterion("criterion 7: heat-wave profile at 3 ns"):
        t, T, E = full_v2.snapshots[-1]
        assert t == pytest.approx(3.0)
        assert 0.9 <= T[0] <= 1.0
        assert np.all(np.diff(T) < 0.0)
        assert np.all(np.diff(E) < 0.0)


def _ratio_grids(G, ratios):
    """Group counts G, G/r for each ratio r, then the grey grid, so that
    hierarchies on different G coarsen alike."""
    return (G, *(G // r for r in ratios), 1)


@pytest.mark.parametrize("kind,ratios,lmax,sizes", [
    ("V", (), 4, (64, 256, 1024)),
    ("F", (2, 8, 16, 32, 64), 1, (256, 1024)),
], ids=["V", "F"])
def test_criterion_8_counts_independent_of_group_count(kind, ratios, lmax,
                                                       sizes):
    # the abstract's claim for "large number of photon frequency groups":
    # with the coarsening ratios fixed, N_ti and N_c stay within 5% of the
    # 256-group run.  The runs stop at 0.2 ns (ten steps, about 5 s for all
    # five) to keep tier-1 short; at 0.6 ns the counts hold as well (N_ti
    # 93/92/92 for V, 111/107 for F) but the runs take about 11 s.
    with _criterion(f"criterion 8: counts independent of G ({kind})"):
        counts = {}
        for G in sizes:
            res = _run_fc(kind, _ratio_grids(G, ratios), lmax, 2e-2, 0.2)
            counts[G] = (res.stats.n_ti, res.stats.n_c)
        for G in sizes:
            for got, ref in zip(counts[G], counts[256]):
                assert abs(got - ref) <= 0.05 * ref, (G, counts)
