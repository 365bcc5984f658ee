"""Cycle schedules, iteration accounting, time stepping, and the outer loop."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from oracles import per_cycle_cost
from problems import (QUADRATURES, benchmark_on, energy_balance,
                      equilibrium_problem)

from trtmg import cycles, grey, loqd, phys, transport
from trtmg.cli import RunConfig, fc_problem
from trtmg.cycles import (ConvergenceCriteria, ConvergenceError,
                          FailedStepRecord, IterationStats, initial_state,
                          make_schedule, run_simulation, run_time_step,
                          step_count)


def _fc(grids=(16, 1), cells=10):
    return fc_problem(RunConfig(grids=grids, cells=cells))


class TestMakeSchedule:
    def test_kinds_and_derived_visits(self):
        v = make_schedule("V", (256, 1), 4)
        assert v.kind == "V" and v.visits == () and v.n_grids == 2
        w = make_schedule("w", (256, 32, 1), 2)
        assert w.kind == "W" and w.visits == (2,)
        f = make_schedule("F", (256, 32, 16, 1), 1)
        assert f.visits == (3, 2)
        f7 = make_schedule("f", (256, 128, 32, 16, 8, 4, 1), 1)
        assert f7.visits == (6, 5, 4, 3, 2)

    def test_w_and_f_agree_on_three_grids(self):
        # one visit rule: W is F restricted to a single intermediate grid
        w = make_schedule("W", (64, 16, 1), 2)
        f = make_schedule("F", (64, 16, 1), 2)
        assert w.visits == f.visits == (2,)

    def test_custom_visits(self):
        c = make_schedule("custom", (16, 8, 4, 1), 1, visits=(2, 3, 2))
        assert c.kind == "custom" and c.visits == (2, 3, 2)

    def test_empty_visit_list_is_no_list(self):
        # () is the one "no visit list" value, the default and what an
        # empty `visits =` line parses to: V, W and F take it
        assert make_schedule("V", (16, 1), 1, ()).visits == ()
        assert make_schedule("F", (16, 8, 4, 1), 1, ()).visits == (3, 2)

    # None in these tables names "no visit list" in the test ids; the
    # schedule is given () for it.  Each case maps to its message.
    REJECTED = {
        # V is strictly two grids
        ("V", (256, 32, 1), None): "V cycle cannot use 3 grids",
        ("W", (256, 1), None): "W cycle cannot use 2 grids",
        ("W", (256, 32, 16, 1), None): "W cycle cannot use 4 grids",
        # F needs an intermediate grid
        ("F", (256, 1), None): "F cycle cannot use 2 grids",
        ("Q", (16, 1), None): "unknown cycle kind 'q'",
        ("V", (256,), None): "V cycle cannot use 1 grids",
        # only custom takes a visit list
        ("W", (16, 8, 1), (2,)): "W cycle takes no explicit visit list",
        # visits required
        ("custom", (16, 8, 1), None): "custom schedule requires an explicit",
        # the fine grid is not a visit target, and neither is the grey grid
        ("custom", (16, 8, 1), (1,)): r"visit 1 outside .* range 2\.\.2$",
        ("custom", (16, 8, 1), (3,)): r"visit 3 outside .* range 2\.\.2$",
        ("custom", (4, 2, 1), None): "custom schedule requires an explicit",
    }

    @pytest.mark.parametrize("kind,counts,visits", list(REJECTED))
    def test_rejects(self, kind, counts, visits):
        with pytest.raises(ValueError,
                           match=self.REJECTED[kind, counts, visits]):
            make_schedule(kind, counts, 1, visits or ())

    def test_rejects_bad_lmax(self):
        with pytest.raises(ValueError, match="l_max must be >= 1, got 0"):
            make_schedule("V", (16, 1), 0)


class TestPerCycleCost:
    # one fine multigroup solve + each visited grid's groups + one grey
    # solve per temperature update (visits + 1)
    TABLE = [
        ("V", (256, 1), 257),
        ("W", (256, 32, 1), 290),
        ("F", (256, 32, 16, 1), 307),
        ("F", (256, 32, 16, 4, 1), 312),
        ("F", (256, 128, 64, 32, 16, 1), 501),
        ("F", (256, 128, 32, 16, 8, 4, 1), 450),
        ("F", (256, 64, 32, 16, 4, 1), 377),
        ("F", (256, 64, 32, 16, 8, 4, 1), 386),
    ]

    @pytest.mark.parametrize("kind,counts,cost", TABLE)
    def test_frozen_costs(self, kind, counts, cost):
        assert per_cycle_cost(make_schedule(kind, counts, 1)) == cost

    def test_custom_cost(self):
        c = make_schedule("custom", (16, 8, 4, 1), 1, visits=(2, 3, 2))
        assert per_cycle_cost(c) == 16 + (8 + 4 + 8) + 3 + 1


class TestConvergenceCriteria:
    def test_defaults(self):
        crit = ConvergenceCriteria()
        assert crit.eps == 1e-6 and crit.eps_tilde == 1e-7

    def test_equal_tolerances_allowed(self):
        ConvergenceCriteria(eps=1e-5, eps_tilde=1e-5)

    @pytest.mark.parametrize("eps,eps_tilde", [
        (1e-8, 1e-6),   # inner must not be looser than outer
        (1.5, 1e-7),
        (1e-6, 0.0),
        (-1e-6, -1e-7),
    ])
    def test_rejects(self, eps, eps_tilde):
        with pytest.raises(ValueError):
            ConvergenceCriteria(eps=eps, eps_tilde=eps_tilde)

    @pytest.mark.parametrize("max_outer", [0, -3])
    def test_rejects_max_outer(self, max_outer):
        with pytest.raises(ValueError, match="max_outer"):
            ConvergenceCriteria(max_outer=max_outer)


class TestInitialState:
    def test_fields(self):
        prob = _fc()
        st = initial_state(prob)
        hier = prob.hierarchy
        B0 = phys.planck_groups(st.T, hier.rule, hier.edges)
        assert np.all(st.T == 1e-3)
        assert np.array_equal(st.E, 2.0 * B0.T / phys.C_LIGHT)
        assert np.all(st.F == 0.0)
        # the radiation field starts isotropic at psi = B/2 per direction
        assert np.array_equal(st.psi[:, :, 0], st.psi[:, :, -1])
        assert np.all(st.psi[:, 0] == 0.5 * B0[:, None, :])
        assert st.closures.f.shape == (16, 12)   # both faces and 10 cells
        assert np.all(st.closures.f == 1.0 / 3.0)
        assert np.all(st.closures.C == [-0.5, 0.5])

    def test_moments_c_ordered(self):
        # every committed E is C-ordered (G, n_x), so step 1 sums groups in
        # the same order as every later step
        st = initial_state(_fc())
        assert st.E.flags["C_CONTIGUOUS"]
        assert st.F.flags["C_CONTIGUOUS"]


class TestEquilibrium:
    def test_fixed_point_over_ten_steps(self):
        prob = equilibrium_problem(T0=1.0)
        sched = make_schedule("V", (16, 1), 4)
        res = run_simulation(prob, sched, ConvergenceCriteria(), 2e-2, 10)
        assert np.max(np.abs(res.state.T - 1.0)) <= 1e-12
        E0 = initial_state(prob).E
        drift = np.max(np.abs(res.state.E - E0)) / np.max(E0)
        assert drift <= 1e-11
        # nothing changes, so each step converges on its first tested sweep
        assert all(rec.m_ti == 1 for rec in res.stats.steps)

    def test_perturbed_start_relaxes(self):
        # a start 1e-10 off the bath temperature must not grow: the commit
        # may not amplify a temperature error from step to step, whatever
        # the round-off of the first step happens to be
        T_start = 1.0 + 1e-10
        prob = replace(equilibrium_problem(T0=1.0), T_init=T_start)
        sched = make_schedule("V", (16, 1), 4)
        res = run_simulation(prob, sched, ConvergenceCriteria(), 2e-2, 10)
        assert np.max(np.abs(res.state.T - 1.0)) <= T_start - 1.0


@pytest.mark.parametrize("kind,counts,lmax", [
    ("W", (16, 4, 1), 2),
    ("F", (16, 8, 4, 1), 1),
], ids=["W", "F"])
def test_multigrid_fixed_point_and_energy_balance(kind, counts, lmax):
    # the equilibrium fixed point and the per-step energy budget hold for
    # the schedules with coarse visits too, not only for V
    sched = make_schedule(kind, counts, lmax)
    dt = 2e-2
    res = run_simulation(equilibrium_problem(T0=1.0, grids=counts), sched,
                         ConvergenceCriteria(), dt, 10)
    assert np.max(np.abs(res.state.T - 1.0)) <= 1e-12

    with energy_balance(1e-12) as taken:
        run_simulation(_fc(counts), sched, ConvergenceCriteria(), dt, 10)
    assert len(taken) == 10


@pytest.mark.parametrize("kind,counts,lmax", [
    ("V", (256, 1), 4),
    ("F", (256, 128, 32, 16, 8, 4, 1), 1),
], ids=["V", "F"])
def test_fixed_point_on_narrow_groups(kind, counts, lmax):
    # at 256 groups nearly every group is narrow and takes its emission B_g
    # from the rule's own sums, on which sig_B and sig_E also run: the
    # equilibrium slab stays at its temperature and every step closes its
    # energy budget to round-off
    prob = equilibrium_problem(T0=1.0, grids=counts)
    with energy_balance(1e-12) as taken:
        res = run_simulation(prob, make_schedule(kind, counts, lmax),
                             ConvergenceCriteria(), 2e-2, 10)
    assert len(taken) == 10
    assert np.max(np.abs(res.state.T - 1.0)) <= 1e-12


@pytest.mark.parametrize("name,kind,counts,lmax,totals", [
    ("uneven", "V", (16, 1), 4, (15, 61, 1037)),
    ("uneven", "F", (16, 8, 4, 1), 1, (37, 42, 1302)),
    ("positive", "V", (16, 1), 4, (14, 61, 1037)),
    ("positive", "F", (16, 8, 4, 1), 1, (39, 44, 1364)),
    ("negative", "V", (16, 1), 4, (5, 10, 170)),
    ("negative", "F", (16, 8, 4, 1), 1, (5, 10, 310)),
], ids=["uneven-V", "uneven-F", "positive-V", "positive-F", "negative-V",
        "negative-F"])
def test_whole_runs_on_uneven_half_ranges(name, kind, counts, lmax, totals):
    # every other whole run sweeps a double Gauss-Legendre rule; on half
    # ranges of unequal size and on the one-sided rules, where one face
    # takes no inflow at all (inc_left has no rows on the mu < 0 rule), the
    # steps close their energy budget and take the iteration counts
    # measured for them
    prob = benchmark_on(QUADRATURES[name], counts)
    with energy_balance(1e-12) as taken:
        res = run_simulation(prob, make_schedule(kind, counts, lmax),
                             ConvergenceCriteria(), 2e-2, 5)
    assert len(taken) == 5
    assert (res.stats.n_ti, res.stats.n_c, res.stats.n_lo) == totals


@st.composite
def _small_runs(draw):
    """A schedule on a random hierarchy of the benchmark slab, with its
    mesh, angular set and time step."""
    kind = draw(st.sampled_from(["V", "W", "F", "custom"]))
    groups = draw(st.integers(3, 16))
    n_mid = {"V": 0, "W": 1}.get(kind)
    if n_mid is None:
        n_mid = draw(st.integers(1, min(3, groups - 2)))
    mids = draw(st.lists(st.integers(2, groups - 1), min_size=n_mid,
                         max_size=n_mid, unique=True))
    counts = (groups, *sorted(mids, reverse=True), 1)
    visits = ()
    if kind == "custom":
        visits = draw(st.lists(st.integers(2, len(counts) - 1), min_size=1,
                               max_size=3))
    sched = make_schedule(kind, counts, draw(st.integers(1, 3)), visits)
    cfg = RunConfig(grids=counts, cells=draw(st.integers(2, 8)),
                    quad=draw(st.integers(1, 4)))
    dt = draw(st.sampled_from([0.005, 0.02, 0.04]))
    return fc_problem(cfg), sched, dt, draw(st.integers(1, 2))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_small_runs())
def test_invariants_across_inputs(run):
    # exact low-order accounting and the closed energy budget hold on every
    # step, not only at the benchmark point
    prob, sched, dt, n_steps = run
    try:
        with energy_balance(1e-12) as taken:
            res = run_simulation(prob, sched, ConvergenceCriteria(), dt,
                                 n_steps)
    except ConvergenceError:
        # a run that hits the outer cap commits nothing to check; the known
        # case is pinned by test_outer_limit_cycle_on_thick_cells
        reject()
    assert len(taken) == n_steps
    cost = per_cycle_cost(sched)
    assert all(rec.m_lo == cost * rec.m_c for rec in res.stats.steps)


@pytest.mark.xfail(raises=ConvergenceError, strict=True,
                   reason="outer iterations settle into a period-2 cycle on "
                          "two 2 cm cells at dt = 0.005 ns")
def test_outer_limit_cycle_on_thick_cells():
    # the transport/closure iteration alternates between two states that
    # differ by 2.8e-4 in T instead of converging; a scan of 180 small
    # V-cycle cases found 3 such, all with 2-3 cells at dt = 0.005
    prob = fc_problem(RunConfig(grids=(14, 1), cells=2, quad=2))
    run_time_step(prob, initial_state(prob), make_schedule("V", (14, 1), 1),
                  ConvergenceCriteria(), 5e-3)


class TestAccounting:
    @pytest.mark.parametrize("kind,counts", [
        ("V", (16, 1)),
        ("W", (16, 4, 1)),
        ("F", (16, 8, 4, 1)),
    ])
    def test_low_order_identity(self, kind, counts):
        prob = _fc(counts)
        sched = make_schedule(kind, counts, 2)
        res = run_simulation(prob, sched, ConvergenceCriteria(), 2e-2, 5)
        assert res.stats.n_lo == res.stats.n_c * per_cycle_cost(sched)
        assert res.stats.n_ti >= len(res.stats.steps)

    @pytest.mark.parametrize("kind,counts,visits", [
        ("V", (16, 1), None),          # None: no visit list, given as ()
        ("W", (16, 4, 1), None),
        ("F", (16, 8, 4, 1), None),
        ("custom", (16, 8, 4, 1), (2, 3, 2)),
    ])
    def test_counts_match_solves(self, monkeypatch, kind, counts, visits):
        # N_lo is the number of intervals every moment solve took, the grey
        # solves inside the Newton steps included, and each cycle takes one
        # grey Newton step per temperature update
        solve, newton = loqd.solve_moment_system, grey.solve_grey_meb
        seen = {"intervals": 0, "grey": 0}

        def solve_moment_system(coef, *args, **kwargs):
            seen["intervals"] += coef.sig_E.shape[0]
            return solve(coef, *args, **kwargs)

        def solve_grey_meb(*args):
            seen["grey"] += 1
            return newton(*args)

        monkeypatch.setattr(loqd, "solve_moment_system", solve_moment_system)
        monkeypatch.setattr(grey, "solve_grey_meb", solve_grey_meb)
        sched = make_schedule(kind, counts, 2, visits or ())
        res = run_simulation(_fc(counts), sched, ConvergenceCriteria(),
                             2e-2, 2)
        assert res.stats.n_c > 0
        assert res.stats.n_lo == seen["intervals"]
        assert seen["grey"] == res.stats.n_c * (1 + len(sched.visits))

    def test_step_tallies_sum_to_totals(self):
        prob = _fc((16, 4, 1))
        sched = make_schedule("W", (16, 4, 1), 2)
        res = run_simulation(prob, sched, ConvergenceCriteria(), 2e-2, 5)
        assert sum(r.m_ti for r in res.stats.steps) == res.stats.n_ti
        assert sum(r.m_c for r in res.stats.steps) == res.stats.n_c
        assert sum(r.m_lo for r in res.stats.steps) == res.stats.n_lo

    def test_lmax_caps_cycles_per_outer(self):
        # with an unreachable inner tolerance every outer pass runs exactly
        # l_max cycles (outer passes = sweeps + the pre-sweep pass per step)
        prob = _fc()
        sched = make_schedule("V", (16, 1), 3)
        crit = ConvergenceCriteria(eps=1e-6, eps_tilde=1e-30)
        res = run_simulation(prob, sched, crit, 2e-2, 3)
        n_outer = res.stats.n_ti + len(res.stats.steps)
        assert res.stats.n_c == 3 * n_outer

    @pytest.mark.parametrize("kind,counts", [("V", (16, 1)),
                                             ("F", (16, 8, 4, 1))])
    def test_opacity_work(self, monkeypatch, kind, counts):
        # a cycle builds opacities once per grid it solves, the first cycle
        # after a sweep taking the sweep's build; the T_r weights are built
        # at most once per cycle plus once per step, and every build sees
        # the weights of the latest radiation temperature
        build, weights, temperature = (phys.build_group_opacities,
                                       phys.radiation_weights,
                                       phys.radiation_temperature)
        calls = {"build": 0, "weights": 0}
        latest = {}

        def radiation_temperature(E_total):
            latest["T_r"] = temperature(E_total)
            return latest["T_r"]

        def radiation_weights(T_r, rule):
            calls["weights"] += 1
            return weights(T_r, rule)

        def build_group_opacities(T, rad, edges, sigma):
            calls["build"] += 1
            fresh = weights(latest["T_r"], phys.log_rule(edges))
            assert np.array_equal(rad.w_rad, fresh.w_rad)
            assert np.array_equal(rad.w_ros, fresh.w_ros)
            return build(T, rad, edges, sigma)

        for name, fn in (("radiation_temperature", radiation_temperature),
                         ("radiation_weights", radiation_weights),
                         ("build_group_opacities", build_group_opacities)):
            monkeypatch.setattr(phys, name, fn)
        sched = make_schedule(kind, counts, 2)
        n_steps = 3
        res = run_simulation(_fc(counts), sched, ConvergenceCriteria(),
                             2e-2, n_steps)
        n_c = res.stats.n_c
        assert res.stats.n_ti > 0 and n_c > res.stats.n_ti + n_steps
        assert calls["build"] == n_c * (1 + len(sched.visits))
        assert 0 < calls["weights"] <= n_c + n_steps

    @pytest.mark.parametrize("kind,counts", [("V", (16, 1)),
                                             ("F", (16, 8, 4, 1))])
    def test_log_rule_built_once_per_run(self, monkeypatch, kind, counts):
        # the rule depends on the fine edges alone: the hierarchy builds it
        # once per run, however many steps and T_r weight bundles it takes
        log_rule, weights = phys.log_rule, phys.radiation_weights
        calls = {"rule": 0, "weights": 0}

        def counted_rule(edges):
            calls["rule"] += 1
            return log_rule(edges)

        def counted_weights(T_r, rule):
            calls["weights"] += 1
            return weights(T_r, rule)

        monkeypatch.setattr(phys, "log_rule", counted_rule)
        monkeypatch.setattr(phys, "radiation_weights", counted_weights)
        n_steps = 3
        run_simulation(_fc(counts), make_schedule(kind, counts, 2),
                       ConvergenceCriteria(), 2e-2, n_steps)
        assert calls["weights"] > n_steps
        assert calls["rule"] == 1


class TestConvergenceRecords:
    def test_direct_steps_record_as_the_driver(self):
        # a time step numbers itself from the record it extends, so two
        # direct steps on one record are the driver's two-step run, records
        # and states bit for bit
        prob = _fc()
        sched = make_schedule("V", (16, 1), 4)
        crit = ConvergenceCriteria()
        res = run_simulation(prob, sched, crit, 2e-2, 2)
        stats = IterationStats()
        state = initial_state(prob)
        for _ in range(2):
            state = run_time_step(prob, state, sched, crit, 2e-2, stats)
        assert [r.step for r in stats.steps] == [1, 2]
        assert {r.step for r in stats.conv} == {1, 2}
        assert stats == res.stats  # the totals and every record
        for a, b in ((state, res.state), (state.closures, res.state.closures)):
            for f in fields(a):
                if f.name != "closures":
                    assert getattr(a, f.name).tobytes() == \
                        getattr(b, f.name).tobytes()

    def test_rows_per_step(self):
        # converged steps, and a step that hits the outer cap, each hold one
        # row per cycle and one per outer iteration up to their last sweep
        prob = _fc()
        sched = make_schedule("V", (16, 1), 4)
        res = run_simulation(prob, sched, ConvergenceCriteria(), 2e-2, 2)
        capped = IterationStats()
        with pytest.raises(ConvergenceError, match=r"hit the cap 1 "):
            run_time_step(prob, initial_state(prob), sched,
                          ConvergenceCriteria(max_outer=1), 2e-2, capped)
        assert [type(r) for r in capped.steps] == [FailedStepRecord]
        for stats in (res.stats, capped):
            for rec in stats.steps:
                rows = [r for r in stats.conv if r.step == rec.step]
                outer = [r for r in rows if r.cycle == 0]
                assert [r.s for r in outer] == list(range(rec.m_ti + 1))
                assert len([r for r in rows if r.cycle > 0]) == rec.m_c
                assert all(np.isfinite(r.dT) and r.dT >= 0.0 for r in rows)

    def test_outer_cap_raises(self):
        # a step that hits the outer cap keeps its work as one record marked
        # failed, so the totals stay the sums of the step records, and the
        # next step on the same record is step 2
        prob = _fc()
        sched = make_schedule("V", (16, 1), 4)
        state = initial_state(prob)
        stats = IterationStats()
        with pytest.raises(ConvergenceError,
                           match=r"^step 1: outer iterations hit the cap 1 "):
            run_time_step(prob, state, sched, ConvergenceCriteria(max_outer=1),
                          2e-2, stats)
        cost = per_cycle_cost(sched)
        assert stats.steps == [FailedStepRecord(1, 2e-2, 1, 8, 8 * cost)]
        assert len(stats.conv) == 10
        run_time_step(prob, state, sched, ConvergenceCriteria(), 2e-2, stats)
        assert [(r.step, isinstance(r, FailedStepRecord))
                for r in stats.steps] == [(1, True), (2, False)]
        assert {r.step for r in stats.conv[10:]} == {2}
        assert (stats.n_ti, stats.n_c, stats.n_lo) == tuple(
            sum(getattr(r, k) for r in stats.steps)
            for k in ("m_ti", "m_c", "m_lo"))
        # the totals are sums of the step records, never stored beside them
        assert [f.name for f in fields(IterationStats)] == ["steps", "conv"]

    def test_non_finite_outer_change_is_recorded(self, monkeypatch):
        # a non-finite outer change records the failed step the same way
        # (test_nan_opacity_fails_at_the_build covers a failed iteration)
        iterate = cycles.run_transport_iteration

        def second_fails(*args):
            rT, rE = iterate(*args)
            return (rT if args[5] == 0 else np.nan), rE  # args[5] is s

        monkeypatch.setattr(cycles, "run_transport_iteration", second_fails)
        prob = _fc()
        stats = IterationStats()
        with pytest.raises(ConvergenceError,
                           match=r"^step 1: non-finite outer change at "
                                 r"transport iteration s=1 "):
            run_time_step(prob, initial_state(prob),
                          make_schedule("V", (16, 1), 4),
                          ConvergenceCriteria(), 2e-2, stats)
        assert stats.steps == [FailedStepRecord(1, 2e-2, 1, stats.n_c,
                                                stats.n_lo)]
        assert stats.n_ti == 1 and stats.n_c > 0

    def test_nan_fails_fast(self):
        # a NaN opacity stops the step at the first outer change instead of
        # running the outer cap, and the message names the step and sweep
        def nan_sigma(nu, T):
            return np.full(np.broadcast_shapes(np.shape(nu), np.shape(T)),
                           np.nan)
        prob = replace(_fc(), sigma=nan_sigma)
        sched = make_schedule("V", (16, 1), 4)
        stats = IterationStats()
        with pytest.raises(ConvergenceError, match=r"step 1: .* s=0 "):
            run_time_step(prob, initial_state(prob), sched,
                          ConvergenceCriteria(), 2e-2, stats)
        assert stats.n_ti <= 1
        assert stats.n_c <= sched.l_max

    def test_nan_opacity_fails_at_the_build(self, monkeypatch):
        # an opacity that is NaN in one group is named by the opacity build,
        # with its field, cell and group, before any sweep or solve runs
        def sigma(nu, T):
            out = phys.FleckCummingsOpacity()(nu, T)
            return np.where((nu > 0.1) & (nu < 0.15), np.nan, out)
        prob = replace(_fc(), sigma=sigma)
        edges = prob.hierarchy.edges
        g = int(np.searchsorted(edges, 0.1))  # the group holding nu = 0.1
        assert edges[g - 1] < 0.1 < edges[g]
        calls = []
        monkeypatch.setattr(transport, "transport_solve",
                            lambda *a: calls.append(a))
        monkeypatch.setattr(loqd, "solve_moment_system",
                            lambda *a: calls.append(a))
        stats = IterationStats()
        with pytest.raises(ConvergenceError,
                           match=rf"^step 1: transport iteration s=0 failed: "
                                 rf"opacity build: sig_B is nan in cell 0, "
                                 rf"group {g - 1}$"):
            run_time_step(prob, initial_state(prob),
                          make_schedule("V", (16, 1), 4),
                          ConvergenceCriteria(), 2e-2, stats)
        assert calls == []
        assert stats.steps == [FailedStepRecord(1, 2e-2, 0, 0, 0)]
        assert (stats.n_ti, stats.n_c, stats.n_lo) == (0, 0, 0)

    def test_nan_inflow_fails_at_first_sweep(self):
        # a NaN in the committed psi, which the step's first sweep reads as
        # the previous time level, flows from cell 0 through that sweep and
        # fails it, naming the layer, group and cell, instead of turning
        # that group's closures into the isotropic fallbacks (Problem
        # rejects a non-finite inflow before any sweep)
        prob = _fc()
        state = initial_state(prob)
        state.psi[0, 0, -1, 5] = np.nan       # cell 0, group 5, mu > 0
        sched = make_schedule("V", (16, 1), 4)
        stats = IterationStats()
        with pytest.raises(ConvergenceError,
                           match=r"transport sweep: non-finite zeroth angular "
                                 r"moment in group 5, cell 0$"):
            run_time_step(prob, state, sched, ConvergenceCriteria(), 2e-2,
                          stats)
        assert stats.n_ti == 0


class TestRunSimulation:
    def test_snapshot_capture(self):
        prob = _fc()
        sched = make_schedule("V", (16, 1), 4)
        res = run_simulation(prob, sched, ConvergenceCriteria(), 2e-2, 5,
                             snapshot_times=(0.0, 0.04, 0.05))
        # 0.05 sits exactly halfway between steps and matches neither
        assert [t for t, _, _ in res.snapshots] == [0.0, 0.04]
        t0, T0, E0 = res.snapshots[0]
        assert np.all(T0 == 1e-3)
        assert E0.shape == (prob.mesh.n_cells,)

    def test_snapshot_rule_same_at_t0(self):
        # t = 0 is step 0 of the one rule: 0.01 lies exactly halfway
        # between t = 0 and t = 0.02, so it matches neither
        prob = _fc()
        sched = make_schedule("V", (16, 1), 4)
        res = run_simulation(prob, sched, ConvergenceCriteria(), 2e-2, 2,
                             snapshot_times=(0.01, 0.03))
        assert res.snapshots == []
        res = run_simulation(prob, sched, ConvergenceCriteria(), 2e-2, 2,
                             snapshot_times=(0.009, 0.031))
        assert [t for t, _, _ in res.snapshots] == [0.0, 0.04]

    @pytest.mark.parametrize("T_init", [0.0, -1.0, np.nan, np.inf])
    def test_problem_rejects_bad_start_temperature(self, T_init):
        # checked where it enters, before the first Planck integrals warn on
        # 0 or -1, or a NaN builds an all-NaN state
        with pytest.raises(ValueError,
                           match="^T_init must be positive and finite"):
            replace(_fc(), T_init=T_init)

    @pytest.mark.parametrize("bad", ["shape", "nan", "inf", "negative"])
    @pytest.mark.parametrize("name", ["inc_left", "inc_right"])
    def test_problem_rejects_bad_inflow(self, name, bad):
        # each inflow holds its entering half range, (8, 32) here: one of
        # another shape, such as the (G, M) array of every direction, or
        # with an entry that is not finite and nonnegative is named where
        # it enters, before the initial closure or a sweep reads it
        prob = _fc((32, 1))
        inc = getattr(prob, name).copy()
        if bad == "shape":
            inc = np.zeros((32, 16))
            match = (rf"^{name} must be \(entering directions, groups\) = "
                     rf"\(8, 32\), got \(32, 16\)$")
        else:
            inc[3, 5] = {"nan": np.nan, "inf": np.inf, "negative": -1.0}[bad]
            match = (rf"^{name} is {inc[3, 5]} in entering direction 3, "
                     rf"group 5: an inflow must be finite and nonnegative$")
        with pytest.raises(ValueError, match=match):
            replace(prob, **{name: inc})

    @pytest.mark.parametrize("t_end", [0.05, 0.0, -0.02])
    def test_bad_t_end(self, t_end):
        # the run's step count, which run_simulation takes, comes from here
        with pytest.raises(ValueError):
            step_count(t_end, 2e-2)

    @pytest.mark.parametrize("t_end,dt", [
        (0.1, 0.0),             # no step size
        (0.1, -0.02),
        (np.inf, 0.02),         # infinitely many steps
        (1e300, 1e-300),        # a ratio that overflows
        (np.nan, 0.02),
    ])
    def test_step_count_rejects(self, t_end, dt):
        with pytest.raises(ValueError):
            step_count(t_end, dt)

    @pytest.mark.parametrize("grids, kind, counts", [
        ((16, 1), "F", (16, 8, 4, 1)),   # grids the problem lacks
        ((16, 1), "V", (32, 1)),         # another fine grid
        ((16, 8, 1), "W", (16, 4, 1)),   # another coarse grid
    ])
    def test_schedule_must_match_hierarchy(self, grids, kind, counts):
        prob = _fc(grids)
        sched = make_schedule(kind, counts, 2)
        with pytest.raises(ValueError, match="^schedule grids") as err:
            run_simulation(prob, sched, ConvergenceCriteria(), 2e-2, 1)
        assert str(counts) in str(err.value)
        assert str(grids) in str(err.value)

    def test_deterministic_repeat(self):
        prob = _fc((16, 4, 1))
        sched = make_schedule("W", (16, 4, 1), 2)
        crit = ConvergenceCriteria()
        r1 = run_simulation(prob, sched, crit, 2e-2, 5)
        r2 = run_simulation(prob, sched, crit, 2e-2, 5)
        assert (r1.stats.n_ti, r1.stats.n_c, r1.stats.n_lo) == \
               (r2.stats.n_ti, r2.stats.n_c, r2.stats.n_lo)
        assert np.array_equal(r1.state.T, r2.state.T)
        assert np.array_equal(r1.state.E, r2.state.E)

    @pytest.mark.parametrize("kind,counts", [("V", (16, 1)),
                                             ("F", (16, 8, 4, 1))])
    def test_step_writes_into_no_input(self, kind, counts):
        # a step shares its inputs uncopied (the state's closures go into
        # the fine coefficients as they are), so it must write into none:
        # every input is read-only, and two steps leave each one's bytes.
        # The fine edges and their log-frequency rule outlive every step.
        # Each step sweeps at least three times, so the sweeps that write
        # over the step's own spent psi run too.
        prob = _fc(counts)
        sched = make_schedule(kind, counts, 2)
        rule = prob.hierarchy.rule
        inputs = [prob.inc_left, prob.inc_right, prob.mesh.faces,
                  prob.quad.mu, prob.quad.w, prob.hierarchy.edges, rule.nu,
                  rule.w, rule.wide, rule.mid, rule.p3]
        state = initial_state(prob)
        stats = IterationStats()
        for _ in range(2):
            c = state.closures
            inputs += [state.T, state.T_r, state.psi, state.E, state.F,
                       c.f, c.C, c.bc_in]
            for a in inputs:
                a.flags.writeable = False
            before = [a.tobytes() for a in inputs]
            state = run_time_step(prob, state, sched, ConvergenceCriteria(),
                                  2e-2, stats)
            assert [a.tobytes() for a in inputs] == before
            assert stats.steps[-1].m_ti >= 3

    def test_later_sweeps_of_a_step_reuse_its_first_psi(self, monkeypatch):
        # a step's first sweep writes a new psi; each later sweep of that
        # step writes over the array the first one returned, and no sweep
        # writes into the committed psi the step started from
        solve, sweeps = transport.transport_solve, []

        def spy(*args, out=None):
            psi, closures = solve(*args, out=out)
            sweeps.append((out, psi))
            return psi, closures

        monkeypatch.setattr(transport, "transport_solve", spy)
        prob = _fc()
        sched = make_schedule("V", (16, 1), 2)
        stats = IterationStats()
        state = initial_state(prob)
        for _ in range(2):
            del sweeps[:]
            new = run_time_step(prob, state, sched, ConvergenceCriteria(),
                                2e-2, stats)
            assert len(sweeps) == stats.steps[-1].m_ti >= 3
            (out, first), later = sweeps[0], sweeps[1:]
            assert out is None
            assert all(out is psi is first for out, psi in later)
            assert not np.shares_memory(first, state.psi)
            assert new.psi is first
            state = new


class TestEnergyBookkeeping:
    def test_per_step_balance_closes(self):
        # implicit-Euler budget: change in material + radiation energy is
        # the time step times the net face influx, to round-off
        prob = _fc()
        sched = make_schedule("V", (16, 1), 4)
        with energy_balance(1e-12) as taken:
            run_simulation(prob, sched, ConvergenceCriteria(), 2e-2, 10)
        assert len(taken) == 10
