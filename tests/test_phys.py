"""Planck integrals and group opacity averages.

Reference values were frozen from 40-digit mpmath quadrature of the same
integrands (prefactor A = 15 c a_R / (2 pi^4), B = A nu^3/(e^(nu/T)-1)).
The pointwise Planck functions are the references in oracles.py.  The build
evaluates them at its nodes to a few ulps (it writes B as P nu^3/expm1(x),
they as P nu^3 e^-x/(1 - e^-x)), and its group means agree with their
one-pass composition on the 16-point rule, and with a 128-node rule, to
round-off.
"""

import warnings

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trtmg import phys
from trtmg.phys import FleckCummingsOpacity

FC = FleckCummingsOpacity()


def _one_group(T, T_r, band, sigma):
    """Group opacities of a single cell and a single group."""
    band = np.asarray(band, float)
    return phys.build_group_opacities(
        np.array([T]),
        phys.radiation_weights(np.array([T_r]), phys.log_rule(band)), band,
        sigma)


def test_planck_prefactor():
    A = 15.0 * phys.C_LIGHT * phys.A_RAD / (2.0 * np.pi**4)
    assert phys.PLANCK_PREFACTOR == pytest.approx(A, rel=1e-15)
    assert phys.PLANCK_PREFACTOR == pytest.approx(0.031669532434484156,
                                                   rel=1e-15)


def test_planck_pointwise():
    assert oracles.planck_B(1.0, 1.0) == pytest.approx(
        0.018430930194312411, rel=5e-15)
    # Rayleigh-Jeans limit: B -> A nu^2 T
    nu = 1e-9
    assert oracles.planck_B(nu, 2.0) == pytest.approx(
        phys.PLANCK_PREFACTOR * nu**2 * 2.0, rel=1e-8)
    assert oracles.planck_B(5e4, 1.0) == 0.0  # deep Wien tail underflows


def test_planck_band_integral():
    band = np.array([0.1, 10.0])
    got = phys.planck_groups(np.array([1.0]), phys.log_rule(band), band)[0, 0]
    assert got == pytest.approx(0.20368579320691779, rel=1e-13)


def test_planck_total_is_stefan_boltzmann():
    # full-spectrum integral of B equals c a_R T^4 / 2
    edges = np.concatenate(([0.0], np.logspace(-4, 1, 255), [1e7]))
    rule = phys.log_rule(edges)
    for T in (1e-3, 0.31, 1.0, 3.7):
        tot = phys.planck_groups(np.array([T]), rule, edges).sum()
        assert tot == pytest.approx(0.5 * phys.C_LIGHT * phys.A_RAD * T**4,
                                    rel=5e-14)


def test_planck_dT_matches_divided_difference():
    # dB/dT at fixed nu against a central difference of B, from the
    # Rayleigh-Jeans side through the peak to a deep-Wien nu where both are 0
    T, h = 0.8, 1e-5
    for nu in (0.05, 1.0, 4.0, 4e4):
        num = (oracles.planck_B(nu, T + h)
               - oracles.planck_B(nu, T - h)) / (2.0 * h)
        assert oracles.planck_dB_dT(nu, T) == pytest.approx(num, rel=1e-8)
    assert oracles.planck_dB_dT(4e4, T) == 0.0


def test_planck_tail_branches():
    pi4_15 = np.pi**4 / 15.0
    assert phys._planck_series(np.array([0.0]))[1][0] == pi4_15
    assert phys._planck_series(np.array([800.0]))[1][0] == 0.0
    # series/asymptotic handoff at x = 2 must be seamless
    lo = phys._planck_series(np.array([np.nextafter(2.0, 0.0)]))[1][0]
    hi = phys._planck_series(np.array([2.0]))[1][0]
    assert lo == pytest.approx(hi, rel=1e-14)


def test_planck_tail_matches_dense_branches():
    # each series on its own entries gives the masked whole-array values
    # bit for bit, at the branch points, across the underflow point 746
    # and far beyond it, alone and inside one array
    x = np.array([0.0, np.nextafter(2.0, 0.0), 2.0, 745.0, 746.0, 747.0,
                  1e13])

    def tail(x):
        return phys._planck_series(x)[1]

    for xi in x:
        one = np.array([xi])
        assert np.array_equal(tail(one), oracles.planck_tail(one))
    assert np.array_equal(tail(x), oracles.planck_tail(x))
    dense = np.concatenate([np.linspace(0.0, 4.0, 401),
                            np.linspace(740.0, 750.0, 101)]).reshape(2, -1)
    assert np.array_equal(tail(dense), oracles.planck_tail(dense))


def test_fc_opacity_shape_and_values():
    assert FC(1.0, 1.0) == pytest.approx(27.0 * -np.expm1(-1.0), rel=1e-15)
    nu = np.array([0.5, 1.0, 2.0])
    got = FC(nu, 0.5)
    assert got.shape == (3,)
    assert np.all(np.diff(got) < 0)  # falls off like nu^-3


def test_group_opacity_frozen_values():
    band = (1.0, 2.0)
    # sig_B depends on T alone, sig_E and sig_R on (T, T_r)
    assert _one_group(1.0, 1.0, band, FC).sig_B[0, 0] == pytest.approx(
        6.5984712819680285, rel=5e-13)
    assert _one_group(0.5, 1.0, band, FC).sig_E[0, 0] == pytest.approx(
        8.258695235803032, rel=5e-13)
    assert _one_group(1.0, 1.0, band, FC).sig_R[0, 0] == pytest.approx(
        5.0234372708987582, rel=5e-13)
    assert _one_group(0.5, 0.8, band, FC).sig_R[0, 0] == pytest.approx(
        6.055873016122114, rel=5e-13)


def test_group_opacity_constant_sigma():
    const_sig = lambda nu, T: np.broadcast_to(2.25, np.broadcast_shapes(
        np.shape(nu), np.shape(T))).copy()
    opac = _one_group(0.7, 1.1, (0.2, 3.0), const_sig)
    for got in (opac.sig_B, opac.sig_E, opac.sig_R):
        assert got[0, 0] == pytest.approx(2.25, rel=1e-14)


def test_wien_tail_fallback():
    # group far beyond the Planck peak: weight underflows, the average
    # falls back to sigma at the geometric midpoint of the group
    band = (1e6, 1e7)
    got = _one_group(1.0, 1.0, band, FC).sig_B[0, 0]
    assert got == pytest.approx(float(FC(np.sqrt(1e13), 1.0)), rel=1e-15)


def test_build_group_opacities_matches_separate_averages():
    # the batched build equals a separate build for each (cell, group)
    # pair, bit for bit: cells and groups do not interact, on wide groups
    # (two rows each) and on narrow ones (one row each) alike
    T = np.array([1e-3, 0.2, 0.9])
    T_r = np.array([0.5, 0.5, 1.2])
    for interior in (np.logspace(-4, 1, 15), np.logspace(-1, 0, 60)):
        edges = np.concatenate(([0.0], interior, [1e7]))
        G = edges.size - 1
        rad = phys.radiation_weights(T_r, phys.log_rule(edges))
        opac = phys.build_group_opacities(T, rad, edges, FC)
        assert opac.sig_B.shape == (3, G)
        for i in range(3):
            for g in range(G):
                one = _one_group(T[i], T_r[i], edges[g:g + 2], FC)
                for name in ("sig_B", "sig_E", "sig_R", "B"):
                    assert getattr(opac, name)[i, g] \
                        == getattr(one, name)[0, 0]


_temperatures = st.lists(st.floats(-6.0, 1.0), min_size=1, max_size=4)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(log_T=_temperatures, log_T_r=_temperatures,
       log_edges=st.lists(st.floats(-4.0, 6.0), min_size=1, max_size=12,
                          unique=True))
def test_build_matches_one_pass_reference(log_T, log_T_r, log_edges):
    # T and T_r in [1e-6, 10] keV; edges from a zero lower edge to a 1e7
    # top edge with a deep-Wien group [1e6, 1e7] whose weights underflow
    n = min(len(log_T), len(log_T_r))
    T = 10.0 ** np.array(log_T[:n])
    T_r = 10.0 ** np.array(log_T_r[:n])
    edges = np.concatenate(([0.0], np.unique(10.0 ** np.array(log_edges)),
                            [1e6, 1e7]))
    edges = np.unique(edges)
    rad = phys.radiation_weights(T_r, phys.log_rule(edges))
    got = phys.build_group_opacities(T, rad, edges, FC)
    want = oracles.build_group_opacities(T, T_r, edges, FC)
    # B is at round-off against the many-panel reference wherever the group
    # carries more than 1e-20 of the emission
    shares = oracles.weight_shares(T, T_r, edges, 16)
    held = shares[0] > 1e-20
    assert np.all(np.abs(got.B - want.B)[held] <= 1e-12 * want.B[held])
    # narrow groups run on 8 of the reference's 16 nodes and wide ones sum
    # in another order: the means agree to round-off wherever the group
    # carries more than 1e-20 of its weight, and are sound everywhere
    for name, share in zip(("sig_B", "sig_E", "sig_R"), shares):
        mean, ref = getattr(got, name), getattr(want, name)
        assert np.all(np.isfinite(mean) & (mean > 0.0)), name
        held = share > 1e-20
        assert np.all(np.abs(mean - ref)[held] <= 1e-13 * ref[held]), name
    # the node weights are P nu^3/expm1(x) and the oracles P nu^3 e^-x/(1 -
    # e^-x), equally accurate: a few ulps apart wherever the weight is a
    # normal number, and exactly 0 wherever the oracle's weight is
    nu, w = rad.rule.nu[:, None, :], rad.rule.w[:, None, :]
    T_c = T_r[None, :, None]
    for got, ref in ((rad.w_rad, oracles.planck_B(nu, T_c) * w),
                     (rad.w_ros, oracles.planck_dB_dT(nu, T_c) * w)):
        err = np.abs(got - ref)
        normal = ref > 1e-290
        assert np.all(err[normal] <= 8.0 * np.finfo(float).eps * ref[normal])
        assert np.all(err[~normal] <= 1e-290)
        assert np.all(got[ref == 0.0] == 0.0)


def _rows(rule, g):
    """The nodes and weights of group g, its rows in order, as (nodes,)."""
    G = rule.mid.size
    cols = [g] + [G + k for k in np.flatnonzero(rule.wide == g)]
    return rule.nu[:, cols].T.ravel(), rule.w[:, cols].T.ravel()


def _fc_edges(G):
    return np.concatenate(([0.0], np.logspace(-4, 1, G - 1), [1e7]))


@pytest.mark.parametrize("G", [64, 256, 1024])
def test_log_rule_uses_16_nodes_on_wide_groups_only(G):
    # the 8-point rule on a group at most _NARROW_WIDTH wide in log(nu), and
    # the 16-point rule, the very nodes and weights, on a wider one
    edges = _fc_edges(G)
    rule = phys.log_rule(edges)
    width = np.log(edges[1:]) - np.log(np.maximum(edges[:-1],
                                                   edges[1:] * 1e-12))
    wide = width > phys._NARROW_WIDTH
    assert wide[0] and wide[-1]
    assert wide.all() if G == 64 else not wide[1:-1].any()
    assert np.array_equal(rule.wide, np.flatnonzero(wide))
    assert rule.nu.shape == (8, G + wide.sum())
    nodes = {n: oracles.log_nodes(edges, n) for n in (8, 16)}
    for g in range(G):
        nu, w = nodes[16 if wide[g] else 8]
        got_nu, got_w = _rows(rule, g)
        assert np.array_equal(got_nu, nu[g]) and np.array_equal(got_w, w[g])


@pytest.mark.parametrize("edges", [
    _fc_edges(256), _fc_edges(1024), _fc_edges(4096),
    # 230 groups just inside the narrow limit 0.05, so each is one row
    1e-4 * np.exp(0.05 * (1.0 - 1e-9) * np.arange(231))],
    ids=["G256", "G1024", "G4096", "uniform0.05"])
def test_narrow_group_means_match_128_node_reference(edges):
    # every group mean on the 8-point rule is at round-off against a
    # 128-node rule, wherever the group carries more than 1e-20 of its
    # weight, for T and T_r in [1e-3, 1] keV
    rule = phys.log_rule(edges)
    narrow = ~np.isin(np.arange(edges.size - 1), rule.wide)
    assert narrow.sum() >= edges.size - 3
    temps = np.logspace(-3.0, 0.0, 4)
    for T_r in temps:
        rad = phys.radiation_weights(np.full(temps.size, T_r), rule)
        got = phys.build_group_opacities(temps, rad, edges, FC)
        for i, T in enumerate(temps):
            ref = oracles.build_group_opacities([T], [T_r], edges, FC, 128)
            shares = oracles.weight_shares([T], [T_r], edges, 128)
            for name, share in zip(("sig_B", "sig_E", "sig_R"), shares):
                held = narrow & (share[0] > 1e-20)
                want = getattr(ref, name)[0, held]
                err = np.abs(getattr(got, name)[i, held] - want) / want
                assert err.max() <= 1e-13, (name, T, T_r)


@pytest.mark.parametrize("G", [64, 256, 4096])
def test_planck_groups_match_many_panel_reference(G):
    # B_g from planck_groups and from the build, narrow groups on the rule's
    # 8-point sums and wide ones on the series, is at round-off against a
    # many-panel reference wherever the group carries more than 1e-20 of
    # the emission, and the groups sum to c a_R T^4 / 2
    edges = _fc_edges(G)
    rule = phys.log_rule(edges)
    temps = np.logspace(-3.0, 0.0, 7)
    ref = oracles.planck_groups(temps, edges)
    opac = phys.build_group_opacities(
        temps, phys.radiation_weights(temps, rule), edges, FC)
    for B in (phys.planck_groups(temps, rule, edges), opac.B):
        for i, T in enumerate(temps):
            held = ref[i] > 1e-20 * ref[i].sum()
            err = np.abs(B[i, held] - ref[i, held]) / ref[i, held]
            assert err.max() <= 1e-12, T
            total = 0.5 * phys.C_LIGHT * phys.A_RAD * T**4
            assert abs(B[i].sum() - total) <= 1e-14 * total, T


@pytest.mark.parametrize("G", [64, 256])
def test_build_emission_is_planck_groups(G):
    # one definition of B_g: the build's emission integrals are
    # planck_groups at the same temperatures, bit for bit, on all-wide and
    # on mostly narrow grids alike
    edges = _fc_edges(G)
    rule = phys.log_rule(edges)
    T = np.array([1e-3, 0.05, 0.31, 1.0])
    T_r = np.array([0.5, 0.5, 1.2, 0.9])
    opac = phys.build_group_opacities(
        T, phys.radiation_weights(T_r, rule), edges, FC)
    assert np.array_equal(opac.B, phys.planck_groups(T, rule, edges))


def test_radiation_temperature():
    E = phys.A_RAD * 0.7**4
    assert phys.radiation_temperature(E) == pytest.approx(0.7, rel=1e-15)
    assert phys.radiation_temperature(0.0) == phys.T_FLOOR
    assert phys.radiation_temperature(-1e-9) == phys.T_FLOOR
    arr = phys.radiation_temperature(np.array([E, 0.0]))
    assert arr.shape == (2,)


def test_material_energy():
    mat = phys.MaterialModel(c_v=0.5917 * phys.A_RAD)
    T = np.array([1e-3, 0.5, 1.0])
    assert np.array_equal(mat.energy(T), mat.c_v * T)
    assert mat.energy(0.5) == mat.c_v * 0.5


@pytest.mark.parametrize("c_v", [0.0, -1e-3, np.nan, np.inf])
def test_material_rejects_bad_heat_capacity(c_v):
    # checked where it enters, so that a c_v <= 0 cannot run a step into
    # the outer cap, nor a NaN fail as if a low-order solve were at fault
    with pytest.raises(ValueError, match="^c_v must be positive and finite"):
        phys.MaterialModel(c_v=c_v)


@pytest.mark.parametrize("bad,shown", [(0.0, "0.0"), (-1.0, "-1.0"),
                                       (np.nan, "nan"), (np.inf, "inf")])
def test_build_names_its_first_bad_value(bad, shown):
    # the build checks its own output: a sigma that is bad in one group at
    # one cell's temperature makes sig_B, the first field checked, bad in
    # that cell and group.  The harmonic Rosseland mean divides by that
    # sigma, and no floating-point warning may preempt the build's error.
    edges = _fc_edges(256)
    lo, hi = edges[100], edges[101]
    T = np.array([0.1, 0.2, 0.3])

    def sigma(nu, T):
        return np.where((nu >= lo) & (nu <= hi) & (T > 0.25), bad, FC(nu, T))

    rad = phys.radiation_weights(T, phys.log_rule(edges))
    with pytest.raises(phys.ConvergenceError,
                       match=rf"^opacity build: sig_B is {shown} in cell 2, "
                             rf"group 100$"):
        phys.build_group_opacities(T, rad, edges, sigma)


@pytest.mark.parametrize("bad,shown", [(np.nan, "nan"), (0.0, "0.0"),
                                       (-1.0, "-1.0"), (np.inf, "inf")])
def test_radiation_weights_name_a_bad_temperature(bad, shown):
    # a T_r that is not finite and positive gives weights with no meaning;
    # at T_r = 0 they are all zero, and the build would pass its check on
    # sigma at the group midpoints
    msg = rf"^radiation weights: T_r is {shown} in cell 1$"
    with pytest.raises(phys.ConvergenceError, match=msg):
        phys.radiation_weights(np.array([0.2, bad, bad]),
                               phys.log_rule(_fc_edges(16)))


@pytest.mark.parametrize("bad,shown", [(np.nan, "nan"), (0.0, "0.0"),
                                       (-1.0, "-1.0"), (np.inf, "inf")])
def test_build_names_a_bad_temperature(bad, shown):
    # checked on entry, so that neither a floating-point warning nor a
    # later field (B, sig_B) names the fault in T's place
    edges = _fc_edges(16)
    rad = phys.radiation_weights(np.full(3, 0.2), phys.log_rule(edges))
    msg = rf"^opacity build: T is {shown} in cell 1$"
    with pytest.raises(phys.ConvergenceError, match=msg):
        phys.build_group_opacities(np.array([0.2, bad, bad]), rad, edges, FC)


@pytest.mark.parametrize("G", [16, 64, 256])
def test_emission_mean_at_equal_temperatures_is_the_planck_mean(G):
    # the T_r bundle and the build's T-side weights come from one function,
    # so at T_r = T sig_E is sig_B bit for bit: the equilibrium fixed point
    # rests on this
    edges = _fc_edges(G)
    T = np.logspace(-6.0, 1.0, 12)
    opac = phys.build_group_opacities(
        T, phys.radiation_weights(T, phys.log_rule(edges)), edges, FC)
    assert np.array_equal(opac.sig_E, opac.sig_B)


def test_planck_weights_vanish_where_exp_overflows():
    # at the floor temperature e^(nu/T) overflows on most of the 256-group
    # grid up to 1e7 keV: every weight stays finite, is exactly 0 there, and
    # no floating-point warning is raised
    edges = _fc_edges(256)
    rule = phys.log_rule(edges)
    T = np.full(2, phys.T_FLOOR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rad = phys.radiation_weights(T, rule)
        w_loc = phys._planck_weights(rule, T)
        phys.build_group_opacities(T, rad, edges, FC)
    x = rule.nu[:, None, :] / T[None, :, None]
    over = x > np.log(np.finfo(float).max)
    assert over.any() and not over.all()
    for w in (w_loc, rad.w_rad, rad.w_ros):
        assert np.all(np.isfinite(w))
        assert np.all(w[over] == 0.0)


def test_build_passes_zero_emission_in_the_wien_tail():
    # B is exactly 0 far in the Wien tail of a cold cell, and that is sound
    edges = _fc_edges(256)
    T = np.full(2, 1e-3)
    opac = phys.build_group_opacities(
        T, phys.radiation_weights(T, phys.log_rule(edges)), edges, FC)
    assert np.any(opac.B == 0.0) and np.all(opac.B >= 0.0)
