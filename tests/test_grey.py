"""Grey problem assembly and the Newton temperature update."""

import numpy as np
import pytest
from oracles import boundary_source

from trtmg import grey, loqd, phys, transport
from trtmg.grids import SpatialMesh, double_gauss_legendre
from trtmg.phys import MaterialModel


def _one_group_coef(mesh, rng):
    nx = mesh.n_cells
    coef = loqd.LoqdCoefficients(
        level=1,
        sig_E=0.5 + rng.random((1, nx)),
        sig_B=0.5 + rng.random((1, nx)),
        B=0.1 + rng.random((1, nx)),
        f=np.full((1, nx + 2), 1.0 / 3.0),
        sig_R_face=0.5 + rng.random((1, nx + 1)),
        eta_hat=np.zeros((1, nx + 1)),
        eta_check=np.zeros((1, nx + 1)),
        C=np.array([[-0.5, 0.5]]),
        bc_in=np.empty((1, 2)),
    )
    coef.bc_in = boundary_source(0.01 * rng.random((1, 2)),
                                 np.array([[0.02, -0.01]]), np.zeros((1, 2)),
                                 coef)
    return coef


def test_form_grey_single_interval_is_identity():
    mesh = SpatialMesh.uniform(3, 1.0)
    rng = np.random.default_rng(2)
    coef = _one_group_coef(mesh, rng)
    sol = loqd.solve_moment_system(coef, 0.1 + rng.random((1, 3)),
                                   np.zeros((1, 4)), 0.1, mesh)
    coefg = grey.form_grey(sol, coef, level_out=1)
    assert np.allclose(coefg.sig_E, coef.sig_E, rtol=1e-14)
    assert np.allclose(coefg.sig_B, coef.sig_B, rtol=1e-14)
    assert np.allclose(coefg.B, coef.B, rtol=1e-14)


def test_equilibrium_temperature_is_fixed_point():
    # Planckian radiation at the material temperature: the Newton update
    # must return the same temperature to round-off
    mesh = SpatialMesh.uniform(10, 4.0)
    edges = np.concatenate(([0.0], np.logspace(-4, 1, 15), [1e7]))
    nx, G = 10, 16
    T = np.full(nx, 0.5)
    rad = phys.radiation_weights(T, phys.log_rule(edges))
    opac = phys.build_group_opacities(T, rad, edges,
                                      phys.FleckCummingsOpacity())
    quad = double_gauss_legendre(8)
    B = opac.B.T
    n = quad.n_neg
    clo = transport.ClosureData.isotropic(
        nx, np.tile(0.5 * B[:, 0], (quad.n_dirs - n, 1)),
        np.tile(0.5 * B[:, -1], (n, 1)), quad)
    coef = loqd.build_fine_coefficients(opac, clo, mesh)
    E_eq = 2.0 * B / phys.C_LIGHT
    dt = 0.02
    sol = loqd.solve_moment_system(coef, E_eq, np.zeros((G, nx + 1)), dt, mesh)
    coefg = grey.form_grey(sol, coef, level_out=1)
    mat = MaterialModel(c_v=0.5917 * phys.A_RAD)
    for stage in (None, _stage_with_slopes(coefg, T, np.zeros(nx),
                                           np.full(nx, 0.3))):
        T_new, gsol, _ = grey.solve_grey_meb(
            coefg, sol.E.sum(axis=0), stage, T, E_eq.sum(0, keepdims=True),
            np.zeros((1, nx + 1)), T, dt, mat, mesh)
        assert np.max(np.abs(T_new - T)) <= 1e-12
    assert np.allclose(gsol.E[0], E_eq.sum(axis=0), rtol=1e-10)


def test_zero_coupling_returns_previous_temperature():
    # with sigma_E = sigma_B = 0 the material decouples: T -> T_prev exactly
    # even from a perturbed stage temperature
    mesh = SpatialMesh.uniform(4, 2.0)
    rng = np.random.default_rng(8)
    coef = _one_group_coef(mesh, rng)
    coef.sig_E[:] = 0.0
    coef.sig_B[:] = 0.0
    E_star = 0.1 + rng.random(4)
    T_prev = 0.2 + rng.random(4)
    T_stage = T_prev + 0.3 * rng.standard_normal(4)
    T_new, _, _ = grey.solve_grey_meb(
        coef, E_star, None, T_prev, 0.1 * np.ones((1, 4)), np.zeros((1, 5)),
        T_stage, 0.05, MaterialModel(c_v=0.01), mesh)
    assert np.allclose(T_new, T_prev, rtol=1e-13)


def test_frechet_update():
    got = grey.frechet_update(np.array([0.1]), np.array([1.0]),
                              np.array([0.2]), np.array([1.2]))
    assert got[0] == pytest.approx(2.0, rel=1e-13)
    # below the relative-motion threshold the slope is dropped
    got = grey.frechet_update(np.array([0.2]), np.array([1.0]),
                              np.array([0.2 + 1e-15]), np.array([1.2]))
    assert got[0] == 0.0


def _emission(coef, T):
    return phys.C_LIGHT * coef.sig_B[0] * phys.A_RAD * T**4


def _stage_with_slopes(coef, T_stage, dsig, demis, h=1e-3):
    """A previous stage, h below T_stage, from which the divided differences
    of sigma_E and of the emission rate are dsig and demis (to round-off)."""
    return (T_stage - h, coef.sig_E[0] - h * dsig,
            _emission(coef, T_stage) - h * demis)


def _manual_newton(coef, E_star, frechet, demis, T_prev, E_prev, F_prev,
                   T_stage, dt, mat, mesh):
    c, a_R = phys.C_LIGHT, phys.A_RAD
    cv_dt = mat.c_v / dt
    sigE, sigB = coef.sig_E[0], coef.sig_B[0]
    slope = 4.0 * c * sigB * a_R * T_stage**3
    if demis is not None:
        slope = np.where(demis > 0.0, demis, slope)
    beta = slope - c * frechet * E_star
    chi = cv_dt + beta
    beta = np.where(chi <= 0.0, slope, beta)
    chi = cv_dt + beta
    emis = c * sigB * a_R * T_stage**4
    r = emis + cv_dt * (T_stage - T_prev)
    sol = loqd.solve_moment_system(
        coef, E_prev, F_prev, dt, mesh,
        sig_E=(sigE * cv_dt / chi)[None],
        source=(emis - beta * r / chi)[None])
    return np.maximum(T_stage + (c * sigE * sol.E[0] - r) / chi, phys.T_FLOOR)


def test_newton_step_matches_manual_elimination():
    mesh = SpatialMesh.uniform(2, 1.0)
    rng = np.random.default_rng(31)
    coef = _one_group_coef(mesh, rng)
    E_star = 0.2 + rng.random(2)
    T_prev = 0.2 + 0.1 * rng.random(2)
    T_stage = T_prev + 0.05 * rng.standard_normal(2)
    E_prev = 0.2 + rng.random((1, 2))
    F_prev = 0.02 * rng.standard_normal((1, 3))
    mat = MaterialModel(c_v=0.02)
    dt = 0.04
    # no stage: no sigma_E slope and the quartic emission slope
    got, _, stage = grey.solve_grey_meb(coef, E_star, None, T_prev, E_prev,
                                        F_prev, T_stage, dt, mat, mesh)
    ref = _manual_newton(coef, E_star, np.zeros(2), None, T_prev, E_prev,
                         F_prev, T_stage, dt, mat, mesh)
    assert np.allclose(got, ref, rtol=1e-14)
    assert np.array_equal(stage[0], T_stage)
    assert np.array_equal(stage[1], coef.sig_E[0])
    assert np.array_equal(stage[2], _emission(coef, T_stage))
    # a previous stage: both slopes are its divided differences, and the
    # negative emission secant falls back to the quartic slope
    prior = _stage_with_slopes(coef, T_stage, np.array([0.5, -0.8]),
                               np.array([0.9, -1.0]))
    frechet = grey.frechet_update(prior[0], prior[1], T_stage, coef.sig_E[0])
    demis = grey.frechet_update(prior[0], prior[2], T_stage,
                                _emission(coef, T_stage))
    got, _, _ = grey.solve_grey_meb(coef, E_star, prior, T_prev, E_prev,
                                    F_prev, T_stage, dt, mat, mesh)
    ref = _manual_newton(coef, E_star, frechet, demis, T_prev, E_prev,
                         F_prev, T_stage, dt, mat, mesh)
    assert np.allclose(got, ref, rtol=1e-14)


def test_runaway_frechet_guard():
    # a huge positive sigma_E slope would make chi <= 0; those cells must
    # drop the slope instead of stepping backwards
    mesh = SpatialMesh.uniform(2, 1.0)
    rng = np.random.default_rng(4)
    coef = _one_group_coef(mesh, rng)
    E_star = np.full(2, 5.0)
    T_prev = np.full(2, 0.3)
    # a nonpositive emission secant keeps the quartic slope, as with no stage
    prior = _stage_with_slopes(coef, T_prev, np.array([0.0, 1e4]),
                               np.full(2, -1.0))
    mat = MaterialModel(c_v=0.02)
    got, _, _ = grey.solve_grey_meb(coef, E_star, prior, T_prev,
                                    np.full((1, 2), 0.5), np.zeros((1, 3)),
                                    T_prev, 0.05, mat, mesh)
    ref, _, _ = grey.solve_grey_meb(coef, E_star, None, T_prev,
                                    np.full((1, 2), 0.5), np.zeros((1, 3)),
                                    T_prev, 0.05, mat, mesh)
    assert got[1] == pytest.approx(ref[1], rel=1e-14)
    assert np.isfinite(got).all()


def test_temperature_floor():
    # a strongly cooling update may not drive T below the floor
    mesh = SpatialMesh.uniform(1, 1.0)
    rng = np.random.default_rng(6)
    coef = _one_group_coef(mesh, rng)
    coef.sig_E[:] = 0.0   # nothing absorbed
    coef.sig_B[:] = 50.0  # everything radiated away
    mat = MaterialModel(c_v=1e-4)
    T_new, _, _ = grey.solve_grey_meb(
        coef, np.zeros(1), None, np.full(1, 0.5), np.zeros((1, 1)),
        np.zeros((1, 2)), np.full(1, 0.5), 10.0, mat, mesh)
    assert T_new[0] >= phys.T_FLOOR


def test_nan_coefficient_fails_the_newton_step():
    # a NaN grey emission opacity in one cell stops the Newton step at its
    # moment solve, which names the grey level, instead of handing a NaN
    # temperature to the next stage
    mesh = SpatialMesh.uniform(4, 2.0)
    rng = np.random.default_rng(8)
    coef = _one_group_coef(mesh, rng)
    coef.sig_B[0, 2] = np.nan
    T = np.full(4, 0.3)
    with pytest.raises(transport.ConvergenceError,
                       match=r"^low-order solve on level 1: E is nan in "
                             r"interval 0, cell 0$"):
        grey.solve_grey_meb(coef, np.ones(4), None, T, np.ones((1, 4)),
                            np.zeros((1, 5)), T, 0.05,
                            MaterialModel(c_v=0.01), mesh)


def test_overflowing_update_names_its_cell():
    # the update can leave the floats while its moment solve stays finite:
    # with a subnormal heat capacity and no emission, the one absorbing
    # cell divides its absorption by the tiny c_v/dt
    mesh = SpatialMesh.uniform(4, 2.0)
    coef = _one_group_coef(mesh, np.random.default_rng(8))
    coef.sig_B[:] = 0.0
    coef.sig_E[:] = 0.0
    coef.sig_E[0, 2] = 1.0
    T = np.full(4, 0.3)
    with np.errstate(over="ignore"), \
            pytest.raises(transport.ConvergenceError,
                          match=r"^grey Newton step: T_new is inf in cell 2$"):
        grey.solve_grey_meb(coef, np.ones(4), None, T, np.ones((1, 4)),
                            np.zeros((1, 5)), T, 0.05,
                            MaterialModel(c_v=5e-324), mesh)
