"""Corner-balance sweep and angular-moment closures; the sweep is checked
against a dense solve of its corner equations, a group energy balance and,
bit for bit, the two-loop sweep in oracles.py, and the closures bit for bit
against that sweep's closure extraction."""

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import compute_moments, dense_sweep_oracle, group_balance_residual

from trtmg import phys, transport
from trtmg.grids import AngularQuadrature, SpatialMesh, double_gauss_legendre


def _two_dir_quad():
    return AngularQuadrature(mu=np.array([-1.0, 1.0]), w=np.array([1.0, 1.0]))


# half ranges of unequal size: two directions with mu < 0, three with mu > 0
UNEVEN = AngularQuadrature(mu=np.array([-0.8, -0.3, 0.2, 0.5, 0.9]),
                           w=np.array([0.5, 0.5, 0.3, 0.4, 0.3]))
QUADRATURES = {
    "symmetric": double_gauss_legendre(2),
    "uneven": UNEVEN,
    "positive": AngularQuadrature(mu=np.array([0.3, 0.7]),
                                  w=np.array([1.0, 1.0])),
    "negative": AngularQuadrature(mu=np.array([-0.9, -0.1]),
                                  w=np.array([1.0, 1.0])),
}


def _relayout(psi):
    """Between the groups-leading (G, M, n_x, 2) layout of the oracles and
    the cells-leading (n_x, 2, G, M) one of transport; the transpose is its
    own inverse."""
    return np.ascontiguousarray(psi.transpose(2, 3, 0, 1))


def test_hand_corner_values():
    # one cell, mu = 1, sigma dx = 2, steady, unit inflow, no source:
    # (h+a) L + h R = mu, -h L + (h+a) R = 0 with h = 1/2, a = 1
    quad = _two_dir_quad()
    mesh = SpatialMesh.uniform(1, 1.0)
    psi_prev = np.zeros((1, 2, 1, 2))      # (n_x, 2, G, M)
    inc_left = np.array([[0.0, 1.0]])
    inc_right = np.zeros((1, 2))
    sigma = np.full((1, 1), 2.0)
    q = np.zeros((1, 1))
    psi = transport.sweep_all(psi_prev, inc_left, inc_right, sigma, q, mesh,
                              quad, np.inf)
    assert psi[0, 0, 0, 1] == pytest.approx(0.6, rel=1e-14)
    assert psi[0, 1, 0, 1] == pytest.approx(0.2, rel=1e-14)
    # mirrored problem: unit inflow from the right into mu = -1
    psi = transport.sweep_all(psi_prev, np.zeros((1, 2)),
                              np.array([[1.0, 0.0]]), sigma, q, mesh, quad,
                              np.inf)
    assert psi[0, 1, 0, 0] == pytest.approx(0.6, rel=1e-14)
    assert psi[0, 0, 0, 0] == pytest.approx(0.2, rel=1e-14)


def test_free_streaming():
    quad = double_gauss_legendre(4)
    mesh = SpatialMesh.uniform(6, 3.0)
    G, M, nx = 2, quad.n_dirs, 6
    rng = np.random.default_rng(11)
    inc_left = rng.random((G, M))
    inc_right = rng.random((G, M))
    psi = transport.sweep_all(np.zeros((nx, 2, G, M)), inc_left, inc_right,
                              np.zeros((nx, G)), np.zeros((nx, G)), mesh,
                              quad, np.inf)
    pos = quad.positive
    for m in np.flatnonzero(pos):
        assert np.allclose(psi[..., m], inc_left[:, m], rtol=1e-13)
    for m in np.flatnonzero(~pos):
        assert np.allclose(psi[..., m], inc_right[:, m], rtol=1e-13)


def test_equilibrium_intensity_is_fixed_point():
    # isotropic Planckian field B_g/2 with matching inflow and emission
    # source sigma*B_g survives the sweep unchanged, steady or implicit
    quad = double_gauss_legendre(8)
    mesh = SpatialMesh.uniform(10, 4.0)
    edges = np.concatenate(([0.0], np.logspace(-4, 1, 15), [1e7]))
    G, M, nx = 16, quad.n_dirs, 10
    T = 0.7
    B = phys.planck_groups(np.array([T]), edges)[0]
    sigma = np.tile(np.linspace(0.5, 3.0, G), (nx, 1))
    q = sigma * B
    psi_eq = np.broadcast_to(0.5 * B[:, None], (nx, 2, G, M)).copy()
    inc = np.broadcast_to(0.5 * B[:, None], (G, M)).copy()
    for dt in (np.inf, 0.02):
        psi = transport.sweep_all(psi_eq, inc, inc, sigma, q, mesh, quad, dt)
        assert np.allclose(psi, psi_eq, rtol=1e-13)
    clo = transport.compute_qd_factors(psi_eq, inc, inc, quad)
    assert np.allclose(clo.f, 1.0 / 3.0, rtol=1e-14)
    assert np.allclose(clo.f_face, 1.0 / 3.0, rtol=1e-14)
    assert np.allclose(clo.C[:, 0], -0.5, rtol=1e-14)
    assert np.allclose(clo.C[:, 1], 0.5, rtol=1e-14)


def test_sweep_matches_dense_solve():
    mesh = SpatialMesh(np.array([0.0, 0.3, 1.0, 1.4, 2.5]))
    for quad in (double_gauss_legendre(2), UNEVEN):
        G, M, nx = 2, quad.n_dirs, 4
        rng = np.random.default_rng(7)
        psi_prev = rng.random((nx, 2, G, M))
        inc_left = rng.random((G, M))
        inc_right = rng.random((G, M))
        sigma = 0.1 + 3.0 * rng.random((nx, G))
        q = rng.random((nx, G))
        for dt in (np.inf, 0.05):
            got = transport.sweep_all(psi_prev, inc_left, inc_right, sigma, q,
                                      mesh, quad, dt)
            ref = dense_sweep_oracle(psi_prev, inc_left, inc_right, sigma, q,
                                     mesh, quad, dt)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-14)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(G=st.integers(1, 3),
       dx=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6),
       quad=st.sampled_from(sorted(QUADRATURES)),
       dt=st.sampled_from([np.inf, 0.05]),
       seed=st.integers(0, 2**32 - 1))
def test_sweep_matches_two_loop_reference(G, dx, quad, dt, seed):
    quad = QUADRATURES[quad]
    mesh = SpatialMesh(np.concatenate(([0.0], np.cumsum(dx))))
    M, nx = quad.n_dirs, len(dx)
    rng = np.random.default_rng(seed)
    psi_prev, inc_left, inc_right = (rng.random((G, M, nx, 2)),
                                     rng.random((G, M)), rng.random((G, M)))
    sigma, q = 0.1 + 5.0 * rng.random((G, nx)), rng.random((G, nx))
    ref = oracles.sweep_all(psi_prev, inc_left, inc_right, sigma, q, mesh,
                            quad, dt)
    got = transport.sweep_all(_relayout(psi_prev), inc_left, inc_right,
                              sigma.T.copy(), q.T.copy(), mesh, quad, dt)
    assert np.array_equal(got, _relayout(ref))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(G=st.integers(1, 3), nx=st.integers(1, 6),
       quad=st.sampled_from(sorted(QUADRATURES)),
       seed=st.integers(0, 2**32 - 1))
def test_closures_match_groups_leading_reference(G, nx, quad, seed):
    quad = QUADRATURES[quad]
    M = quad.n_dirs
    rng = np.random.default_rng(seed)
    psi = rng.random((nx, 2, G, M))
    psi[:, :, rng.random(G) < 0.3] = 0.0      # empty groups take the fallbacks
    inc_left, inc_right = rng.random((G, M)), rng.random((G, M))
    got = transport.compute_qd_factors(psi, inc_left, inc_right, quad)
    ref = oracles.compute_qd_factors(_relayout(psi), inc_left, inc_right,
                                     quad)
    for name in ("f", "f_face", "C", "bc_in"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_boundary_closure_reproduces_face_moments(n):
    # 2 F_face = c C (2 E_face) + bc_in at both faces (twice the psi moments
    # are the moment system's), under random non-isotropic inflow: for the
    # closures of a swept field, and for the isotropic closure of a field
    # isotropic per group
    quad = double_gauss_legendre(n)
    mesh = SpatialMesh.uniform(4, 2.0)
    G, M, nx = 3, quad.n_dirs, 4
    rng = np.random.default_rng(n)
    inc_left, inc_right = rng.random((G, M)), rng.random((G, M))
    swept = transport.sweep_all(rng.random((nx, 2, G, M)), inc_left,
                                inc_right, 0.2 + rng.random((nx, G)),
                                rng.random((nx, G)), mesh, quad, 0.1)
    iso = np.broadcast_to(rng.random(G)[:, None], (nx, 2, G, M)).copy()
    for psi, clo in (
            (swept, transport.compute_qd_factors(swept, inc_left, inc_right,
                                                 quad)),
            (iso, transport.ClosureData.isotropic(nx, inc_left, inc_right,
                                                  quad))):
        _, E_face, F = compute_moments(psi, inc_left, inc_right, quad)
        terms = np.stack([2.0 * F[:, [0, -1]],
                          -phys.C_LIGHT * clo.C * (2.0 * E_face), -clo.bc_in])
        defect = np.abs(terms.sum(axis=0)) / np.max(np.abs(terms), axis=0)
        assert np.max(defect) <= 1e-13


def test_group_balance_residual_small():
    quad = double_gauss_legendre(4)
    mesh = SpatialMesh.uniform(5, 2.0)
    G, M, nx = 3, quad.n_dirs, 5
    rng = np.random.default_rng(3)
    psi_prev = rng.random((nx, 2, G, M))
    inc_left = rng.random((G, M))
    inc_right = rng.random((G, M))
    sigma = 0.2 + rng.random((nx, G))
    q = rng.random((nx, G))
    psi = transport.sweep_all(psi_prev, inc_left, inc_right, sigma, q, mesh,
                              quad, 0.1)
    res = group_balance_residual(psi, psi_prev, inc_left, inc_right, sigma, q,
                                 mesh, quad, 0.1)
    assert res <= 1e-12


def test_nonnegative_from_nonnegative_data():
    quad = double_gauss_legendre(4)
    mesh = SpatialMesh.uniform(8, 4.0)
    G, M, nx = 2, quad.n_dirs, 8
    rng = np.random.default_rng(19)
    for _ in range(5):
        psi = transport.sweep_all(
            rng.random((nx, 2, G, M)), rng.random((G, M)), rng.random((G, M)),
            5.0 * rng.random((nx, G)), rng.random((nx, G)), mesh, quad,
            rng.uniform(0.01, 1.0))
        assert psi.min() >= -1e-15


def test_moments_of_isotropic_field():
    quad = double_gauss_legendre(8)
    G, M, nx = 2, quad.n_dirs, 4
    val = np.array([3.0, 5.0])
    psi = np.broadcast_to(val[:, None], (nx, 2, G, M)).copy()
    inc = np.broadcast_to(val[:, None], (G, M)).copy()
    E, E_face, F = compute_moments(psi, inc, inc, quad)
    assert np.allclose(E, 2.0 * val[:, None] / phys.C_LIGHT, rtol=1e-14)
    assert np.allclose(E_face, 2.0 * val[:, None] / phys.C_LIGHT, rtol=1e-14)
    assert np.allclose(F, 0.0, atol=1e-15)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="ClosureData.isotropic hard-codes C = -1/2, 1/2 "
                          "and f = 1/3, the isotropic closure of half ranges "
                          "with sum w mu = sum w / 2 only")
def test_isotropic_closure_is_the_sweep_closure_of_an_isotropic_field():
    # on UNEVEN the closures of an isotropic field are f = 0.72 / 2 = 0.36
    # and C = (-0.55, 0.53), so the run's first pass, which takes its
    # closure from ClosureData.isotropic, would use another boundary closure
    # than every later pass
    G, M, nx = 2, UNEVEN.n_dirs, 3
    val = np.array([3.0, 5.0])
    psi = np.broadcast_to(val[:, None], (nx, 2, G, M)).copy()
    inc = np.broadcast_to(val[:, None], (G, M)).copy()
    want = transport.compute_qd_factors(psi, inc, inc, UNEVEN)
    got = transport.ClosureData.isotropic(nx, inc, inc, UNEVEN)
    for name in ("f", "f_face", "C", "bc_in"):
        assert np.allclose(getattr(got, name), getattr(want, name),
                           rtol=1e-14, atol=0.0), name


def test_transport_solve_equilibrium_closures():
    # end to end through the opacity set: equilibrium stays put and the
    # closures come back isotropic
    quad = double_gauss_legendre(8)
    mesh = SpatialMesh.uniform(10, 4.0)
    edges = np.concatenate(([0.0], np.logspace(-4, 1, 15), [1e7]))
    T = np.full(10, 0.7)
    rad = phys.radiation_weights(T, phys.log_rule(edges))
    opac = phys.build_group_opacities(T, rad, edges,
                                      phys.FleckCummingsOpacity())
    B = opac.B  # (nx, G)
    G, M = 16, quad.n_dirs
    psi_prev = np.empty((10, 2, G, M))
    psi_prev[:] = 0.5 * B[:, None, :, None]
    inc = 0.5 * B[0, :, None] * np.ones((G, M))
    psi, clo = transport.transport_solve(psi_prev, inc, inc, opac, mesh, quad,
                                         0.02)
    assert np.allclose(psi, psi_prev, rtol=1e-12)
    assert np.allclose(clo.f, 1.0 / 3.0, rtol=1e-12)
    assert np.allclose(clo.C[:, 0], -0.5, rtol=1e-12)
    assert np.allclose(clo.C[:, 1], 0.5, rtol=1e-12)
