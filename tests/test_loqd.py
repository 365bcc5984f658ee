"""Low-order moment systems: direct solves against the dense oracle and the
assembled residuals, and the solution-weighted merge onto coarser spectral
grids; solve and merge bit for bit against their earlier forms in
oracles.py."""

import dataclasses

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (boundary_source, conservation_check, dense_oracle,
                     random_coefficients, residual_norms,
                     restrict_boundary_data, with_faces)

from trtmg import loqd, phys, transport
from trtmg.grids import (SpatialMesh, build_fc_frequency_grid, build_hierarchy,
                         double_gauss_legendre)


def _field(E, E_face, F):
    """The moment field of cell and boundary-face energies and fluxes."""
    return loqd.MomentField(u=with_faces(E, E_face), F=F)


def test_face_rosseland():
    mesh = SpatialMesh(np.array([0.0, 1.0, 4.0]))
    got = loqd.face_rosseland(np.array([[1.0, 3.0]]), mesh)
    assert got[0].tolist() == [1.0, 2.5, 3.0]


def test_equilibrium_fixed_point():
    # Planckian field at uniform temperature with matching boundary data
    # solves the system exactly: E = 2B/c everywhere, F = 0
    mesh = SpatialMesh.uniform(10, 4.0)
    edges = np.concatenate(([0.0], np.logspace(-4, 1, 15), [1e7]))
    T = np.full(10, 0.5)
    rad = phys.radiation_weights(T, phys.log_rule(edges))
    opac = phys.build_group_opacities(T, rad, edges,
                                      phys.FleckCummingsOpacity())
    G = 16
    quad = double_gauss_legendre(8)
    B = opac.B.T
    n = quad.n_neg
    clo = transport.ClosureData.isotropic(
        10, np.tile(0.5 * B[:, 0], (quad.n_dirs - n, 1)),
        np.tile(0.5 * B[:, -1], (n, 1)), quad)
    coef = loqd.build_fine_coefficients(opac, clo, mesh)
    E_eq = 2.0 * B / phys.C_LIGHT
    sol = loqd.solve_moment_system(coef, E_eq, np.zeros((G, 11)), 0.02, mesh)
    assert np.allclose(sol.E, E_eq, rtol=1e-12)
    assert np.allclose(sol.E_face, E_eq[:, [0, -1]], rtol=1e-12)
    assert np.max(np.abs(sol.F)) <= 1e-12 * np.max(phys.C_LIGHT * E_eq)


def test_solver_matches_dense_oracle():
    mesh = SpatialMesh(np.array([0.0, 0.8, 2.0]))
    rng = np.random.default_rng(23)
    coef = random_coefficients(2, mesh, rng, with_eta=True)
    E_prev = 0.1 + rng.random((2, 2))
    F_prev = 0.1 * rng.standard_normal((2, 3))
    dt = 0.04
    got = loqd.solve_moment_system(coef, E_prev, F_prev, dt, mesh)
    ref = dense_oracle(coef, E_prev, F_prev, dt, mesh)
    assert np.allclose(got.u, ref.u, rtol=1e-12)
    assert np.allclose(got.F, ref.F, rtol=1e-12, atol=1e-14)
    assert residual_norms(coef, got, E_prev, F_prev, dt, mesh) <= 1e-12


@pytest.mark.parametrize("field", ["sig_E", "f", "sig_R_face"])
def test_nan_coefficient_fails_the_solve(field):
    # a NaN coefficient of one interval stops the solve at once; the
    # elimination carries it to every row of that interval only, so the
    # first non-finite entry is the interval's first cell
    mesh = SpatialMesh(np.array([0.0, 0.7, 1.5, 2.1]))
    rng = np.random.default_rng(5)
    coef = dataclasses.replace(random_coefficients(3, mesh, rng), level=1)
    getattr(coef, field)[2, 1] = np.nan
    with pytest.raises(transport.ConvergenceError,
                       match=r"^low-order solve on level 1: E is nan in "
                             r"interval 2, cell 0$"):
        loqd.solve_moment_system(coef, 0.2 + rng.random((3, 3)),
                                 np.zeros((3, 4)), 0.03, mesh)


def test_solver_override_paths():
    mesh = SpatialMesh.uniform(3, 1.5)
    rng = np.random.default_rng(5)
    coef = random_coefficients(2, mesh, rng)
    E_prev = rng.random((2, 3))
    F_prev = 0.1 * rng.standard_normal((2, 4))
    sig = 0.5 + rng.random((2, 3))
    src = rng.random((2, 3))
    got = loqd.solve_moment_system(coef, E_prev, F_prev, 0.1, mesh,
                                   sig_E=sig, source=src)
    ref = dense_oracle(coef, E_prev, F_prev, 0.1, mesh, sig_E=sig, source=src)
    assert np.allclose(got.E, ref.E, rtol=1e-12)
    assert residual_norms(coef, got, E_prev, F_prev, 0.1, mesh,
                          sig_E=sig, source=src) <= 1e-12
    # default source is the emission integral
    a = loqd.solve_moment_system(coef, E_prev, F_prev, 0.1, mesh)
    b = loqd.solve_moment_system(coef, E_prev, F_prev, 0.1, mesh,
                                 source=2.0 * coef.sig_B * coef.B)
    assert np.array_equal(a.E, b.E)


def test_merge_weighted_means():
    mesh = SpatialMesh.uniform(1, 1.0)
    rng = np.random.default_rng(1)
    coef = random_coefficients(2, mesh, rng)
    coef.sig_E[:, 0] = [2.0, 4.0]
    coef.sig_B[:, 0] = [2.0, 4.0]
    coef.B[:, 0] = [1.0, 3.0]
    coef.sig_R_face[:] = [[1.0], [3.0]] * np.ones((2, 2))
    sol = loqd.MomentField(u=np.array([[1.0, 1.0, 2.0], [3.0, 3.0, 2.0]]),
                           F=np.array([[2.0, 2.0], [4.0, 4.0]]))
    got = loqd.merge_coefficients(coef, sol, np.array([0, 2]), level_out=1)
    assert got.sig_E[0, 0] == pytest.approx(3.5)          # E-weighted
    assert got.sig_B[0, 0] == pytest.approx(3.5)          # B-weighted
    assert got.B[0, 0] == pytest.approx(4.0)              # summed
    # Rosseland averages arithmetically with |F| weights:
    # (1*2 + 3*4) / (2+4) = 7/3
    assert got.sig_R_face[0, 0] == pytest.approx(7.0 / 3.0)
    assert got.bc_in[0].tolist() == list(coef.bc_in.sum(axis=0))
    # degenerate flux weights fall back to the harmonic mean
    sol.F[:] = 0.0
    got = loqd.merge_coefficients(coef, sol, np.array([0, 2]), level_out=1)
    assert got.sig_R_face[0, 0] == pytest.approx(1.5)     # 2/(1/1 + 1/3)


def test_merge_consistency_fine_to_coarse_to_grey():
    # the merged system, solved with restricted previous-time data, must
    # reproduce the restriction of the source-level solution exactly
    mesh = SpatialMesh(np.array([0.0, 0.7, 1.5, 2.1]))
    hier = build_hierarchy(build_fc_frequency_grid(4), (4, 2, 1))
    rng = np.random.default_rng(77)
    coef = random_coefficients(4, mesh, rng)
    E_prev = 0.2 + rng.random((4, 3))
    F_prev = 0.05 * rng.standard_normal((4, 4))
    dt = 0.03
    sol = loqd.solve_moment_system(coef, E_prev, F_prev, dt, mesh)

    for level in (1, 2):
        merged = loqd.merge_coefficients(coef, sol, hier.starts_fine[level],
                                         level)
        ref_E = hier.restrict(sol.E, level)
        got = loqd.solve_moment_system(merged, hier.restrict(E_prev, level),
                                       hier.restrict(F_prev, level), dt, mesh)
        scale = np.max(np.abs(ref_E))
        assert np.max(np.abs(got.E - ref_E)) <= 1e-10 * scale
        assert np.max(np.abs(got.F - hier.restrict(sol.F, level))) \
            <= 1e-10 * phys.C_LIGHT * scale
        dE, dF = conservation_check(sol, got, hier, level)
        assert dE <= 1e-10 and dF <= 1e-10

    # second hop: coarse level merged again down to grey, eta terms folded
    c_coef = loqd.merge_coefficients(coef, sol, hier.starts_fine[1], 1)
    c_sol = loqd.solve_moment_system(c_coef, hier.restrict(E_prev, 1),
                                     hier.restrict(F_prev, 1), dt, mesh)
    g_coef = loqd.merge_coefficients(c_coef, c_sol, np.array([0, 2]), 2)
    g_sol = loqd.solve_moment_system(g_coef, hier.restrict(E_prev, 2),
                                     hier.restrict(F_prev, 2), dt, mesh)
    assert np.allclose(g_sol.E, c_sol.E.sum(axis=0, keepdims=True),
                       rtol=1e-10)
    assert np.allclose(g_sol.F, c_sol.F.sum(axis=0, keepdims=True),
                       rtol=1e-10, atol=1e-12)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(G=st.integers(2, 12), nx=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_merged_boundary_source_matches_three_array_restriction(G, nx, seed):
    # the summed bc_in equals the boundary source restricted as three arrays
    # (E_in, F_in, and an offset for the change of C), over two merges
    mesh = SpatialMesh.uniform(nx, 1.0)
    rng = np.random.default_rng(seed)
    coef = random_coefficients(G, mesh, rng, with_eta=True)
    bc = (0.1 * rng.random((G, 2)),
          np.column_stack([0.2 * rng.random(G), -0.2 * rng.random(G)]),
          0.05 * rng.standard_normal((G, 2)))
    coef.bc_in = boundary_source(*bc, coef)
    coarse = np.concatenate(([0], np.flatnonzero(rng.random(G - 1) < 0.5) + 1,
                             [G]))
    for starts in (coarse, np.array([0, len(coarse) - 1])):
        P = starts[-1]
        sol = _field(0.1 + rng.random((P, nx)), 0.1 + rng.random((P, 2)),
                     rng.standard_normal((P, nx + 1)))
        merged = loqd.merge_coefficients(coef, sol, starts, coef.level + 1)
        bc = restrict_boundary_data(*bc, coef, merged, starts)
        want = boundary_source(*bc, merged)
        assert np.max(np.abs(merged.bc_in - want)) \
            <= 1e-13 * np.max(np.abs(want))
        coef = merged
    # one interval per segment keeps the source bit for bit
    coef = random_coefficients(G, mesh, rng, with_eta=True)
    sol = _field(0.1 + rng.random((G, nx)), 0.1 + rng.random((G, 2)),
                 rng.standard_normal((G, nx + 1)))
    merged = loqd.merge_coefficients(coef, sol, np.arange(G + 1), 1)
    assert np.array_equal(merged.bc_in, coef.bc_in)


def _same_solution(coef, E_prev, F_prev, dt, mesh, **override):
    got = loqd.solve_moment_system(coef, E_prev, F_prev, dt, mesh, **override)
    ref = oracles.solve_moment_system(coef, E_prev, F_prev, dt, mesh,
                                      **override)
    for name in ("u", "F"):
        # same bits and same memory layout, since callers sum over axis 0
        # in layout order
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert getattr(got, name).strides == getattr(ref, name).strides, name
    return got


def _same_merge(coef, sol, starts, level_out):
    got = loqd.merge_coefficients(coef, sol, starts, level_out)
    # the oracle forms a zero-weight segment's eta quotient, then drops it
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = oracles.merge_coefficients(coef, sol, starts, level_out)
    assert got.level == ref.level == level_out
    for field in dataclasses.fields(ref):
        if field.name != "level":
            assert np.array_equal(getattr(got, field.name),
                                  getattr(ref, field.name)), field.name
    return got


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(G=st.integers(1, 12),
       dx=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=5),
       with_eta=st.booleans(), degenerate=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_solve_and_merge_match_reference_bitwise(G, dx, with_eta, degenerate,
                                                 seed):
    # fine solve, merge onto random segments, coarse solve, merge to grey
    # and a grey solve with the sig_E/source overrides, each held bit for
    # bit to oracles.py.  A degenerate segment has all-zero weights (u, B
    # and |F|), next to normal ones, so every weighted mean takes its
    # fallback there: arithmetic for sig_E, f, sig_B and C, harmonic for
    # sig_R_face.
    mesh = SpatialMesh(np.concatenate(([0.0], np.cumsum(dx))))
    nx, dt = mesh.n_cells, 0.03
    rng = np.random.default_rng(seed)
    coef = random_coefficients(G, mesh, rng, with_eta=with_eta)
    E_prev = 0.2 + rng.random((G, nx))
    F_prev = 0.05 * rng.standard_normal((G, nx + 1))
    sol = _same_solution(coef, E_prev, F_prev, dt, mesh)

    starts = np.concatenate(([0], np.flatnonzero(rng.random(G - 1) < 0.5) + 1,
                             [G]))
    if degenerate and starts.size > 2:
        k = rng.integers(starts.size - 1)
        run = slice(starts[k], starts[k + 1])
        for w in (sol.u, sol.F, coef.B):
            w[run] = 0.0
    coarse = _same_merge(coef, sol, starts, 1)
    E_c = np.add.reduceat(E_prev, starts[:-1], axis=0)
    F_c = np.add.reduceat(F_prev, starts[:-1], axis=0)
    sol_c = _same_solution(coarse, E_c, F_c, dt, mesh)

    grey = _same_merge(coarse, sol_c, np.array([0, starts.size - 1]), 2)
    _same_solution(grey, E_prev.sum(axis=0, keepdims=True),
                   F_prev.sum(axis=0, keepdims=True), dt, mesh,
                   sig_E=0.5 + rng.random((1, nx)),
                   source=rng.random((1, nx)))


def test_merge_eta_sign_split():
    mesh = SpatialMesh.uniform(4, 2.0)
    rng = np.random.default_rng(13)
    coef = random_coefficients(6, mesh, rng)
    E_prev = 0.2 + rng.random((6, 4))
    F_prev = 0.05 * rng.standard_normal((6, 5))
    sol = loqd.solve_moment_system(coef, E_prev, F_prev, 0.05, mesh)
    merged = loqd.merge_coefficients(coef, sol, np.array([0, 3, 6]), 1)
    # compensation lands on exactly one side of each face
    assert np.all(merged.eta_hat * merged.eta_check == 0.0)
    assert np.all(merged.eta_hat >= 0.0)
    assert np.all(merged.eta_check >= 0.0)


def test_merge_eta_vanishes_for_uniform_rosseland():
    mesh = SpatialMesh.uniform(3, 1.0)
    rng = np.random.default_rng(29)
    coef = random_coefficients(4, mesh, rng)
    coef.sig_R_face[:] = 1.7  # no spread between groups
    E_prev = 0.2 + rng.random((4, 3))
    F_prev = 0.05 * rng.standard_normal((4, 4))
    sol = loqd.solve_moment_system(coef, E_prev, F_prev, 0.05, mesh)
    merged = loqd.merge_coefficients(coef, sol, np.array([0, 4]), 1)
    assert np.max(np.abs(merged.eta_hat)) <= 1e-14
    assert np.max(np.abs(merged.eta_check)) <= 1e-14


def test_conservation_check_flags_mismatch():
    hier = build_hierarchy(build_fc_frequency_grid(4), (4, 1))
    sol = loqd.MomentField(u=np.ones((4, 4)), F=np.ones((4, 3)))
    good = loqd.MomentField(u=hier.restrict(sol.u, 1),
                            F=hier.restrict(sol.F, 1))
    dE, dF = conservation_check(sol, good, hier, 1)
    assert dE == 0.0 and dF == 0.0
    bad = _field(good.E * 1.01, good.E_face, good.F)
    dE, _ = conservation_check(sol, bad, hier, 1)
    assert dE >= 1e-3
