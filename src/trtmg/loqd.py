"""Low-order quasidiffusion moment systems on any frequency grid level.

Unknowns per spectral interval: cell energy densities E_i, two boundary-face
energy densities, and face fluxes F.  Cell balance couples E to the face
fluxes and the emission source; the first-moment equation lives on dual
cells (half cells at the boundaries) and is closed by Eddington factors from
transport plus, on coarse grids, upwinded compensation terms (eta) that make
the coarse equations agree exactly with the summed fine-grid equations at
the fine solution.

Normalization: an isotropic equilibrium field at temperature T has
E_g = 2 B_g / c, so the spectrum-integrated energy density is a_R T^4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import SpatialMesh, segment_sum
from .phys import C_LIGHT, GroupOpacitySet
from .transport import ClosureData


@dataclass
class LoqdCoefficients:
    """Discrete coefficients of one level's moment system; every array is
    indexed (intervals, ...)."""

    level: int
    sig_E: np.ndarray       # (P, n_x)
    sig_B: np.ndarray       # (P, n_x)
    B: np.ndarray           # (P, n_x) group emission integrals
    f: np.ndarray           # (P, n_x) cell Eddington factors
    f_face: np.ndarray      # (P, 2)
    sig_R_face: np.ndarray  # (P, n_x+1)
    eta_hat: np.ndarray     # (P, n_x+1) compensation on the face's right entity
    eta_check: np.ndarray   # (P, n_x+1) compensation on the face's left entity
    C_minus: np.ndarray     # (P,)
    C_plus: np.ndarray      # (P,)
    E_in: np.ndarray        # (P, 2) incoming half-range energy densities
    F_in: np.ndarray        # (P, 2) incoming partial fluxes (signed)
    bc_offset: np.ndarray   # (P, 2) flux offsets keeping restricted BCs exact

    @property
    def n_intervals(self) -> int:
        return self.sig_E.shape[0]


@dataclass
class MomentField:
    """Solution of one level's moment system."""

    E: np.ndarray        # (P, n_x)
    E_face: np.ndarray   # (P, 2)
    F: np.ndarray        # (P, n_x+1)

    def total_E(self) -> np.ndarray:
        return self.E.sum(axis=0)


def face_rosseland(sig_cell: np.ndarray, mesh: SpatialMesh) -> np.ndarray:
    """Width-weighted interpolation of cell Rosseland opacities to faces;
    boundary faces copy the adjacent cell."""
    dx = mesh.dx
    out = np.empty((sig_cell.shape[0], mesh.n_cells + 1))
    out[:, 0] = sig_cell[:, 0]
    out[:, -1] = sig_cell[:, -1]
    out[:, 1:-1] = (sig_cell[:, :-1] * dx[:-1] + sig_cell[:, 1:] * dx[1:]) \
        / (dx[:-1] + dx[1:])
    return out


def build_fine_coefficients(opac: GroupOpacitySet, closure: ClosureData,
                            E_in: np.ndarray, F_in: np.ndarray,
                            mesh: SpatialMesh) -> LoqdCoefficients:
    """Assemble the fine-grid (level 0) coefficients from group opacities and
    transport closures.  E_in/F_in are (G, 2) incoming moment data."""
    G, nx = closure.f.shape
    return LoqdCoefficients(
        level=0,
        sig_E=opac.sig_E.T.copy(),
        sig_B=opac.sig_B.T.copy(),
        B=opac.B.T.copy(),
        f=closure.f.copy(),
        f_face=closure.f_face.copy(),
        sig_R_face=face_rosseland(opac.sig_R.T, mesh),
        eta_hat=np.zeros((G, nx + 1)),
        eta_check=np.zeros((G, nx + 1)),
        C_minus=closure.C_minus.copy(),
        C_plus=closure.C_plus.copy(),
        E_in=np.asarray(E_in, dtype=float).copy(),
        F_in=np.asarray(F_in, dtype=float).copy(),
        bc_offset=np.zeros((G, 2)),
    )


def _thomas(lower, diag, upper, rhs):
    """Banded elimination of a batch of tridiagonal systems (rows independent)."""
    n = diag.shape[1]
    d = diag.copy()
    r = rhs.copy()
    for k in range(1, n):
        m = lower[:, k] / d[:, k - 1]
        d[:, k] = d[:, k] - m * upper[:, k - 1]
        r[:, k] = r[:, k] - m * r[:, k - 1]
    x = np.empty_like(r)
    x[:, -1] = r[:, -1] / d[:, -1]
    for k in range(n - 2, -1, -1):
        x[:, k] = (r[:, k] - upper[:, k] * x[:, k + 1]) / d[:, k]
    return x


def solve_moment_system(coef: LoqdCoefficients, E_prev: np.ndarray,
                        F_prev: np.ndarray, dt: float, mesh: SpatialMesh,
                        sig_E=None, source=None) -> MomentField:
    """Direct banded solve of one level's moment system for one time step.

    Face fluxes are eliminated from the first-moment equations, leaving a
    tridiagonal system in [E_left_face, E_cells..., E_right_face] per
    interval.  sig_E/source override the absorption and emission density
    (used by the grey solve); source defaults to 2 sigma_B B.
    """
    c = C_LIGHT
    P, nx = coef.sig_E.shape
    if sig_E is None:
        sig_E = coef.sig_E
    if source is None:
        source = 2.0 * coef.sig_B * coef.B
    # F = (R + c a1 u_left - c a2 u_right)/D on every face.  eta carries
    # units 1/cm and scales with the dual-cell width here, which is exactly
    # what makes the merged first-moment equation reproduce the summed
    # originals (the sigma_R spread term it compensates is width-weighted too).
    tau = 1.0 / (c * dt)
    dxd = mesh.dual_dx[None, :]
    D = dxd * (tau + coef.sig_R_face)
    a1 = np.empty_like(coef.sig_R_face)
    a2 = np.empty_like(coef.sig_R_face)
    a1[:, 0] = coef.f_face[:, 0]
    a1[:, 1:] = coef.f
    a1 += dxd * coef.eta_check
    a2[:, -1] = coef.f_face[:, 1]
    a2[:, :-1] = coef.f
    a2 += dxd * coef.eta_hat
    R = dxd * tau * F_prev

    dx = mesh.dx[None, :]
    lower = np.zeros((P, nx + 2))
    diag = np.zeros((P, nx + 2))
    upper = np.zeros((P, nx + 2))
    rhs = np.zeros((P, nx + 2))

    diag[:, 0] = c * a1[:, 0] / D[:, 0] - c * coef.C_minus
    upper[:, 0] = -c * a2[:, 0] / D[:, 0]
    rhs[:, 0] = (coef.F_in[:, 0] + coef.bc_offset[:, 0]
                 - c * coef.C_minus * coef.E_in[:, 0] - R[:, 0] / D[:, 0])

    lower[:, 1:-1] = -c * a1[:, :-1] / D[:, :-1]
    diag[:, 1:-1] = (dx / dt + c * sig_E * dx
                     + c * a1[:, 1:] / D[:, 1:] + c * a2[:, :-1] / D[:, :-1])
    upper[:, 1:-1] = -c * a2[:, 1:] / D[:, 1:]
    rhs[:, 1:-1] = (source * dx + dx / dt * E_prev
                    - R[:, 1:] / D[:, 1:] + R[:, :-1] / D[:, :-1])

    lower[:, -1] = c * a1[:, -1] / D[:, -1]
    diag[:, -1] = -c * a2[:, -1] / D[:, -1] - c * coef.C_plus
    rhs[:, -1] = (coef.F_in[:, 1] + coef.bc_offset[:, 1]
                  - c * coef.C_plus * coef.E_in[:, 1] - R[:, -1] / D[:, -1])

    u = _thomas(lower, diag, upper, rhs)
    F = (R + c * a1 * u[:, :-1] - c * a2 * u[:, 1:]) / D
    return MomentField(E=u[:, 1:-1], E_face=u[:, [0, -1]], F=F)


def _wmean(values: np.ndarray, weights: np.ndarray, starts: np.ndarray,
           harmonic: bool = False) -> np.ndarray:
    """Weighted mean over index segments with a degenerate-weight fallback
    (plain arithmetic mean, or harmonic mean for Rosseland opacities)."""
    num = segment_sum(values * weights, starts)
    den = segment_sum(weights, starts)
    counts = np.diff(starts).reshape((-1,) + (1,) * (values.ndim - 1))
    if harmonic:
        fallback = counts / segment_sum(1.0 / values, starts)
    else:
        fallback = segment_sum(values, starts) / counts
    good = den > 1e-300
    return np.where(good, num / np.where(good, den, 1.0), fallback)


def _expand(coarse: np.ndarray, starts: np.ndarray) -> np.ndarray:
    return np.repeat(coarse, np.diff(starts), axis=0)


def merge_coefficients(coef: LoqdCoefficients, sol: MomentField,
                       starts: np.ndarray, level_out: int) -> LoqdCoefficients:
    """Restrict a level's coefficients onto merged spectral intervals, using
    that level's moment solution as weights.

    Eddington factors and sigma_E average with weight E, sigma_B with weight
    B, face Rosseland opacities with weight |F|; the flux compensation terms
    eta are built so the merged first-moment equations reproduce the summed
    originals exactly at the given solution, with the sign-split placing the
    correction on the downwind side.  Boundary C factors average with the
    face E weight and the incoming-flux offset keeps the merged boundary
    condition exact.
    """
    c = C_LIGHT
    starts = np.asarray(starts, dtype=int)

    E_p = segment_sum(sol.E, starts)
    Eface_p = segment_sum(sol.E_face, starts)
    B_p = segment_sum(coef.B, starts)

    sig_E = _wmean(coef.sig_E, sol.E, starts)
    f = _wmean(coef.f, sol.E, starts)
    sig_B = _wmean(coef.sig_B, coef.B, starts)
    f_face = _wmean(coef.f_face, sol.E_face, starts)
    sig_R_face = _wmean(coef.sig_R_face, np.abs(sol.F), starts, harmonic=True)

    # xi collects everything the merged sigma_R cannot represent: the spread
    # of the source level's face opacities about the mean, plus any
    # compensation terms the source level already carried (zero on the fine
    # grid; folding them in keeps grey-from-coarse merges exact too).
    left_src = np.concatenate([sol.E_face[:, :1], sol.E], axis=1)
    right_src = np.concatenate([sol.E, sol.E_face[:, 1:]], axis=1)
    xi = segment_sum((coef.sig_R_face - _expand(sig_R_face, starts)) * sol.F
                     + c * (coef.eta_hat * right_src
                            - coef.eta_check * left_src), starts)
    left_E = np.concatenate([Eface_p[:, :1], E_p], axis=1)
    right_E = np.concatenate([E_p, Eface_p[:, 1:]], axis=1)
    eta_hat = np.where((xi > 0.0) & (right_E > 1e-300), xi / (c * right_E), 0.0)
    eta_check = np.where((xi < 0.0) & (left_E > 1e-300), -xi / (c * left_E), 0.0)

    C_minus = _wmean(coef.C_minus[:, None], sol.E_face[:, :1], starts)[:, 0]
    C_plus = _wmean(coef.C_plus[:, None], sol.E_face[:, 1:], starts)[:, 0]
    E_in = segment_sum(coef.E_in, starts)
    F_in = segment_sum(coef.F_in, starts)
    bc_offset = segment_sum(coef.bc_offset, starts)
    bc_offset[:, 0] += c * (C_minus * E_in[:, 0]
                            - segment_sum(coef.C_minus * coef.E_in[:, 0], starts))
    bc_offset[:, 1] += c * (C_plus * E_in[:, 1]
                            - segment_sum(coef.C_plus * coef.E_in[:, 1], starts))

    return LoqdCoefficients(
        level=level_out, sig_E=sig_E, sig_B=sig_B, B=B_p, f=f, f_face=f_face,
        sig_R_face=sig_R_face, eta_hat=eta_hat, eta_check=eta_check,
        C_minus=C_minus, C_plus=C_plus, E_in=E_in, F_in=F_in,
        bc_offset=bc_offset)
