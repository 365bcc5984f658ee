"""Low-order quasidiffusion moment systems on any frequency grid level.

Unknowns per spectral interval: n_x + 2 energy densities u (the x = 0 face,
the cells E, the x = X face, so face k lies between unknowns k and k + 1) and
the face fluxes F.  Cell balance couples E to the face fluxes and the
emission source; the first-moment equation lives on dual cells (half cells
at the boundaries) and is closed by Eddington factors from transport, held
on u's unknowns, plus, on coarse grids, upwinded compensation terms (eta)
that make the coarse equations agree exactly with the summed fine-grid
equations at the fine solution.

Normalization: an isotropic equilibrium field at temperature T has
E_g = 2 B_g / c, so the spectrum-integrated energy density is a_R T^4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import SpatialMesh, segment_sum
from .phys import C_LIGHT, ConvergenceError, GroupOpacitySet
from .transport import ClosureData


@dataclass
class LoqdCoefficients:
    """Discrete coefficients of one level's moment system; every array is
    indexed (intervals, ...)."""

    level: int
    sig_E: np.ndarray       # (P, n_x)
    sig_B: np.ndarray       # (P, n_x)
    B: np.ndarray           # (P, n_x) group emission integrals
    f: np.ndarray           # (P, n_x+2) Eddington factors on u's unknowns
    sig_R_face: np.ndarray  # (P, n_x+1)
    eta_hat: np.ndarray     # (P, n_x+1) compensation on the face's right entity
    eta_check: np.ndarray   # (P, n_x+1) compensation on the face's left entity
    C: np.ndarray           # (P, 2) exit flux factor at x = 0 and x = X
    bc_in: np.ndarray       # (P, 2) inflow source: F = c C E_face + bc_in

    @property
    def n_intervals(self) -> int:
        return self.sig_E.shape[0]


@dataclass
class MomentField:
    """Solution of one level's moment system."""

    u: np.ndarray        # (P, n_x+2): the x=0 face, the cells, the x=X face
    F: np.ndarray        # (P, n_x+1)

    @property
    def E(self) -> np.ndarray:  # (P, n_x) cells, a view of u
        return self.u[:, 1:-1]

    @property
    def E_face(self) -> np.ndarray:  # (P, 2) at x=0 and x=X, a view of u
        return self.u[:, ::self.u.shape[1] - 1]


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
                            mesh: SpatialMesh) -> LoqdCoefficients:
    """Assemble the fine-grid (level 0) coefficients from group opacities and
    transport closures, boundary closure (C, bc_in) included."""
    G, n = closure.f.shape
    return LoqdCoefficients(
        level=0,
        sig_E=opac.sig_E.T.copy(),
        sig_B=opac.sig_B.T.copy(),
        B=opac.B.T.copy(),
        f=closure.f,
        sig_R_face=face_rosseland(opac.sig_R.T, mesh),
        eta_hat=np.zeros((G, n - 1)),
        eta_check=np.zeros((G, n - 1)),
        C=closure.C,
        bc_in=closure.bc_in,
    )


def _thomas(lower, diag, upper, rhs):
    """Banded elimination of a batch of tridiagonal systems, given as rows:
    diag and rhs hold n rows, lower and upper the n - 1 below and above the
    diagonal, and each row holds one entry of every system.  Returns the n
    solution rows."""
    d, r = [diag[0]], [rhs[0]]
    for lo, up, dk, rk in zip(lower, upper, diag[1:], rhs[1:]):
        m = lo / d[-1]
        d.append(dk - m * up)
        r.append(rk - m * r[-1])
    x = [r[-1] / d[-1]]
    for up, dk, rk in zip(upper[::-1], d[-2::-1], r[-2::-1]):
        x.append((rk - up * x[-1]) / dk)
    return x[::-1]


def solve_moment_system(coef: LoqdCoefficients, E_prev: np.ndarray,
                        F_prev: np.ndarray, dt: float, mesh: SpatialMesh,
                        sig_E=None, source=None) -> MomentField:
    """Direct banded solve of one level's moment system for one time step.

    Face fluxes are eliminated from the first-moment equations, leaving a
    tridiagonal system in u = [E_left_face, E_cells..., E_right_face] per
    interval.  sig_E/source override the absorption and emission density
    (used by the grey solve); source defaults to 2 sigma_B B.  Raises
    ConvergenceError at the first non-finite E, E_face or F, naming the
    level, interval and cell or face (E_face's 0 is x = 0, 1 is x = X).
    """
    c = C_LIGHT
    P = coef.n_intervals
    if sig_E is None:
        sig_E = coef.sig_E
    if source is None:
        source = 2.0 * coef.sig_B * coef.B
    # F = (R + ca1 u_left - ca2 u_right)/D on every face, where
    # ca1 = c (f_left + dxd eta_check) and ca2 = c (f_right + dxd eta_hat),
    # u_left/u_right and f_left/f_right the unknowns either side.  eta carries
    # units 1/cm and scales with the dual-cell width here, which is exactly
    # what makes the merged first-moment equation reproduce the summed
    # originals (the sigma_R spread term it compensates is width-weighted too).
    tau = 1.0 / (c * dt)
    dxd = mesh.dual_dx[None, :]
    D = dxd * (tau + coef.sig_R_face)
    ca1 = (coef.f[:, :-1] + dxd * coef.eta_check) * c
    ca2 = (coef.f[:, 1:] + dxd * coef.eta_hat) * c
    R = dxd * tau * F_prev
    A1, A2, RD = ca1 / D, ca2 / D, R / D

    # the bands as rows over the intervals, one row per unknown
    dx = mesh.dx[None, :]
    dx_dt = dx / dt
    cC = c * coef.C
    diag = [A1[:, 0] - cC[:, 0],
            *(dx_dt + c * sig_E * dx + A1[:, 1:] + A2[:, :-1]).T,
            -A2[:, -1] - cC[:, 1]]
    rhs = [coef.bc_in[:, 0] - RD[:, 0],
           *(source * dx + dx_dt * E_prev - RD[:, 1:] + RD[:, :-1]).T,
           coef.bc_in[:, 1] - RD[:, -1]]
    lower = [*(-A1[:, :-1]).T, A1[:, -1]]
    upper = (-A2).T
    bands = (lower, diag, upper, rhs)
    if P == 1:
        # one system (the grey level): plain floats run the same IEEE
        # arithmetic without numpy's per-call overhead
        bands = [np.concatenate(band).tolist() for band in bands]

    # back to one row per interval, in the memory layout callers sum over
    u = np.array(_thomas(*bands)).reshape(-1, P).T.copy()
    F = (R + ca1 * u[:, :-1] - ca2 * u[:, 1:]) / D
    sol = MomentField(u=u, F=F)
    # one cheap sum guards the scan, which alone decides: a sum can overflow
    if not math.isfinite(u.sum() + F.sum()):
        for name, at in (("E", "cell"), ("E_face", "boundary face"),
                         ("F", "face")):
            x = getattr(sol, name)
            bad = np.argwhere(~np.isfinite(x))
            if bad.size:
                p, i = bad[0]
                raise ConvergenceError(
                    f"low-order solve on level {coef.level}: {name} is "
                    f"{float(x[p, i])} in interval {p}, {at} {i}")
    return sol


def _wmean(values: np.ndarray, weights: np.ndarray, den: np.ndarray,
           starts: np.ndarray, counts: np.ndarray,
           harmonic: bool = False) -> np.ndarray:
    """Weighted mean over index segments of counts entries each, given den,
    the segment sums of the weights.  Where den is not above 1e-300 it falls
    back to the plain arithmetic mean (harmonic for Rosseland opacities),
    formed only when some segment needs it."""
    num = segment_sum(values * weights, starts)
    good = den > 1e-300
    if good.all():
        return num / den
    counts = counts[:, None]
    if harmonic:
        fallback = counts / segment_sum(1.0 / values, starts)
    else:
        fallback = segment_sum(values, starts) / counts
    return np.where(good, num / np.where(good, den, 1.0), fallback)


def merge_coefficients(coef: LoqdCoefficients, sol: MomentField,
                       starts: np.ndarray, level_out: int) -> LoqdCoefficients:
    """Restrict a level's coefficients onto merged spectral intervals, using
    that level's moment solution as weights.

    Eddington factors average with weight u, sigma_E with weight E, sigma_B
    with weight B, face Rosseland opacities with weight |F|; the flux
    compensation terms eta are built so the merged first-moment equations
    reproduce the summed originals exactly at the given solution, with the
    sign-split placing the correction on the downwind side.  Boundary C factors average with the
    face E weight.  The boundary source bc_in is summed like the equations
    it enters, so each merged boundary condition is the sum of its
    originals at the given solution.
    """
    c = C_LIGHT
    starts = np.asarray(starts, dtype=int)
    counts = np.diff(starts)

    u, u_p = sol.u, segment_sum(sol.u, starts)
    B_p = segment_sum(coef.B, starts)
    abs_F = np.abs(sol.F)

    sig_E = _wmean(coef.sig_E, sol.E, u_p[:, 1:-1], starts, counts)
    f = _wmean(coef.f, u, u_p, starts, counts)
    sig_B = _wmean(coef.sig_B, coef.B, B_p, starts, counts)
    sig_R_face = _wmean(coef.sig_R_face, abs_F, segment_sum(abs_F, starts),
                        starts, counts, harmonic=True)

    # xi collects everything the merged sigma_R cannot represent: the spread
    # of the source level's face opacities about the mean, plus any
    # compensation terms the source level already carried (zero on the fine
    # grid; folding them in keeps grey-from-coarse merges exact too).  Face
    # k's left and right entities are unknowns k and k + 1.
    spread = coef.sig_R_face - np.repeat(sig_R_face, counts, axis=0)
    xi = segment_sum(spread * sol.F
                     + c * (coef.eta_hat * u[:, 1:]
                            - coef.eta_check * u[:, :-1]), starts)
    left_E, right_E = u_p[:, :-1], u_p[:, 1:]
    # divide only where kept, so an exactly-zero E divides nothing
    eta_hat = np.divide(xi, c * right_E, out=np.zeros_like(xi),
                        where=(xi > 0.0) & (right_E > 1e-300))
    eta_check = np.divide(-xi, c * left_E, out=np.zeros_like(xi),
                          where=(xi < 0.0) & (left_E > 1e-300))

    return LoqdCoefficients(
        level=level_out, sig_E=sig_E, sig_B=sig_B, B=B_p, f=f,
        sig_R_face=sig_R_face, eta_hat=eta_hat, eta_check=eta_check,
        C=_wmean(coef.C, sol.E_face, u_p[:, [0, -1]], starts, counts),
        bc_in=segment_sum(coef.bc_in, starts))
