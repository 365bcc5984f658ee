"""Discrete-ordinates transport sweeps and quasidiffusion closure extraction.

The sweep works with the per-unit-mu intensity psi: the isotropic source
q_g is injected as q_g/2 per direction, so an infinite medium in equilibrium
has psi = B_g/2 in every direction.  The Eddington factors and boundary
flux ratios handed to the moment solver are ratios of angular moments and
do not depend on that normalization; the boundary inflow source does.

psi is stored cells-leading and directions before groups, as (n_cells, 2,
n_dirs, n_groups): axis 1 holds the left/right corner of each cell, and
directions run in ascending mu, so the mu < 0 half range comes first and
one half range of one cell corner, psi[i, c, :n] or psi[i, c, n:], is a
single contiguous (m, n_groups) block for every quadrature, uneven and
one-sided ones included.  Each step of the sweep's cell loop reads and
writes whole blocks.  The mu < 0 sweep is the mu > 0 sweep of the mirrored
slab: cells and corners reversed and |mu| as the cosine.

The sweep's working set is one cell: each temporary is formed for one
cell's (2, m, n_groups) block inside the cell loop, and both corners are
divided straight into psi.  psi itself is written into a caller's array
when one is given, so a time step's later sweeps overwrite the psi of its
earlier ones instead of allocating anew.  The closure extraction, too,
works in psi's layout: its cell average is (n_cells, n_dirs, n_groups), and
its angular moments are vector-matrix products over the direction axis.
The inflows hold only the entering half range, laid out like a psi corner
block: inc_left is (n_dirs - n, n_groups), the mu > 0 directions, and
inc_right (n, n_groups), the mu < 0 ones, so the sweep reads each as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import AngularQuadrature, SpatialMesh
from .phys import C_LIGHT, ConvergenceError, GroupOpacitySet


@dataclass
class ClosureData:
    """Quasidiffusion closure of the angular flux: Eddington factors of the
    moment system's unknowns, and each face's closure F = c C E + bc_in."""

    f: np.ndarray        # (G, n_x+2): the x=0 face, the cells, the x=X face
    C: np.ndarray        # (G, 2) exit flux ratio: [-1,0) at x=0, (0,1] at x=X
    bc_in: np.ndarray    # (G, 2) inflow source

    @classmethod
    def isotropic(cls, n_cells: int, inc_left: np.ndarray,
                  inc_right: np.ndarray,
                  quad: AngularQuadrature) -> "ClosureData":
        """Closure of an isotropic exit intensity under the given inflow."""
        C = np.tile([-0.5, 0.5], (inc_left.shape[1], 1))
        return cls(f=np.full((len(C), n_cells + 2), 1.0 / 3.0), C=C,
                   bc_in=_inflow_source(C, inc_left, inc_right, quad))


def _inflow_source(C, inc_left, inc_right, quad):
    """bc_in = F_in - c C E_in of the entering half range at each face, with
    E_in = (2/c) sum w psi and F_in = 2 sum w mu psi, so c cancels."""
    w, wmu, n = quad.w, quad.w * quad.mu, quad.n_neg
    return 2.0 * np.column_stack([
        wmu[n:] @ inc_left - C[:, 0] * (w[n:] @ inc_left),
        wmu[:n] @ inc_right - C[:, 1] * (w[:n] @ inc_right)])


def _sweep_rightward(psi, psi_prev, sigma, q, hdx, tau, mu, inflow):
    """Corner-balance sweep of one half range from the left face to the
    right: psi and psi_prev (n_x, 2, m, G), sigma and q (n_x, G), hdx
    (n_x, 1) half cell widths, mu (m,) > 0, inflow (m, G) entering the left
    face.  mu, mu/2 and (mu/2)^2 are tiled to (m, G) once, since the
    loop's products with them run faster on whole blocks than broadcast."""
    G = inflow.shape[1]
    a = ((sigma + tau) * hdx)[:, None, :]        # (n_x, 1, G)
    qh = 0.5 * q[:, None, None, :]               # (n_x, 1, 1, G)
    half = np.tile(0.5 * mu[:, None], (1, G))
    half2 = half**2
    mu = np.tile(mu[:, None], (1, G))
    for i in range(psi.shape[0]):
        # b = hdx (q/2 + tau psi_prev); addition and multiplication
        # commute, so each element rounds exactly as in that formula
        b = tau * psi_prev[i]
        b += qh[i]
        b *= hdx[i]
        sL, bR = b                               # the left corner in place
        sL += mu * inflow
        ha = half + a[i]
        det = ha**2
        det += half2
        np.divide(sL * ha - half * bR, det, out=psi[i, 0])
        np.divide(ha * bR + half * sL, det, out=psi[i, 1])
        inflow = psi[i, 1]


def sweep_all(psi_prev: np.ndarray, inc_left: np.ndarray, inc_right: np.ndarray,
              sigma: np.ndarray, q: np.ndarray, mesh: SpatialMesh,
              quad: AngularQuadrature, dt, out: np.ndarray = None) -> np.ndarray:
    """Corner-balance sweep of every group and direction for one time level.

    Each half cell balances streaming through its faces against absorption
    (sigma plus the implicit time term) and the source q/2 + psi_prev/(c dt);
    the mid-cell face value is the average of the two corner values, cell
    faces are upwinded.  dt = inf gives the steady-state sweep.  sigma and q
    are (n_x, G), inc_left (M - n, G) and inc_right (n, G) for the n
    directions with mu < 0, psi_prev and the result (n_x, 2, M, G).  The
    result is written into out when given (its old values are never read)
    and into a new array otherwise.
    """
    tau = 1.0 / (C_LIGHT * dt)
    hdx = 0.5 * mesh.dx[:, None]
    psi = np.empty_like(psi_prev) if out is None else out
    n = quad.n_neg
    _sweep_rightward(psi[:, :, n:], psi_prev[:, :, n:], sigma, q, hdx, tau,
                     quad.mu[n:], inc_left)
    _sweep_rightward(psi[::-1, ::-1, :n], psi_prev[::-1, ::-1, :n],
                     sigma[::-1], q[::-1], hdx[::-1], tau, -quad.mu[:n],
                     inc_right)
    return psi


def _ratio(num, den, fallback):
    out = np.full_like(num, fallback)
    good = np.isfinite(den) & (den > 0.0)
    np.divide(num, den, out=out, where=good)
    return out


def compute_qd_factors(psi: np.ndarray, inc_left: np.ndarray, inc_right: np.ndarray,
                       quad: AngularQuadrature) -> ClosureData:
    """Eddington factors per boundary face and cell, (G, n_x + 2) in the
    moment system's order, and each face's exit flux ratio C from the
    exit-corner intensities with its inflow source.

    Raises ConvergenceError if a zeroth angular moment of the cell-average
    intensity is not finite.
    """
    w, mu, n = quad.w, quad.mu, quad.n_neg
    wmu = w * mu
    wmu2 = wmu * mu
    psi_bar = psi[:, 0] + psi[:, 1]              # (n_x, M, G)
    psi_bar *= 0.5

    moment0 = w @ psi_bar                        # (n_x, G)
    bad = ~np.isfinite(moment0.T)
    if bad.any():
        g, i = np.argwhere(bad)[0]
        raise ConvergenceError(
            f"transport sweep: non-finite zeroth angular moment in group {g}, "
            f"cell {i}")

    # boundary-face intensities, exit corners where the field leaves and the
    # inflow where it enters, as C-ordered (G, M) copies: that layout fixes
    # the order of BLAS's sums in the face factors
    fl = np.concatenate([psi[0, 0, :n], inc_left]).T.copy()
    fr = np.concatenate([inc_right, psi[-1, 1, n:]]).T.copy()
    f = np.column_stack([_ratio(fl @ wmu2, fl @ w, 1.0 / 3.0),
                         _ratio(wmu2 @ psi_bar, moment0, 1.0 / 3.0).T,
                         _ratio(fr @ wmu2, fr @ w, 1.0 / 3.0)])

    exit_l, exit_r = psi[0, 0, :n], psi[-1, 1, n:]
    C = np.column_stack([
        _ratio(wmu[:n] @ exit_l, w[:n] @ exit_l, -0.5),
        _ratio(wmu[n:] @ exit_r, w[n:] @ exit_r, 0.5)])
    return ClosureData(f=f, C=C,
                       bc_in=_inflow_source(C, inc_left, inc_right, quad))


def transport_solve(psi_prev: np.ndarray, inc_left: np.ndarray, inc_right: np.ndarray,
                    opac: GroupOpacitySet, mesh: SpatialMesh, quad: AngularQuadrature,
                    dt, out: np.ndarray = None):
    """One transport solve at fixed coefficients: sweep all groups with the
    absorption opacity and emission source sigma_B*B, into out if given,
    then extract closures."""
    psi = sweep_all(psi_prev, inc_left, inc_right, opac.sig_E,
                    opac.sig_B * opac.B, mesh, quad, dt, out=out)
    return psi, compute_qd_factors(psi, inc_left, inc_right, quad)
