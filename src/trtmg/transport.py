"""Discrete-ordinates transport sweeps and quasidiffusion closure extraction.

The sweep works with the per-unit-mu intensity psi: the isotropic source
q_g is injected as q_g/2 per direction, so an infinite medium in equilibrium
has psi = B_g/2 in every direction.  The closure quantities handed to the
moment solver (Eddington factors and boundary flux ratios) are ratios of
angular moments and do not depend on that normalization.

psi is stored as (n_groups, n_dirs, n_cells, 2); the trailing axis holds the
left/right corner value within each cell.  Directions run in ascending mu,
so the mu < 0 half range comes first.  Its sweep is the mu > 0 sweep of the
mirrored slab: cells and corners reversed and |mu| as the cosine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import AngularQuadrature, SpatialMesh
from .phys import C_LIGHT, GroupOpacitySet


@dataclass
class ClosureData:
    """Quasidiffusion closure of the angular flux: cell and boundary-face
    Eddington factors and boundary flux-to-energy ratios."""

    f: np.ndarray        # (G, n_x)
    f_face: np.ndarray   # (G, 2) at x=0 and x=X
    C_minus: np.ndarray  # (G,), in [-1, 0)
    C_plus: np.ndarray   # (G,), in (0, 1]

    @classmethod
    def isotropic(cls, n_groups: int, n_cells: int) -> "ClosureData":
        return cls(
            f=np.full((n_groups, n_cells), 1.0 / 3.0),
            f_face=np.full((n_groups, 2), 1.0 / 3.0),
            C_minus=np.full(n_groups, -0.5),
            C_plus=np.full(n_groups, 0.5),
        )


def _sweep_rightward(psi, b, a, mu, inflow):
    """Corner-balance sweep of one half range from the left face to the
    right: psi and b (G, m, n_x, 2), a (G, 1, n_x), mu (m,) > 0, inflow
    (G, m) entering the left face."""
    half = 0.5 * mu
    half_a = half[None, :, None] + a             # (G, m, n_x)
    det = half_a**2 + (half**2)[None, :, None]
    for i in range(psi.shape[2]):
        sL = b[:, :, i, 0] + mu * inflow
        bR = b[:, :, i, 1]
        ha = half_a[:, :, i]
        psi[:, :, i, 0] = (sL * ha - half * bR) / det[:, :, i]
        psi[:, :, i, 1] = (ha * bR + half * sL) / det[:, :, i]
        inflow = psi[:, :, i, 1]


def sweep_all(psi_prev: np.ndarray, inc_left: np.ndarray, inc_right: np.ndarray,
              sigma: np.ndarray, q: np.ndarray, mesh: SpatialMesh,
              quad: AngularQuadrature, dt) -> np.ndarray:
    """Corner-balance sweep of every group and direction for one time level.

    Each half cell balances streaming through its faces against absorption
    (sigma plus the implicit time term) and the source q/2 + psi_prev/(c dt);
    the mid-cell face value is the average of the two corner values, cell
    faces are upwinded.  dt = inf gives the steady-state sweep.
    """
    tau = 1.0 / (C_LIGHT * dt)
    hdx = 0.5 * mesh.dx
    a = (sigma[:, None, :] + tau) * hdx             # (G, 1, n_x)
    b = hdx[:, None] * (0.5 * q[:, None, :, None] + tau * psi_prev)
    psi = np.empty_like(psi_prev)
    n = int(np.searchsorted(quad.mu, 0.0))       # directions with mu < 0
    _sweep_rightward(psi[:, n:], b[:, n:], a, quad.mu[n:], inc_left[:, n:])
    _sweep_rightward(psi[:, :n, ::-1, ::-1], b[:, :n, ::-1, ::-1],
                     a[:, :, ::-1], -quad.mu[:n], inc_right[:, :n])
    return psi


def _face_intensities(psi, inc_left, inc_right, pos):
    """Boundary-face angular intensities: incoming data on the entering half
    range, exit-corner values on the leaving half range."""
    left = np.where(pos[None, :], inc_left, psi[:, :, 0, 0])
    right = np.where(pos[None, :], psi[:, :, -1, 1], inc_right)
    return left, right


def _ratio(num, den, fallback):
    out = np.full_like(num, fallback)
    good = np.isfinite(den) & (den > 0.0)
    np.divide(num, den, out=out, where=good)
    return out


def compute_qd_factors(psi: np.ndarray, inc_left: np.ndarray, inc_right: np.ndarray,
                       quad: AngularQuadrature) -> ClosureData:
    """Eddington factors per cell and boundary face, and boundary flux ratios
    C^- (x=0) and C^+ (x=X) from the exit-corner intensities."""
    w, mu, pos = quad.w, quad.mu, quad.positive
    wmu2 = w * mu * mu
    psi_bar = 0.5 * (psi[..., 0] + psi[..., 1])

    f = _ratio(np.einsum("m,gmi->gi", wmu2, psi_bar),
               np.einsum("m,gmi->gi", w, psi_bar), 1.0 / 3.0)

    fl, fr = _face_intensities(psi, inc_left, inc_right, pos)
    f_face = np.stack([_ratio(fl @ wmu2, fl @ w, 1.0 / 3.0),
                       _ratio(fr @ wmu2, fr @ w, 1.0 / 3.0)], axis=1)

    exit_l = psi[:, ~pos, 0, 0]
    exit_r = psi[:, pos, -1, 1]
    C_minus = _ratio(exit_l @ (w * mu)[~pos], exit_l @ w[~pos], -0.5)
    C_plus = _ratio(exit_r @ (w * mu)[pos], exit_r @ w[pos], 0.5)
    return ClosureData(f=f, f_face=f_face, C_minus=C_minus, C_plus=C_plus)


def transport_solve(psi_prev: np.ndarray, inc_left: np.ndarray, inc_right: np.ndarray,
                    opac: GroupOpacitySet, mesh: SpatialMesh, quad: AngularQuadrature,
                    dt):
    """One transport solve at fixed coefficients: sweep all groups with the
    absorption opacity and emission source sigma_B*B, then extract closures."""
    sigma = opac.sig_E.T.copy()          # (G, n_x)
    q = (opac.sig_B * opac.B).T.copy()
    psi = sweep_all(psi_prev, inc_left, inc_right, sigma, q, mesh, quad, dt)
    return psi, compute_qd_factors(psi, inc_left, inc_right, quad)
