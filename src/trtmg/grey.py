"""Effective grey problem and the coupled temperature update.

The grey system is the spectrum-total moment system with solution-weighted
coefficients from whichever grid level was solved last.  It closes the
material energy balance

    (c_v/dt) (T - T_prev) = c (sigma_E E - sigma_B a_R T^4)

through Newton linearization about the stage temperature.  The temperature
sensitivities of both coupling terms enter as fixed per-cell divided
differences between consecutive stages (Frechet diagonals): one for the grey
absorption opacity and one for the total emission rate c sigma_B a_R T^4.
The emission secant matters: for opacities with strong inverse temperature
dependence the product sigma_B(T) T^4 can grow far slower than T^4 itself,
and a quartic-only slope overdamps the update badly.  Where no emission
secant is available (first stage) or it is nonpositive, the quartic slope at
frozen sigma_B is used instead.  Eliminating the temperature update
cell-locally leaves one ordinary moment solve with an effective absorption
opacity and emission source.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import loqd
from .grids import SpatialMesh
from .phys import A_RAD, C_LIGHT, T_FLOOR, MaterialModel

log = logging.getLogger(__name__)


@dataclass
class GreyProblem:
    """Single-interval grey coefficients plus the spectrum-summed energy of
    the solution they were averaged with (the Frechet coupling weight)."""

    coef: loqd.LoqdCoefficients
    E_star: np.ndarray  # (n_x,)


def form_grey(level_sol: loqd.MomentField, level_coef: loqd.LoqdCoefficients,
              level_out: int) -> GreyProblem:
    """Average a level's coefficients over its whole spectrum (weights from
    its moment solution) into a one-interval grey system."""
    starts = np.array([0, level_coef.n_intervals])
    coef = loqd.merge_coefficients(level_coef, level_sol, starts, level_out)
    return GreyProblem(coef=coef, E_star=level_sol.E.sum(axis=0))


def frechet_update(T_prev, sig_prev, T_cur, sig_cur) -> np.ndarray:
    """Per-cell divided difference of the grey absorption opacity between
    consecutive temperature stages; zero where the temperature moved less
    than 1e-12 relative."""
    T_cur = np.asarray(T_cur, dtype=float)
    out = np.zeros_like(T_cur)
    dT = T_cur - T_prev
    ok = np.abs(dT) >= 1e-12 * np.maximum(T_cur, T_FLOOR)
    np.divide(sig_cur - sig_prev, dT, out=out, where=ok)
    return out


def solve_grey_meb(grey: GreyProblem, frechet: np.ndarray,
                   T_prev_time: np.ndarray, E_prev: np.ndarray,
                   F_prev: np.ndarray, T_stage: np.ndarray, dt: float,
                   material: MaterialModel, mesh: SpatialMesh,
                   demis=None, tally=None):
    """One Newton step of the grey moment + material energy balance system.

    Returns (T_new, grey MomentField).  E_prev/F_prev are the grey
    (spectrum-summed) moments at the previous time step; T_stage is the
    temperature the grey coefficients were built at, about which the
    balance is linearized.  frechet is the divided-difference slope of
    sigma_E, demis that of the emission rate c sigma_B a_R T^4 (None or
    nonpositive entries fall back to the quartic slope at frozen sigma_B).
    """
    c, a_R = C_LIGHT, A_RAD
    cv_dt = material.c_v / dt
    sigE = grey.coef.sig_E[0]
    sigB = grey.coef.sig_B[0]
    T_stage = np.asarray(T_stage, dtype=float)

    slope = 4.0 * c * sigB * a_R * T_stage**3
    if demis is not None:
        slope = np.where(demis > 0.0, demis, slope)
    beta = slope - c * frechet * grey.E_star
    chi = cv_dt + beta
    bad = chi <= 0.0
    if np.any(bad):
        # runaway Frechet slope; drop it for those cells (plain Newton)
        beta = np.where(bad, slope, beta)
        chi = cv_dt + beta
    emis = c * sigB * a_R * T_stage**4
    r = emis + cv_dt * (T_stage - T_prev_time)
    sig_eff = sigE * cv_dt / chi
    S_eff = emis - beta * r / chi
    sol = loqd.solve_moment_system(grey.coef, np.atleast_2d(E_prev),
                                   np.atleast_2d(F_prev), dt, mesh,
                                   sig_E=sig_eff[None], source=S_eff[None],
                                   tally=tally)
    T_new = T_stage + (c * sigE * sol.E[0] - r) / chi
    if np.any(T_new < 0.0):
        log.warning("negative temperature after grey update in %d cells; "
                    "flooring", int(np.sum(T_new < 0.0)))
    return np.maximum(T_new, T_FLOOR), sol
