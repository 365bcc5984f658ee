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
frozen sigma_B is used instead.  Each Newton step takes the previous stage
and returns its own, so the stage history lives with the step that uses it.
Eliminating the temperature update cell-locally leaves one ordinary moment
solve with an effective absorption opacity and emission source.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import loqd
from .grids import SpatialMesh
from .phys import A_RAD, C_LIGHT, T_FLOOR, ConvergenceError, MaterialModel

log = logging.getLogger(__name__)


def form_grey(level_sol: loqd.MomentField, level_coef: loqd.LoqdCoefficients,
              level_out: int) -> loqd.LoqdCoefficients:
    """Average a level's coefficients over its whole spectrum (weights from
    its moment solution) into one-interval grey coefficients."""
    starts = np.array([0, level_coef.n_intervals])
    return loqd.merge_coefficients(level_coef, level_sol, starts, level_out)


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


def solve_grey_meb(coef: loqd.LoqdCoefficients, E_star: np.ndarray,
                   stage: tuple | None, T_prev_time: np.ndarray,
                   E_prev: np.ndarray, F_prev: np.ndarray,
                   T_stage: np.ndarray, dt: float, material: MaterialModel,
                   mesh: SpatialMesh):
    """One Newton step of the grey moment + material energy balance system.

    coef holds one-interval grey coefficients built at T_stage, the
    temperature the balance is linearized about, and E_star the
    spectrum-summed energy of the solution they were averaged with (the
    Frechet coupling weight).  stage is the previous stage's (T, sigma_E,
    emission rate c sigma_B a_R T^4) within this time step, None at its
    first stage; the divided differences to it give the slopes of sigma_E
    and of the emission rate (no stage, or nonpositive emission entries,
    fall back to the quartic slope at frozen sigma_B).  E_prev/F_prev are
    the grey (spectrum-summed) moments at the previous time step.

    Returns (T_new, grey MomentField, this stage).  Raises ConvergenceError
    at the first cell whose T_new is not finite.
    """
    c, a_R = C_LIGHT, A_RAD
    cv_dt = material.c_v / dt
    sigE = coef.sig_E[0]
    sigB = coef.sig_B[0]
    T_stage = np.asarray(T_stage, dtype=float)
    emis = c * sigB * a_R * T_stage**4

    slope = 4.0 * c * sigB * a_R * T_stage**3
    frechet = np.zeros_like(T_stage)
    if stage is not None:
        T_old, sigE_old, emis_old = stage
        frechet = frechet_update(T_old, sigE_old, T_stage, sigE)
        demis = frechet_update(T_old, emis_old, T_stage, emis)
        slope = np.where(demis > 0.0, demis, slope)
    beta = slope - c * frechet * E_star
    chi = cv_dt + beta
    bad = chi <= 0.0
    if np.any(bad):
        # runaway Frechet slope; drop it for those cells (plain Newton)
        beta = np.where(bad, slope, beta)
        chi = cv_dt + beta
    r = emis + cv_dt * (T_stage - T_prev_time)
    sig_eff = sigE * cv_dt / chi
    S_eff = emis - beta * r / chi
    sol = loqd.solve_moment_system(coef, np.atleast_2d(E_prev),
                                   np.atleast_2d(F_prev), dt, mesh,
                                   sig_E=sig_eff[None], source=S_eff[None])
    T_new = T_stage + (c * sigE * sol.E[0] - r) / chi
    if not math.isfinite(T_new.sum()):  # the scan decides: a sum can overflow
        bad = np.flatnonzero(~np.isfinite(T_new))
        if bad.size:
            raise ConvergenceError(f"grey Newton step: T_new is "
                                   f"{T_new[bad[0]]} in cell {bad[0]}")
    if np.any(T_new < 0.0):
        log.warning("negative temperature after grey update in %d cells; "
                    "flooring", int(np.sum(T_new < 0.0)))
    return np.maximum(T_new, T_FLOOR), sol, (T_stage, sigE, emis)
