"""Planck spectrum, opacity averages, and material closure in code units.

Units throughout: length cm, time ns, temperature keV (Boltzmann constant
1), energy in jerks (1e9 J).  The photon frequency variable is the photon
energy h*nu in keV.  The spectral emission density B(nu, T) is normalized
so that its integral over all frequencies equals c*a_R*T^4 / 2, which makes
the equilibrium radiation energy density (both half ranges) equal a_R*T^4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

# lowest admissible material/radiation temperature, keV
T_FLOOR = 1e-6

C_LIGHT = 29.9792458   # cm/ns
A_RAD = 0.01372016     # jerks/(cm^3 keV^4)
# B(nu, T) = PLANCK_PREFACTOR * nu^3 / (exp(nu/T) - 1); taken from C_LIGHT
# and A_RAD alone, so the analytic Planck identities hold exactly
PLANCK_PREFACTOR = 15.0 * C_LIGHT * A_RAD / (2.0 * np.pi**4)

# quarter of the Riemann zeta tail: integral of x^3/(e^x - 1) over [0, inf)
_PI4_15 = np.pi**4 / 15.0

# Planck-weight integrals below this are treated as numerically empty (deep
# Wien tail); group opacities then fall back to a midpoint evaluation.
_WIEN_FLOOR = 1e-300

# Group means run on rows of 8 Gauss-Legendre nodes in log(nu).  A group at
# most this wide in log(nu) takes one row, the 8-point rule, which reaches
# round-off there; a wider group takes the 16-point rule as two rows.
_NARROW_WIDTH = 0.05
# the nodes and weights of the three row kinds, one column each: the 8-point
# rule, and the first and last 8 nodes of the 16-point rule
_ROW_NODES, _ROW_WEIGHTS = (np.column_stack([r8, r16[:8], r16[8:]])
                            for r8, r16 in zip(leggauss(8), leggauss(16)))


@dataclass(frozen=True)
class MaterialModel:
    """Material energy closure eps(T) = c_v * T with constant heat capacity."""

    c_v: float  # jerks/(cm^3 keV)

    def energy(self, T):
        return self.c_v * np.asarray(T, dtype=float)


class FleckCummingsOpacity:
    """sigma(nu, T) = 27 * (1 - exp(-nu/T)) / nu^3, in 1/cm."""

    def __call__(self, nu, T):
        nu = np.asarray(nu, dtype=float)
        T = np.asarray(T, dtype=float)
        return 27.0 * (-np.expm1(-nu / T)) / nu**3


OpacityFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]


# Bernoulli-series coefficients of integral_0^x t^3/(e^t - 1) dt
# = x^3/3 - x^4/8 + sum_k _BERN_C[k] x^(2k+5), from B_{2k+2}/((2k+5)(2k+2)!)
_BERN_C = np.array([
    +1.66666666666666664e-02, -1.98412698412698413e-04,
    +3.67430922986478553e-06, -7.51563251563251607e-08,
    +1.60590438368216149e-09, -3.52279342579166215e-11,
    +7.87208031216745774e-13, -1.78404226122241216e-14,
    +4.08860097917992578e-16, -9.45595086329592140e-18,
    +2.20360113134409181e-19, -5.16832025400463853e-21,
    +1.21886449642395423e-22, -2.88823142807662809e-24,
    +6.87258318890207039e-26])
# term numbers of the exponential series, largest first, as a column
_TAIL_N = np.arange(20.0, 0.0, -1.0)[:, None]


def _planck_tail(x):
    """Integral of t^3/(e^t - 1) over [x, inf).

    Below x = 2 the complement is integrated by the Bernoulli power series
    of the integrand; from 2 on, the exponential series
    sum_n exp(-n x)(x^3/n + 3x^2/n^2 + 6x/n^3 + 6/n^4) with 20 terms.  Both
    truncations sit at or below 1e-15 relative.  Each series runs on its own
    entries only; from x = 746 on every exp(-n x) underflows to 0, so the
    tail there is exactly 0 (a NaN stays NaN).
    """
    out = np.zeros_like(x)

    small = x < 2.0
    xs = x[small]
    x2 = xs * xs
    acc = np.zeros_like(xs)
    for c in _BERN_C[::-1]:
        acc = (acc + c) * x2
    out[small] = _PI4_15 - xs**3 * (1.0 / 3.0 - xs / 8.0 + acc)

    big = ~small & ~(x >= 746.0)
    xb = x[big]
    c3, c2, c1 = xb**3, 3.0 * xb**2, 6.0 * xb
    n = _TAIL_N
    terms = np.exp(-n * xb)                       # (20, len(xb))
    terms *= ((c3 / n + c2 / n**2) + c1 / n**3) + 6.0 / n**4
    # an axis-0 reduce of a C-ordered block adds whole rows one after
    # another, n = 20 first, so the smallest terms are summed first
    out[big] = terms.sum(axis=0)
    return out


def planck_groups(T, edges):
    """Group integrals of B(nu, T) for all groups at each temperature.

    T (n,) is positive and edges (G+1,) nonnegative, as on every grid;
    returns (n, G).  Any edge at or beyond the exp underflow point acts as
    infinity, so a huge top edge closes the spectrum exactly.
    """
    T = np.asarray(T, dtype=float)
    edges = np.asarray(edges, dtype=float)
    x = edges[None, :] / T[:, None]
    tails = _planck_tail(x)
    pref = PLANCK_PREFACTOR * T**4
    return pref[:, None] * (tails[:, :-1] - tails[:, 1:])


@dataclass(frozen=True)
class LogRule:
    """Gauss-Legendre rule in log(nu) for every group of one grid, built by
    log_rule as R = G + W rows of 8 nodes, stored node-leading.  A group at
    most _NARROW_WIDTH wide in log(nu) is one row, the 8-point rule; each of
    the W wider groups is two rows, the first and last 8 nodes of the
    16-point rule.  Rows 0..G-1 hold every group's first row in group order,
    and rows G.. the second rows of the wide groups in order.  The rule
    depends on the edges alone: FrequencyGridHierarchy.rule builds the fine
    grid's once, and every T_r weight bundle of the run shares it.

    A zero lower edge is clamped to 1e-12 of the upper edge; the omitted
    sliver carries a vanishing share of any Planck-weighted integral.
    """

    nu: np.ndarray      # (8, R) nodes
    w: np.ndarray       # (8, R) weights, dnu = nu d(log nu) included
    wide: np.ndarray    # (W,) the wide groups, in order
    mid: np.ndarray     # (G,) geometric midpoint of the (clamped) group
    p3: np.ndarray      # (8, R) PLANCK_PREFACTOR * nu^3
    p4: np.ndarray      # (8, R) PLANCK_PREFACTOR * nu^4


def log_rule(edges) -> LogRule:
    """The log-frequency rule of the groups between edges (G+1,)."""
    edges = np.asarray(edges, dtype=float)
    lo = np.maximum(edges[:-1], edges[1:] * 1e-12)
    hi = edges[1:]
    u0 = np.log(lo)
    half = 0.5 * (np.log(hi) - u0)
    is_wide = 2.0 * half > _NARROW_WIDTH
    wide = np.flatnonzero(is_wide)
    group = np.concatenate([np.arange(half.size), wide])
    # column of _ROW_NODES: 0 on a narrow group, 1 and 2 on a wide one's rows
    kind = np.concatenate([is_wide.astype(int), np.full(wide.size, 2)])
    h = half[group]
    nu = np.exp(u0[group] + h * (_ROW_NODES.take(kind, axis=1) + 1.0))
    w = h * _ROW_WEIGHTS.take(kind, axis=1) * nu
    return LogRule(nu=nu, w=w, wide=wide, mid=np.sqrt(lo * hi),
                   p3=PLANCK_PREFACTOR * nu**3, p4=PLANCK_PREFACTOR * nu**4)


def _group_sum(rule: LogRule, q):
    """Group sums of node values q, shape (8, n, R), as (n, G): the 8 planes
    added one after another, whatever n and R are, then each wide group's
    second row added to its first."""
    acc = q[0] + q[1]
    for plane in q[2:]:
        acc += plane
    first = acc[:, :rule.mid.size]
    first[:, rule.wide] += acc[:, rule.mid.size:]
    return first


def _positive_div(num, den):
    """num / den where den > 0, else 0, written into num."""
    ok = den > 0
    np.divide(num, den, out=num, where=ok)
    np.copyto(num, 0.0, where=~ok)
    return num


def _planck_weights(rule: LogRule, T, rosseland=False):
    """B(nu, T) w at every node of rule for cell temperatures T > 0 of shape
    (n,), as an (8, n, R) array; with rosseland, the pair of it and
    dB/dT(nu, T) w.

    B = p3 e^-x / (1 - e^-x) and dB/dT = p4 / T^2 e^-x / (1 - e^-x)^2 with
    x = nu/T share one exp(-x) and one expm1(-x).  Each is 0 where its
    denominator is not positive, and in the deep Wien tail, where e^-x
    underflows.  The arithmetic runs in place: this is the hot path of every
    build, and fresh (8, n, R) temporaries cost as much as the math.
    """
    Tc = T[None, :, None]
    e = np.divide(rule.nu[:, None, :], -Tc)  # -x
    d = np.expm1(e)
    np.exp(e, out=e)                         # e^-x
    np.negative(d, out=d)                    # 1 - e^-x
    w_B = _positive_div(rule.p3[:, None, :] * e, d)
    w_B *= rule.w[:, None, :]
    if not rosseland:
        return w_B
    w_dB = np.divide(rule.p4[:, None, :], Tc**2)
    w_dB *= e
    _positive_div(w_dB, np.multiply(d, d, out=d))
    w_dB *= rule.w[:, None, :]
    return w_B, w_dB


@dataclass(frozen=True)
class RadiationWeights:
    """The T_r side of build_group_opacities, built once per radiation
    temperature by radiation_weights: the log-frequency rule it was built
    on, the emission weights B(nu, T_r) w and Rosseland weights
    dB/dT(nu, T_r) w at its nodes, and their group sums."""

    rule: LogRule
    w_rad: np.ndarray    # (8, n_x, R)
    w_ros: np.ndarray    # (8, n_x, R)
    rad_sum: np.ndarray  # (n_x, G)
    ros_sum: np.ndarray  # (n_x, G)


def radiation_weights(T_r, rule: LogRule) -> RadiationWeights:
    """Weight bundle of cell radiation temperatures T_r > 0 at the nodes of
    rule, the grid's log_rule(edges)."""
    w_rad, w_ros = _planck_weights(rule, np.asarray(T_r, dtype=float),
                                   rosseland=True)
    return RadiationWeights(rule=rule, w_rad=w_rad, w_ros=w_ros,
                            rad_sum=_group_sum(rule, w_rad),
                            ros_sum=_group_sum(rule, w_ros))


@dataclass
class GroupOpacitySet:
    """Per-cell, per-group coefficients for one temperature state."""

    sig_B: np.ndarray   # (n_x, G) Planck mean at T
    sig_E: np.ndarray   # (n_x, G) absorption mean, spectrum at T_r
    sig_R: np.ndarray   # (n_x, G) Rosseland mean at T_r
    B: np.ndarray       # (n_x, G) group-integrated emission density at T


def build_group_opacities(T, rad: RadiationWeights, edges,
                          sigma: OpacityFunction) -> GroupOpacitySet:
    """Evaluate all group opacities and emission integrals for cell arrays
    T and T_r, where rad = radiation_weights(T_r, log_rule(edges)).

    Each group mean uses the log-frequency rule of rad (8 nodes on a narrow
    group, 16 on a wide one): sig_B weights sigma(nu, T) with B(nu, T),
    sig_E with B(nu, T_r), and sig_R is the dB/dT(nu, T_r)-weighted harmonic
    mean (Rosseland).  Groups whose weight integral underflows (deep Wien
    tail) use sigma at the geometric midpoint of the (clamped) group.  The
    sigma(nu, T) samples are shared by the three averages, and the T_r
    weights by every build at one T_r, since this sits on the hot path of
    every cycle.
    """
    T = np.asarray(T, dtype=float)
    rule = rad.rule
    sig = sigma(rule.nu[:, None, :], T[None, :, None])
    fallback = sigma(rule.mid[None, :], T[:, None])

    def avg(wgt, den_w, harmonic):
        if harmonic:
            num, den = den_w, _group_sum(rule, wgt / sig)
        else:
            num, den = _group_sum(rule, wgt * sig), den_w
        empty = den_w < _WIEN_FLOOR
        return np.where(empty, fallback, num / np.where(empty, 1.0, den))

    w_loc = _planck_weights(rule, T)
    return GroupOpacitySet(
        sig_B=avg(w_loc, _group_sum(rule, w_loc), False),
        sig_E=avg(rad.w_rad, rad.rad_sum, False),
        sig_R=avg(rad.w_ros, rad.ros_sum, True),
        B=planck_groups(T, edges),
    )


def radiation_temperature(E_total):
    """T_r = (E/a_R)^(1/4), floored; negative E is clipped to zero first."""
    E = np.maximum(np.asarray(E_total, dtype=float), 0.0)
    return np.maximum((E / A_RAD) ** 0.25, T_FLOOR)
