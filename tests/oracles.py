"""Reference checks for the tests: pointwise Planck functions and a
one-pass group-opacity build, a two-loop sweep and its closures on a
groups-leading intensity, dense solves of the sweep and of the moment
system, assembled-equation residuals, cross-grid conservation and the
paper's per-cycle cost.  No simulation runs any of this; each oracle is
written out from the equations instead of calling the solver it checks.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from trtmg import loqd, phys, transport
from trtmg.grids import SpatialMesh, segment_sum


def per_cycle_cost(schedule) -> int:
    """Low-order solves performed by one cycle: the fine multigroup solve,
    each visited grid's groups, and one grey solve per temperature update."""
    coarse = sum(schedule.counts[g - 1] for g in schedule.visits)
    return schedule.counts[0] + coarse + len(schedule.visits) + 1


def _rel_defect(terms: np.ndarray) -> float:
    res = np.abs(terms.sum(axis=0))
    scale = np.max(np.abs(terms), axis=0)
    return float(np.max(res / np.maximum(scale, 1e-300)))


def full_inflows(inc_left, inc_right, quad):
    """The (G, M) inflow arrays, groups before directions, of the entering
    half ranges inc_left (M - n, G) and inc_right (n, G), n = quad.n_neg:
    zero in the directions that leave.  The oracles below read this layout
    through the mu > 0 mask."""
    n, M = quad.n_neg, quad.n_dirs
    left = np.zeros((inc_left.shape[1], M))
    right = np.zeros_like(left)
    left[:, n:] = inc_left.T
    right[:, :n] = inc_right.T
    return left, right


def entering(left, right, quad):
    """The entering half ranges, (M - n, G) at x = 0 and (n, G) at x = X,
    of (G, M) arrays left and right; the inverse of full_inflows."""
    n = quad.n_neg
    return left[:, n:].T.copy(), right[:, :n].T.copy()


def compute_moments(psi, inc_left, inc_right, quad):
    """(E, E_face, F) of the sweep intensity psi (n_x, 2, M, G); fluxes at
    cell faces use the upwind corner values, boundary faces the incoming data
    where it enters."""
    inc_left, inc_right = full_inflows(inc_left, inc_right, quad)
    w, mu, pos = quad.w, quad.mu, quad.mu > 0
    psi_bar = 0.5 * (psi[:, 0] + psi[:, 1])
    E = np.einsum("m,img->gi", w, psi_bar) / phys.C_LIGHT

    fl = np.where(pos[None, :], inc_left, psi[0, 0].T)
    fr = np.where(pos[None, :], psi[-1, 1].T, inc_right)
    E_face = np.stack([fl @ w, fr @ w], axis=1) / phys.C_LIGHT

    nx, _, G = psi_bar.shape
    F = np.empty((G, nx + 1))
    wmu_p, wmu_n = (w * mu)[pos], (w * mu)[~pos]
    F[:, 0] = inc_left[:, pos] @ wmu_p + wmu_n @ psi[0, 0, ~pos]
    for f in range(1, nx):
        F[:, f] = wmu_p @ psi[f - 1, 1, pos] + wmu_n @ psi[f, 0, ~pos]
    F[:, nx] = wmu_p @ psi[nx - 1, 1, pos] + inc_right[:, ~pos] @ wmu_n
    return E, E_face, F


def group_balance_residual(psi, psi_prev, inc_left, inc_right, sigma, q,
                           mesh, quad, dt) -> float:
    """Largest relative defect of the group-wise cell energy balance implied
    by the swept intensity; arguments as for transport.sweep_all."""
    c = phys.C_LIGHT
    tau = 1.0 / (c * dt)
    E, _, F = compute_moments(psi, inc_left, inc_right, quad)
    E_prev, _, _ = compute_moments(psi_prev, inc_left, inc_right, quad)
    dx = mesh.dx[None, :]
    return _rel_defect(np.stack([c * tau * dx * (E - E_prev),
                                 F[:, 1:] - F[:, :-1], c * sigma.T * dx * E,
                                 -q.T * dx]))


def dense_sweep_oracle(psi_prev, inc_left, inc_right, sigma, q, mesh, quad,
                       dt):
    """Assemble every corner equation of one group/direction pair into a
    dense matrix and solve it outright; arguments and result laid out as for
    transport.sweep_all."""
    inc_left, inc_right = full_inflows(inc_left, inc_right, quad)
    nx, _, M, G = psi_prev.shape
    tau = 1.0 / (phys.C_LIGHT * dt)
    dx = mesh.dx
    out = np.empty_like(psi_prev)
    for g in range(G):
        for m in range(M):
            mu = quad.mu[m]
            h = abs(mu) / 2.0
            A = np.zeros((2 * nx, 2 * nx))
            b = np.zeros(2 * nx)
            for i in range(nx):
                a = (sigma[i, g] + tau) * dx[i] / 2.0
                bsrc = 0.5 * dx[i] * (0.5 * q[i, g]
                                      + tau * psi_prev[i, :, m, g])
                L, R = 2 * i, 2 * i + 1
                if mu > 0:
                    A[L, L], A[L, R] = h + a, h
                    b[L] = bsrc[0]
                    if i == 0:
                        b[L] += mu * inc_left[g, m]
                    else:
                        A[L, R - 2] = -mu
                    A[R, L], A[R, R] = -h, h + a
                    b[R] = bsrc[1]
                else:
                    A[R, R], A[R, L] = h + a, h
                    b[R] = bsrc[1]
                    if i == nx - 1:
                        b[R] += abs(mu) * inc_right[g, m]
                    else:
                        A[R, L + 2] = -abs(mu)
                    A[L, R], A[L, L] = -h, h + a
                    b[L] = bsrc[0]
            out[:, :, m, g] = np.linalg.solve(A, b).reshape(nx, 2)
    return out


def sweep_all(psi_prev, inc_left, inc_right, sigma, q, mesh, quad, dt):
    """The corner-balance sweep with one cell loop per half range, each
    gathering its directions through the mu > 0 mask, on a groups-leading
    layout: psi_prev and the result (G, M, n_x, 2), sigma and q (G, n_x).
    The bitwise reference for transport.sweep_all."""
    inc_left, inc_right = full_inflows(inc_left, inc_right, quad)
    nx = mesh.n_cells
    tau = 1.0 / (phys.C_LIGHT * dt)
    dx = mesh.dx
    psi = np.empty_like(psi_prev)

    pos = quad.mu > 0
    mu_p = quad.mu[pos][None, :, None]          # (1, Mp, 1)
    mu_n = -quad.mu[~pos][None, :, None]

    a = (sigma[:, None, :] + tau) * (0.5 * dx)[None, None, :]   # (G, 1, nx)
    b = (0.5 * dx)[None, None, :] * (0.5 * q[:, None, None, :]
                                     + tau * psi_prev.transpose(0, 1, 3, 2))
    # b has shape (G, M, 2, nx): b[..., 0, :] left corner, b[..., 1, :] right

    half = 0.5 * mu_p
    det_p = (half + a) ** 2 + half**2
    inflow = inc_left[:, pos]                    # (G, Mp)
    for i in range(nx):
        ai = a[:, :, i]
        sL = b[:, pos, 0, i] + mu_p[:, :, 0] * inflow
        bR = b[:, pos, 1, i]
        hp = half[:, :, 0]
        psi[:, pos, i, 0] = (sL * (hp + ai) - hp * bR) / det_p[:, :, i]
        psi[:, pos, i, 1] = ((hp + ai) * bR + hp * sL) / det_p[:, :, i]
        inflow = psi[:, pos, i, 1]

    half = 0.5 * mu_n
    det_n = (half + a) ** 2 + half**2
    inflow = inc_right[:, ~pos]
    for i in range(nx - 1, -1, -1):
        ai = a[:, :, i]
        sR = b[:, ~pos, 1, i] + mu_n[:, :, 0] * inflow
        bL = b[:, ~pos, 0, i]
        hn = half[:, :, 0]
        psi[:, ~pos, i, 1] = (sR * (hn + ai) - hn * bL) / det_n[:, :, i]
        psi[:, ~pos, i, 0] = ((hn + ai) * bL + hn * sR) / det_n[:, :, i]
        inflow = psi[:, ~pos, i, 0]

    return psi


def _ratio(num, den, fallback):
    out = np.full_like(num, fallback)
    good = np.isfinite(den) & (den > 0.0)
    np.divide(num, den, out=out, where=good)
    return out


def compute_qd_factors(psi, inc_left, inc_right, quad):
    """Closures of a groups-leading psi (G, M, n_x, 2), gathering the exit
    corners through the mu > 0 mask, and the inflow source of each face
    written out per side: the reference for transport.compute_qd_factors,
    bit for bit in f's face columns, C and bc_in; f's cell columns, whose
    direction sums run in another order there, to within the round-off of
    that order."""
    inc_left, inc_right = full_inflows(inc_left, inc_right, quad)
    w, mu, pos = quad.w, quad.mu, quad.mu > 0
    wmu2 = w * mu * mu
    psi_bar = 0.5 * (psi[..., 0] + psi[..., 1])

    f = _ratio(np.einsum("m,gmi->gi", wmu2, psi_bar),
               np.einsum("m,gmi->gi", w, psi_bar), 1.0 / 3.0)

    fl = np.where(pos[None, :], inc_left, psi[:, :, 0, 0])
    fr = np.where(pos[None, :], psi[:, :, -1, 1], inc_right)
    f_face = np.stack([_ratio(fl @ wmu2, fl @ w, 1.0 / 3.0),
                       _ratio(fr @ wmu2, fr @ w, 1.0 / 3.0)], axis=1)

    exit_l = psi[:, ~pos, 0, 0]
    exit_r = psi[:, pos, -1, 1]
    C_minus = _ratio(exit_l @ (w * mu)[~pos], exit_l @ w[~pos], -0.5)
    C_plus = _ratio(exit_r @ (w * mu)[pos], exit_r @ w[pos], 0.5)

    # F_in - c C E_in with E_in = (2/c) sum w psi, F_in = 2 sum w mu psi
    in_l, in_r = inc_left[:, pos], inc_right[:, ~pos]
    bc_left = 2.0 * (in_l @ (w * mu)[pos] - C_minus * (in_l @ w[pos]))
    bc_right = 2.0 * (in_r @ (w * mu)[~pos] - C_plus * (in_r @ w[~pos]))
    return transport.ClosureData(f=with_faces(f, f_face),
                                 C=np.column_stack([C_minus, C_plus]),
                                 bc_in=np.column_stack([bc_left, bc_right]))


def with_faces(cells, faces):
    """(P, n_x + 2) from cell columns (P, n_x) and face columns (P, 2): the
    x = 0 face, the cells, the x = X face."""
    return np.column_stack([faces[:, 0], cells, faces[:, 1]])


def random_coefficients(G, mesh, rng, with_eta=False):
    nx = mesh.n_cells
    f = 0.25 + 0.2 * rng.random((G, nx))  # first draw of the seed
    sig_E = 0.5 + 2.0 * rng.random((G, nx))
    sig_B = 0.5 + 2.0 * rng.random((G, nx))
    B = 0.1 + rng.random((G, nx))
    coef = loqd.LoqdCoefficients(
        level=0, sig_E=sig_E, sig_B=sig_B, B=B,
        f=with_faces(f, 0.3 + 0.2 * rng.random((G, 2))),
        sig_R_face=0.5 + 2.0 * rng.random((G, nx + 1)),
        eta_hat=0.3 * rng.random((G, nx + 1)) if with_eta else np.zeros((G, nx + 1)),
        eta_check=0.3 * rng.random((G, nx + 1)) if with_eta else np.zeros((G, nx + 1)),
        C=np.column_stack([-0.3 - 0.4 * rng.random(G),
                           0.3 + 0.4 * rng.random(G)]),
        bc_in=np.empty((G, 2)),
    )
    E_in = 0.1 * rng.random((G, 2))
    F_in = np.column_stack([0.2 * rng.random(G), -0.2 * rng.random(G)])
    bc_offset = 0.05 * rng.standard_normal((G, 2)) if with_eta \
        else np.zeros((G, 2))
    coef.bc_in = boundary_source(E_in, F_in, bc_offset, coef)
    return coef


def boundary_source(E_in, F_in, bc_offset, coef):
    """bc_in of the three-array boundary data: F_in + bc_offset - c C E_in."""
    return F_in + bc_offset - phys.C_LIGHT * coef.C * E_in


def restrict_boundary_data(E_in, F_in, bc_offset, coef, merged, starts):
    """Three-array restriction of the boundary data onto merged intervals:
    E_in and F_in summed, and an offset that moves each merged condition's
    c C E_in term from the source level's C to the merged one, so the
    merged condition is the sum of its originals."""
    def sums(q):
        return np.add.reduceat(q, starts[:-1], axis=0)

    E_p = sums(E_in)
    offset = sums(bc_offset) + phys.C_LIGHT * (merged.C * E_p
                                               - sums(coef.C * E_in))
    return E_p, sums(F_in), offset


def _first_moment_terms(coef, dt, mesh):
    """tau and the per-face weights of F D = dxd tau F_prev + c a1 u_left
    - c a2 u_right, where u is [E_left_face, E_cells..., E_right_face]."""
    tau = 1.0 / (phys.C_LIGHT * dt)
    dxd = mesh.dual_dx
    D = dxd * (tau + coef.sig_R_face)
    a1 = coef.f[:, :-1] + dxd * coef.eta_check
    a2 = coef.f[:, 1:] + dxd * coef.eta_hat
    return tau, D, a1, a2


def dense_oracle(coef, E_prev, F_prev, dt, mesh, sig_E=None, source=None):
    """Full assembled solve of each interval's moment system, with every
    unknown (cell and face energies and all face fluxes) and every equation
    written out."""
    c = phys.C_LIGHT
    P, nx = coef.sig_E.shape
    sig_E = coef.sig_E if sig_E is None else sig_E
    source = 2.0 * coef.sig_B * coef.B if source is None else source
    tau, D, a1, a2 = _first_moment_terms(coef, dt, mesh)
    dxd = mesh.dual_dx
    dx = mesh.dx
    u = np.empty((P, nx + 2))
    F = np.empty((P, nx + 1))
    for p in range(P):
        n = 2 * nx + 3  # u (nx+2) then F (nx+1)
        A = np.zeros((n, n))
        b = np.zeros(n)
        iF = nx + 2
        for k in range(nx + 1):  # first-moment equation on each dual cell
            A[k, iF + k] = D[p, k]
            A[k, k] = -c * a1[p, k]
            A[k, k + 1] = c * a2[p, k]
            b[k] = dxd[k] * tau * F_prev[p, k]
        for i in range(nx):  # cell balance
            r = nx + 1 + i
            A[r, i + 1] = dx[i] / dt + c * sig_E[p, i] * dx[i]
            A[r, iF + i] = -1.0
            A[r, iF + i + 1] = 1.0
            b[r] = source[p, i] * dx[i] + dx[i] / dt * E_prev[p, i]
        A[-2, iF] = 1.0
        A[-2, 0] = -c * coef.C[p, 0]
        b[-2] = coef.bc_in[p, 0]
        A[-1, iF + nx] = 1.0
        A[-1, nx + 1] = -c * coef.C[p, 1]
        b[-1] = coef.bc_in[p, 1]
        x = np.linalg.solve(A, b)
        u[p] = x[:iF]
        F[p] = x[iF:]
    return loqd.MomentField(u=u, F=F)


def residual_norms(coef, sol, E_prev, F_prev, dt, mesh, sig_E=None,
                   source=None) -> float:
    """Largest relative defect over every assembled equation (balance,
    first-moment, boundary conditions) at the given solution."""
    c = phys.C_LIGHT
    sig_E = coef.sig_E if sig_E is None else sig_E
    source = 2.0 * coef.sig_B * coef.B if source is None else source
    tau, D, a1, a2 = _first_moment_terms(coef, dt, mesh)
    dx = mesh.dx[None, :]
    u = sol.u

    worst = 0.0
    # first-moment equations on dual cells
    terms = np.stack([D * sol.F, -mesh.dual_dx[None, :] * tau * F_prev,
                      c * a2 * u[:, 1:], -c * a1 * u[:, :-1]])
    worst = max(worst, _rel_defect(terms))
    # cell balance
    terms = np.stack([dx / dt * (sol.E - E_prev), sol.F[:, 1:] - sol.F[:, :-1],
                      c * sig_E * dx * sol.E, -source * dx])
    worst = max(worst, _rel_defect(terms))
    # boundary conditions
    for side, fa in ((0, sol.F[:, 0]), (1, sol.F[:, -1])):
        terms = np.stack([fa, -c * coef.C[:, side] * sol.E_face[:, side],
                          -coef.bc_in[:, side]])
        worst = max(worst, _rel_defect(terms))
    return worst


def conservation_check(fine_sol, coarse_sol, hierarchy, level):
    """Max relative spectrum-conservation mismatch between a level's solution
    and the restriction of the fine one (energy densities and fluxes)."""
    want = hierarchy.restrict(fine_sol.u, level)
    got = coarse_sol.u
    F = hierarchy.restrict(fine_sol.F, level)
    dE = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)
    dF = np.max(np.abs(coarse_sol.F - F)) / max(np.max(np.abs(F)), 1e-300)
    return float(dE), float(dF)


def planck_B(nu, T):
    """Spectral emission density B(nu, T); zero at nu = 0 and in deep Wien tail."""
    nu = np.asarray(nu, dtype=float)
    T = np.asarray(T, dtype=float)
    x = np.divide(nu, T, out=np.zeros(np.broadcast(nu, T).shape), where=T > 0)
    denom = -np.expm1(-x)
    out = np.zeros_like(denom)
    np.divide(phys.PLANCK_PREFACTOR * nu**3 * np.exp(-x), denom,
              out=out, where=denom > 0)
    return out if out.ndim else float(out)


def planck_dB_dT(nu, T):
    """Temperature derivative of planck_B at fixed nu."""
    nu = np.asarray(nu, dtype=float)
    T = np.asarray(T, dtype=float)
    x = nu / T
    denom = np.expm1(-x) ** 2
    out = np.zeros_like(denom)
    np.divide(phys.PLANCK_PREFACTOR * nu**4 / T**2 * np.exp(-x), denom,
              out=out, where=denom > 0)
    return out if out.ndim else float(out)


def planck_tail(x):
    """Integral of t^3/(e^t - 1) over [x, inf): each series evaluated on the
    whole array and masked to its branch (Bernoulli below 2, 20 exponential
    terms from 2 on)."""
    out = np.empty_like(x)
    small = x < 2.0
    xs = np.where(small, x, 0.0)
    x2 = xs * xs
    acc = np.zeros_like(xs)
    for c in phys._BERN_C[::-1]:
        acc = (acc + c) * x2
    head = xs**3 * (1.0 / 3.0 - xs / 8.0 + acc)
    out[small] = (phys._PI4_15 - head)[small]
    big = ~small
    xb = np.where(big, x, 2.0)
    acc = np.zeros_like(xb)
    for n in range(20, 0, -1):
        e = np.exp(-n * xb)
        acc += e * (xb**3 / n + 3.0 * xb**2 / n**2 + 6.0 * xb / n**3
                    + 6.0 / n**4)
    out[big] = acc[big]
    return out


def log_nodes(edges, n=16):
    """The n-point Gauss-Legendre rule in log(nu) on every group: nodes and
    weights (dnu = nu d(log nu) included), each (G, n)."""
    edges = np.asarray(edges, dtype=float)
    gl_nodes, gl_weights = leggauss(n)
    lo = np.maximum(edges[:-1], edges[1:] * 1e-12)
    u0 = np.log(lo)
    half = 0.5 * (np.log(edges[1:]) - u0)
    nu = np.exp(u0[:, None] + half[:, None] * (gl_nodes[None, :] + 1.0))
    return nu, half[:, None] * gl_weights[None, :] * nu


def planck_groups(T, edges, panel=0.01, n=16):
    """Group integrals of planck_B(nu, T), (n_T, G): each group cut into
    equal panels at most panel wide in log(nu), each on the n-point
    Gauss-Legendre rule.  Panel widths come from log1p of the group's
    relative width, so a narrow group keeps its width to round-off.  A zero
    lower edge is first moved up to 1e-12 of the upper edge, as in
    phys.log_rule, and the sliver below it takes the n-point rule in nu."""
    T = np.asarray(T, dtype=float)
    edges = np.asarray(edges, dtype=float)
    lo = np.maximum(edges[:-1], edges[1:] * 1e-12)
    width = np.log1p((edges[1:] - lo) / lo)
    panels = np.ceil(width / panel).astype(int)
    group = np.repeat(np.arange(lo.size), panels)
    k = np.arange(group.size) - np.repeat(np.cumsum(panels) - panels, panels)
    h = (width / panels)[group][:, None]
    x, wgl = leggauss(n)
    nu = lo[group][:, None] * np.exp(h * (k[:, None] + 0.5 * (x + 1.0)))
    w = 0.5 * h * wgl * nu
    # the sliver [0, lo] of a zero lower edge, as one more panel
    cut = edges[:-1] < lo
    nu = np.vstack([nu, 0.5 * lo[cut][:, None] * (x + 1.0)])
    w = np.vstack([w, 0.5 * lo[cut][:, None] * wgl])
    group = np.concatenate([group, np.flatnonzero(cut)])
    return np.array([np.bincount(group, (planck_B(nu, t) * w).sum(axis=1),
                                 minlength=lo.size) for t in T])


def _node_weights(T, T_r, nu, w):
    """B(nu, T) w, B(nu, T_r) w and dB/dT(nu, T_r) w, each (n, G, nodes)."""
    T = np.asarray(T, dtype=float)[:, None, None]
    T_r = np.asarray(T_r, dtype=float)[:, None, None]
    return (planck_B(nu[None], T) * w[None], planck_B(nu[None], T_r) * w[None],
            planck_dB_dT(nu[None], T_r) * w[None])


def weight_shares(T, T_r, edges, nodes=128):
    """Each group's share of the B(T), B(T_r) and dB/dT(T_r) weight of its
    cell, the weights of sig_B, sig_E and sig_R in turn: (3, n, G)."""
    nu, w = log_nodes(edges, nodes)
    sums = np.array([q.sum(axis=2)
                     for q in _node_weights(T, T_r, nu, w)])
    return sums / sums.sum(axis=2, keepdims=True)


def build_group_opacities(T, T_r, edges, sigma,
                          nodes=16) -> phys.GroupOpacitySet:
    """Every group average evaluated from scratch with the nodes-point rule
    of log_nodes on every group, from pointwise Planck weights at T and
    T_r, with nothing shared between builds; B is planck_groups above."""
    T = np.asarray(T, dtype=float)
    edges = np.asarray(edges, dtype=float)
    nu, w = log_nodes(edges, nodes)
    lo = np.maximum(edges[:-1], edges[1:] * 1e-12)
    sig = sigma(nu[None, :, :], T[:, None, None])
    fallback = sigma(np.sqrt(lo * edges[1:])[None, :], T[:, None])

    def avg(wgt, harmonic):
        den_w = wgt.sum(axis=2)
        if harmonic:
            num, den = den_w, (wgt / sig).sum(axis=2)
        else:
            num, den = (wgt * sig).sum(axis=2), den_w
        empty = den_w < 1e-300
        return np.where(empty, fallback, num / np.where(empty, 1.0, den))

    w_loc, w_rad, w_ros = _node_weights(T, T_r, nu, w)
    return phys.GroupOpacitySet(sig_B=avg(w_loc, False),
                                sig_E=avg(w_rad, False),
                                sig_R=avg(w_ros, True),
                                B=planck_groups(T, edges))


# The low-order solve and merge as they stood before their per-call cost was
# cut, kept verbatim: the bitwise references for loqd.solve_moment_system
# and loqd.merge_coefficients (values and the memory layout of every
# returned moment array).

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


def solve_moment_system(coef: loqd.LoqdCoefficients, E_prev: np.ndarray,
                        F_prev: np.ndarray, dt: float, mesh: SpatialMesh,
                        sig_E=None, source=None) -> loqd.MomentField:
    """Direct banded solve of one level's moment system for one time step.

    Face fluxes are eliminated from the first-moment equations, leaving a
    tridiagonal system in [E_left_face, E_cells..., E_right_face] per
    interval.  sig_E/source override the absorption and emission density
    (used by the grey solve); source defaults to 2 sigma_B B.
    """
    c = phys.C_LIGHT
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
    a1 = coef.f[:, :-1] + dxd * coef.eta_check
    a2 = coef.f[:, 1:] + dxd * coef.eta_hat
    R = dxd * tau * F_prev

    dx = mesh.dx[None, :]
    lower = np.zeros((P, nx + 2))
    diag = np.zeros((P, nx + 2))
    upper = np.zeros((P, nx + 2))
    rhs = np.zeros((P, nx + 2))

    diag[:, 0] = c * a1[:, 0] / D[:, 0] - c * coef.C[:, 0]
    upper[:, 0] = -c * a2[:, 0] / D[:, 0]
    rhs[:, 0] = coef.bc_in[:, 0] - R[:, 0] / D[:, 0]

    lower[:, 1:-1] = -c * a1[:, :-1] / D[:, :-1]
    diag[:, 1:-1] = (dx / dt + c * sig_E * dx
                     + c * a1[:, 1:] / D[:, 1:] + c * a2[:, :-1] / D[:, :-1])
    upper[:, 1:-1] = -c * a2[:, 1:] / D[:, 1:]
    rhs[:, 1:-1] = (source * dx + dx / dt * E_prev
                    - R[:, 1:] / D[:, 1:] + R[:, :-1] / D[:, :-1])

    lower[:, -1] = c * a1[:, -1] / D[:, -1]
    diag[:, -1] = -c * a2[:, -1] / D[:, -1] - c * coef.C[:, 1]
    rhs[:, -1] = coef.bc_in[:, 1] - R[:, -1] / D[:, -1]

    u = _thomas(lower, diag, upper, rhs)
    F = (R + c * a1 * u[:, :-1] - c * a2 * u[:, 1:]) / D
    return loqd.MomentField(u=u, F=F)


def _wmean(values: np.ndarray, weights: np.ndarray, den: np.ndarray,
           starts: np.ndarray, harmonic: bool = False) -> np.ndarray:
    """Weighted mean over index segments, given den, the segment sums of
    the weights, with a degenerate-weight fallback (plain arithmetic mean,
    or harmonic mean for Rosseland opacities)."""
    num = segment_sum(values * weights, starts)
    counts = np.diff(starts).reshape((-1,) + (1,) * (values.ndim - 1))
    if harmonic:
        fallback = counts / segment_sum(1.0 / values, starts)
    else:
        fallback = segment_sum(values, starts) / counts
    good = den > 1e-300
    return np.where(good, num / np.where(good, den, 1.0), fallback)


def _expand(coarse: np.ndarray, starts: np.ndarray) -> np.ndarray:
    return np.repeat(coarse, np.diff(starts), axis=0)


def merge_coefficients(coef: loqd.LoqdCoefficients, sol: loqd.MomentField,
                       starts: np.ndarray,
                       level_out: int) -> loqd.LoqdCoefficients:
    """Restrict a level's coefficients onto merged spectral intervals, using
    that level's moment solution as weights.

    Eddington factors and sigma_E average with weight E, sigma_B with weight
    B, face Rosseland opacities with weight |F|; the flux compensation terms
    eta are built so the merged first-moment equations reproduce the summed
    originals exactly at the given solution, with the sign-split placing the
    correction on the downwind side.  Boundary C factors average with the
    face E weight.  The boundary source bc_in is summed like the equations
    it enters, so each merged boundary condition is the sum of its
    originals at the given solution.
    """
    c = phys.C_LIGHT
    starts = np.asarray(starts, dtype=int)

    E_p = segment_sum(sol.E, starts)
    Eface_p = segment_sum(sol.E_face, starts)
    B_p = segment_sum(coef.B, starts)
    abs_F = np.abs(sol.F)

    sig_E = _wmean(coef.sig_E, sol.E, E_p, starts)
    f = _wmean(coef.f[:, 1:-1], sol.E, E_p, starts)
    sig_B = _wmean(coef.sig_B, coef.B, B_p, starts)
    f_face = _wmean(coef.f[:, [0, -1]], sol.E_face, Eface_p, starts)
    sig_R_face = _wmean(coef.sig_R_face, abs_F, segment_sum(abs_F, starts),
                        starts, harmonic=True)

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

    return loqd.LoqdCoefficients(
        level=level_out, sig_E=sig_E, sig_B=sig_B, B=B_p,
        f=with_faces(f, f_face), sig_R_face=sig_R_face, eta_hat=eta_hat, eta_check=eta_check,
        C=_wmean(coef.C, sol.E_face, Eface_p, starts),
        bc_in=segment_sum(coef.bc_in, starts))
