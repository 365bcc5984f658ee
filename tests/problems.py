"""Small problems, angular rules and the energy-balance check shared by
the test modules."""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from trtmg import cycles, phys
from trtmg.cli import RunConfig, fc_problem
from trtmg.cycles import Problem
from trtmg.grids import (AngularQuadrature, SpatialMesh,
                         build_fc_frequency_grid, build_hierarchy,
                         double_gauss_legendre)
from trtmg.phys import FleckCummingsOpacity, MaterialModel

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


def benchmark_on(quad, grids, cells=4):
    """fc_problem's slab on the angular rule quad: its drive B_b/2 enters
    in every mu > 0 direction and nothing enters at x = X."""
    prob = fc_problem(RunConfig(grids=grids, cells=cells))
    drive = prob.inc_left[0]
    n = quad.n_neg
    return replace(prob, quad=quad,
                   inc_left=np.tile(drive, (quad.n_dirs - n, 1)),
                   inc_right=np.zeros((n, drive.size)))


def equilibrium_problem(T0=1.0, cells=4, grids=(16, 1)):
    """Slab bathed in Planckian radiation at its own temperature from both
    sides; every field starts at its steady value."""
    hier = build_hierarchy(build_fc_frequency_grid(grids[0]), grids)
    mesh = SpatialMesh.uniform(cells, 2.0)
    quad = double_gauss_legendre(4)
    B0 = phys.planck_groups(np.array([T0]), hier.rule, hier.edges)[0]
    n = quad.n_neg
    return Problem(mesh=mesh, quad=quad, hierarchy=hier,
                   material=MaterialModel(c_v=0.1 * phys.A_RAD),
                   sigma=FleckCummingsOpacity(),
                   inc_left=np.tile(0.5 * B0, (quad.n_dirs - n, 1)),
                   inc_right=np.tile(0.5 * B0, (n, 1)), T_init=T0)


@contextmanager
def energy_balance(rtol):
    """Check the implicit-Euler budget of every time step taken in the
    block, the step from t = 0 included: the change in material + radiation
    energy between consecutive committed states is the time step times the
    net face influx of the new state, to rtol of its total energy.  Records
    the steps by swapping cycles.run_time_step for the block, and yields the
    list of (problem, old state, new state, dt) it fills."""
    step = cycles.run_time_step
    taken = []

    def recorded(problem, state, schedule, criteria, dt, *args):
        new = step(problem, state, schedule, criteria, dt, *args)
        taken.append((problem, state, new, dt))
        return new

    cycles.run_time_step = recorded
    try:
        yield taken
    finally:
        cycles.run_time_step = step
    for k, (problem, old, new, dt) in enumerate(taken, 1):
        (m0, r0, _, _), (m1, r1, f_left, f_right) = (
            _energies(problem, state) for state in (old, new))
        lhs = m1 + r1 - m0 - r0
        rhs = dt * (f_left - f_right)
        assert abs(lhs - rhs) <= rtol * (m1 + r1), k


def _energies(problem, state):
    """Material and radiation energy over the slab, and the spectrum-total
    flux at the left and right faces."""
    dx = problem.mesh.dx
    F_tot = state.F.sum(axis=0)
    return (float(dx @ problem.material.energy(state.T)),
            float(dx @ state.E.sum(axis=0)), float(F_tot[0]),
            float(F_tot[-1]))
