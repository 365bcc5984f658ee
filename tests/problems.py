"""Small problems and the energy-balance check shared by the test
modules."""

from contextlib import contextmanager

import numpy as np

from trtmg import cycles, phys
from trtmg.cycles import Problem
from trtmg.grids import (SpatialMesh, build_fc_frequency_grid, build_hierarchy,
                         double_gauss_legendre)
from trtmg.phys import FleckCummingsOpacity, MaterialModel


def equilibrium_problem(T0=1.0, cells=4, grids=(16, 1)):
    """Slab bathed in Planckian radiation at its own temperature from both
    sides; every field starts at its steady value."""
    hier = build_hierarchy(build_fc_frequency_grid(grids[0]), grids)
    mesh = SpatialMesh.uniform(cells, 2.0)
    quad = double_gauss_legendre(4)
    B0 = phys.planck_groups(np.array([T0]), hier.edges)[0]
    G, M = hier.counts[0], quad.n_dirs
    inc_left = np.zeros((G, M))
    inc_left[:, quad.positive] = 0.5 * B0[:, None]
    inc_right = np.zeros((G, M))
    inc_right[:, ~quad.positive] = 0.5 * B0[:, None]
    return Problem(mesh=mesh, quad=quad, hierarchy=hier,
                   material=MaterialModel(c_v=0.1 * phys.A_RAD),
                   sigma=FleckCummingsOpacity(), inc_left=inc_left,
                   inc_right=inc_right, T_init=T0)


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
