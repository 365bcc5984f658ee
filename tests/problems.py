"""Small problems shared by the test modules."""

import numpy as np

from trtmg import phys
from trtmg.cycles import Problem
from trtmg.grids import (SpatialMesh, build_fc_frequency_grid, build_hierarchy,
                         double_gauss_legendre)
from trtmg.phys import FleckCummingsOpacity, MaterialModel


def equilibrium_problem(T0=1.0, cells=4, grids=(16, 1)):
    """Slab bathed in Planckian radiation at its own temperature from both
    sides; every field starts at its steady value."""
    fine = build_fc_frequency_grid(grids[0])
    hier = build_hierarchy(fine, grids)
    mesh = SpatialMesh.uniform(cells, 2.0)
    quad = double_gauss_legendre(4)
    B0 = phys.planck_groups(np.array([T0]), fine.edges)[0]
    G, M = fine.n_groups, quad.n_dirs
    inc_left = np.zeros((G, M))
    inc_left[:, quad.positive] = 0.5 * B0[:, None]
    inc_right = np.zeros((G, M))
    inc_right[:, ~quad.positive] = 0.5 * B0[:, None]
    return Problem(mesh=mesh, quad=quad, hierarchy=hier,
                   material=MaterialModel(c_v=0.1 * phys.A_RAD),
                   sigma=FleckCummingsOpacity(), inc_left=inc_left,
                   inc_right=inc_right, T_init=T0)
