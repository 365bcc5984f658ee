"""Multigroup thermal radiative transfer in 1D slabs, accelerated by a
quasidiffusion low-order system with multigrid cycles in photon frequency."""

from .cycles import (ConvergenceCriteria, CycleSchedule, Problem,
                     SimulationResult, initial_state, make_schedule,
                     run_simulation, run_time_step)
from .grids import (AngularQuadrature, FrequencyGridHierarchy, SpatialMesh,
                    build_fc_frequency_grid, build_hierarchy,
                    double_gauss_legendre)
from .phys import (ConvergenceError, FleckCummingsOpacity, GroupOpacitySet,
                   MaterialModel, build_group_opacities, log_rule,
                   planck_groups, radiation_weights)

__all__ = [
    "AngularQuadrature", "ConvergenceCriteria", "ConvergenceError",
    "CycleSchedule", "FleckCummingsOpacity", "FrequencyGridHierarchy",
    "GroupOpacitySet", "MaterialModel", "Problem", "SimulationResult",
    "SpatialMesh",
    "build_fc_frequency_grid", "build_group_opacities", "build_hierarchy",
    "double_gauss_legendre", "initial_state", "log_rule", "make_schedule",
    "planck_groups", "radiation_weights", "run_simulation", "run_time_step",
]

__version__ = "0.1.0"
