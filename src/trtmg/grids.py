"""The frequency-grid hierarchy (fine edges, coarsening runs and the fine
log-frequency rule), spatial mesh, angular quadrature."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import phys


def _finite_increasing(x: np.ndarray) -> bool:
    """Every entry finite and each one above the last (False on any NaN)."""
    return bool(np.all(np.isfinite(x)) and np.all(np.diff(x) > 0))


def build_fc_frequency_grid(n_groups: int) -> np.ndarray:
    """Edges of the standard benchmark grid: [0, 1e-4], n-2 log-spaced
    groups to 10 keV, and a closing group up to 1e7 keV."""
    if n_groups < 3:
        raise ValueError("benchmark frequency grid needs at least 3 groups")
    interior = np.logspace(-4.0, 1.0, n_groups - 1)
    return np.concatenate(([0.0], interior, [1e7]))


def _run_starts(n_fine: int, n_coarse: int) -> np.ndarray:
    """Start indices of contiguous runs merging n_fine intervals into
    n_coarse; remainder intervals are absorbed at the high-frequency end."""
    base, rem = divmod(n_fine, n_coarse)
    lengths = np.full(n_coarse, base, dtype=int)
    if rem:
        lengths[n_coarse - rem:] += 1
    return np.concatenate(([0], np.cumsum(lengths)))


def segment_sum(q: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum the runs q[starts[k]:starts[k+1]] along axis 0."""
    return np.add.reduceat(np.asarray(q), starts[:-1], axis=0)


@dataclass(frozen=True)
class FrequencyGridHierarchy:
    """Nested frequency grids; level index 0 is the fine grid, the last
    level is the single-interval grey grid.

    edges are the fine group edges in keV, read-only.  starts_fine[L] gives,
    for each interval of level L, the run of fine (level 0) groups it
    merges, as cumulative start indices.
    """

    edges: np.ndarray
    counts: tuple
    starts_fine: tuple     # starts_fine[0] is identity

    @property
    def n_levels(self) -> int:
        return len(self.counts)

    # the rule depends on the fine edges alone: built on first use (for the
    # benchmark, the boundary inflow's Planck integrals during set-up), it
    # then serves every step
    @cached_property
    def rule(self) -> phys.LogRule:
        return phys.log_rule(self.edges)

    def restrict(self, q: np.ndarray, level: int) -> np.ndarray:
        """Sum a fine-grid (level 0) array, groups on axis 0, onto a coarser
        level."""
        return segment_sum(q, self.starts_fine[level])


def build_hierarchy(edges, counts) -> FrequencyGridHierarchy:
    """Build the multigrid-in-frequency hierarchy on the fine group edges
    (keV; finite, ascending, edges[0] >= 0) for the given group counts.

    counts must start at the fine group number, decrease strictly, and end
    at 1 (the grey grid).  Each level merges contiguous runs of the level
    above it.  The hierarchy keeps a read-only copy of the edges.
    """
    edges = np.array(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("frequency grid needs at least two edges")
    if not (edges[0] >= 0 and _finite_increasing(edges)):
        raise ValueError("frequency edges must be finite, nonnegative and "
                         "strictly increasing")
    edges.flags.writeable = False
    counts = tuple(int(n) for n in counts)
    if not counts or counts[0] != edges.size - 1:
        raise ValueError("hierarchy must start at the fine grid group count")
    if counts[-1] != 1:
        raise ValueError("hierarchy must end at a single grey interval")
    if any(b >= a for a, b in zip(counts, counts[1:])):
        raise ValueError("hierarchy group counts must be strictly decreasing")
    starts_fine = [np.arange(counts[0] + 1)]
    for L in range(1, len(counts)):
        starts_prev = _run_starts(counts[L - 1], counts[L])
        starts_fine.append(starts_fine[L - 1][starts_prev])
    return FrequencyGridHierarchy(edges=edges, counts=counts,
                                  starts_fine=tuple(starts_fine))


@dataclass(frozen=True)
class SpatialMesh:
    """1D slab mesh.  faces has n_x+1 entries; dual_dx[f] is the width of
    the first-moment control volume of face f (half cells at the boundaries)."""

    faces: np.ndarray

    def __post_init__(self):
        faces = np.asarray(self.faces, dtype=float)
        object.__setattr__(self, "faces", faces)
        if faces.ndim != 1 or faces.size < 2 or not _finite_increasing(faces):
            raise ValueError(
                "mesh faces must be finite and strictly increasing")

    @property
    def n_cells(self) -> int:
        return self.faces.size - 1

    # every moment solve reads the widths, so each mesh forms them once,
    # read-only (the faces are fixed once the mesh is built)
    @cached_property
    def dx(self) -> np.ndarray:
        dx = np.diff(self.faces)
        dx.flags.writeable = False
        return dx

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.faces[:-1] + self.faces[1:])

    @cached_property
    def dual_dx(self) -> np.ndarray:
        dx = self.dx
        out = np.empty(dx.size + 1)
        out[0] = 0.5 * dx[0]
        out[-1] = 0.5 * dx[-1]
        out[1:-1] = 0.5 * (dx[:-1] + dx[1:])
        out.flags.writeable = False
        return out

    @classmethod
    def uniform(cls, n_cells: int, length: float) -> "SpatialMesh":
        # checked before linspace, which warns on an infinite length
        if n_cells < 1:
            raise ValueError(f"n_cells must be >= 1, got {n_cells}")
        if not 0.0 < length < np.inf:
            raise ValueError(
                f"length must be positive and finite, got {length}")
        return cls(np.linspace(0.0, length, n_cells + 1))


@dataclass(frozen=True)
class AngularQuadrature:
    """Direction cosines and weights, ascending in mu; the weights are
    positive and sum to 2 (to 1e-12 relative)."""

    mu: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "w", w)
        if mu.shape != w.shape or mu.ndim != 1:
            raise ValueError("quadrature nodes and weights must align")
        if not _finite_increasing(mu) or np.any(mu == 0.0):
            raise ValueError("direction cosines must be finite, ascending "
                             "and nonzero")
        if not (np.all(w > 0.0) and abs(w.sum() - 2.0) <= 2.0 * 1e-12):
            raise ValueError(f"quadrature weights must be positive and sum "
                             f"to 2, got {w.tolist()}")

    @property
    def n_dirs(self) -> int:
        return self.mu.size

    @property
    def n_neg(self) -> int:  # directions with mu < 0, which come first
        return int(np.searchsorted(self.mu, 0.0))


def double_gauss_legendre(n_per_half: int) -> AngularQuadrature:
    """Gauss-Legendre rule applied separately on each half range of mu."""
    if n_per_half < 1:
        raise ValueError("need at least one direction per half range")
    x, w = leggauss(n_per_half)
    mu_pos = 0.5 * (x + 1.0)
    w_pos = 0.5 * w
    mu = np.concatenate((-mu_pos[::-1], mu_pos))
    wgt = np.concatenate((w_pos[::-1], w_pos))
    return AngularQuadrature(mu=mu, w=wgt)
