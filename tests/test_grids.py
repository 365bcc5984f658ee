"""Frequency grids, the merge hierarchy, the spatial mesh, and quadrature."""

import numpy as np
import pytest

from trtmg.grids import (AngularQuadrature, GridError, SpatialMesh,
                         build_fc_frequency_grid, build_hierarchy,
                         double_gauss_legendre)


class TestFrequencyGrid:
    def test_benchmark_grid_shape(self):
        edges = build_fc_frequency_grid(256)
        assert edges.shape == (257,)
        assert edges[0] == 0.0
        assert edges[1] == pytest.approx(1e-4, rel=1e-15)
        assert edges[-2] == pytest.approx(10.0, rel=1e-15)
        assert edges[-1] == 1e7
        # interior edges are log-uniform
        r = np.diff(np.log(edges[1:-1]))
        assert np.allclose(r, r[0], rtol=1e-12)

    def test_too_few_groups(self):
        with pytest.raises(GridError):
            build_fc_frequency_grid(2)

    def test_edges_must_increase(self):
        with pytest.raises(GridError):
            build_hierarchy(np.array([0.0, 2.0, 1.0]), (2, 1))
        # a NaN compares false both ways, and an infinite top edge would
        # give the last group a NaN opacity
        for edges in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf],
                      [np.nan, 1.0, 2.0]):
            with pytest.raises(GridError, match="finite"):
                build_hierarchy(np.array(edges), (2, 1))


class TestHierarchy:
    def test_partition_runs(self):
        hier = build_hierarchy(build_fc_frequency_grid(10), (10, 4, 1))
        assert hier.n_levels == 3
        # remainder groups land at the high-frequency end: runs 2,2,3,3
        assert hier.starts_fine[1].tolist() == [0, 2, 4, 7, 10]
        assert hier.starts_fine[2].tolist() == [0, 10]

    def test_levels_nested(self):
        # every level's boundaries are boundaries of the level above it,
        # and every level spans the whole fine spectrum
        hier = build_hierarchy(build_fc_frequency_grid(16), (16, 8, 3, 1))
        for L in range(1, hier.n_levels):
            starts = hier.starts_fine[L]
            assert starts.size == hier.counts[L] + 1
            assert np.all(np.isin(starts, hier.starts_fine[L - 1]))
            assert starts[0] == 0 and starts[-1] == 16

    def test_restrict_sums(self):
        hier = build_hierarchy(build_fc_frequency_grid(10), (10, 4, 1))
        q = np.arange(10.0)
        got = hier.restrict(q, 1)
        assert got.tolist() == [0 + 1, 2 + 3, 4 + 5 + 6, 7 + 8 + 9]
        assert hier.restrict(q, 2).tolist() == [45.0]
        # a per-cell array restricts each cell's spectrum
        q2 = np.arange(20.0).reshape(10, 2)
        assert hier.restrict(q2, 1)[:, 1].tolist() == \
            hier.restrict(q2[:, 1], 1).tolist()

    def test_keeps_a_read_only_copy_of_the_edges(self):
        # the hierarchy owns its edges: the caller's array stays writable,
        # and a later write into it does not reach the hierarchy
        edges = build_fc_frequency_grid(4)
        hier = build_hierarchy(edges, (4, 1))
        assert edges.flags.writeable
        assert not hier.edges.flags.writeable
        edges[-1] = 2e7
        assert hier.edges[-1] == 1e7
        with pytest.raises(ValueError):
            hier.edges[0] = 1.0

    def test_validation(self):
        fine = build_fc_frequency_grid(16)
        with pytest.raises(GridError):
            build_hierarchy(fine, (8, 4, 1))     # wrong fine count
        with pytest.raises(GridError):
            build_hierarchy(fine, (16, 4))       # must end at grey
        with pytest.raises(GridError):
            build_hierarchy(fine, (16, 4, 4, 1))  # must strictly decrease


class TestSpatialMesh:
    def test_uniform(self):
        mesh = SpatialMesh.uniform(10, 4.0)
        assert mesh.n_cells == 10
        assert np.allclose(mesh.dx, 0.4, rtol=1e-14)
        assert mesh.centers[0] == pytest.approx(0.2)
        assert mesh.centers[-1] == pytest.approx(3.8)

    def test_dual_cells(self):
        mesh = SpatialMesh(np.array([0.0, 1.0, 4.0]))
        # half cells at the boundaries, half-sums inside
        assert mesh.dual_dx.tolist() == [0.5, 2.0, 1.5]
        assert mesh.dual_dx.sum() == pytest.approx(4.0)

    @pytest.mark.parametrize("faces", [[0.0, 2.0, 1.0], [0.0, 0.0, 1.0],
                                       [0.0], [0.0, np.nan, 1.0],
                                       [0.0, 1.0, np.inf],
                                       [-np.inf, 0.0, 1.0]])
    def test_validation(self, faces):
        with pytest.raises(GridError):
            SpatialMesh(np.array(faces))

    @pytest.mark.parametrize("n_cells,length,key", [
        (10, np.inf, "length"),    # linspace would warn before the mesh check
        (10, np.nan, "length"),
        (10, 0.0, "length"),
        (10, -4.0, "length"),
        (0, 4.0, "n_cells"),
        (-3, 4.0, "n_cells"),      # linspace would raise a plain ValueError
    ])
    def test_uniform_validation(self, n_cells, length, key):
        with pytest.raises(GridError, match=key):
            SpatialMesh.uniform(n_cells, length)


class TestQuadrature:
    def test_double_gauss_legendre(self):
        quad = double_gauss_legendre(8)
        assert quad.n_dirs == 16
        assert quad.w.sum() == pytest.approx(2.0, rel=1e-14)
        assert np.all(quad.mu[quad.positive] > 0)
        assert quad.positive.sum() == 8
        # half-range rules integrate polynomials exactly
        pos = quad.positive
        assert (quad.w[pos] * quad.mu[pos]).sum() == pytest.approx(
            0.5, rel=1e-14)
        assert (quad.w * quad.mu**2).sum() / quad.w.sum() == pytest.approx(
            1.0 / 3.0, rel=1e-14)
        # symmetric about mu = 0
        assert np.allclose(quad.mu, -quad.mu[::-1], rtol=1e-15)
        assert np.allclose(quad.w, quad.w[::-1], rtol=1e-15)

    def test_validation(self):
        with pytest.raises(GridError):
            double_gauss_legendre(0)
        with pytest.raises(GridError):
            AngularQuadrature(mu=np.array([0.0, 0.5]),
                              w=np.array([1.0, 1.0]))
        for mu in ([-0.5, np.nan], [np.nan, 0.5], [-np.inf, 0.5]):
            with pytest.raises(GridError, match="finite"):
                AngularQuadrature(mu=np.array(mu), w=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("w", [[5.0, -1.0], [2.5, -0.5], [1.0, 0.5],
                                   [1.0, 1.0 + 1e-9], [np.nan, 1.0]])
    def test_weights_positive_and_summing_to_two(self, w):
        with pytest.raises(GridError, match="weights"):
            AngularQuadrature(mu=np.array([-0.5, 0.5]), w=np.array(w))
