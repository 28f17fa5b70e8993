"""Unit tests for regular-grid partitioning."""

import pytest

from repro.partitioning.grid import GridPartitioner, build_grid_partitioning


class TestGridPartitioner:
    def test_num_regions(self):
        grid = GridPartitioner((0, 0, 100, 100), rows=4, cols=5)
        assert grid.num_regions == 20

    def test_locate_center_of_each_cell(self):
        grid = GridPartitioner((0, 0, 10, 10), rows=2, cols=2)
        assert grid.locate(2.5, 2.5) == 0
        assert grid.locate(7.5, 2.5) == 1
        assert grid.locate(2.5, 7.5) == 2
        assert grid.locate(7.5, 7.5) == 3

    def test_points_outside_are_clamped(self):
        grid = GridPartitioner((0, 0, 10, 10), rows=2, cols=2)
        assert grid.locate(-5, -5) == 0
        assert grid.locate(50, 50) == 3

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            GridPartitioner((0, 0, 1, 1), rows=0, cols=2)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            GridPartitioner((5, 5, 0, 0), rows=2, cols=2)


class TestGridPartitioning:
    def test_every_node_assigned(self, small_network):
        partitioning = build_grid_partitioning(small_network, rows=4, cols=4)
        assert sum(partitioning.region_sizes()) == small_network.num_nodes

    def test_grid_is_less_balanced_than_kdtree(self, small_network):
        """The paper's motivation for kd-tree partitioning (Section 4.1)."""
        from repro.partitioning.kdtree import build_kdtree_partitioning

        grid = build_grid_partitioning(small_network, rows=4, cols=4)
        kdtree = build_kdtree_partitioning(small_network, 16)
        assert max(kdtree.region_sizes()) <= max(grid.region_sizes())
