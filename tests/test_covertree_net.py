"""Tests for the Section-3.2 cover-tree-level preprocessing."""

import numpy as np
import pytest

from repro.core import MetricDBSCAN, net_from_cover_tree
from repro.covertree import CoverTree
from repro.metricspace import MetricDataset

from conftest import bfs_dbscan, core_partition


def clustered_dataset(seed=0, n=150):
    """Whole-dataset low doubling dimension (no wild outliers) — the
    Section 3.2 assumption."""
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal(0.0, 0.4, size=(n // 2, 2)),
        rng.normal([7.0, 2.0], 0.4, size=(n - n // 2, 2)),
    ])
    return MetricDataset(pts)


class TestNetConstruction:
    def test_net_covering_radius(self):
        ds = clustered_dataset()
        eps = 1.0
        net = net_from_cover_tree(ds, eps)
        assert net.max_cover_radius() <= eps / 2.0 + 1e-9
        assert net.r_bar == eps / 2.0

    def test_assignment_is_nearest_center(self):
        ds = clustered_dataset(1)
        net = net_from_cover_tree(ds, 1.0)
        centers = np.asarray(net.centers)
        for p in range(0, ds.n, 5):
            d = ds.distances_from(p, centers)
            assert net.dist_to_center[p] == pytest.approx(float(d.min()), abs=1e-9)

    def test_reuses_existing_tree(self):
        ds = clustered_dataset(2)
        tree = CoverTree(ds)
        net_a = net_from_cover_tree(ds, 1.0, tree=tree)
        net_b = net_from_cover_tree(ds, 1.0)
        assert net_a.centers == net_b.centers

    def test_center_distance_matrix(self):
        ds = clustered_dataset(3)
        net = net_from_cover_tree(ds, 1.0)
        m = net.n_centers
        for i in range(min(m, 8)):
            for j in range(min(m, 8)):
                assert net.center_distances[i, j] == pytest.approx(
                    ds.distance(net.centers[i], net.centers[j]), abs=1e-9
                )

    def test_invalid_eps(self):
        ds = clustered_dataset(4)
        with pytest.raises(ValueError):
            net_from_cover_tree(ds, -1.0)


class TestExactDBSCANWithCoverTreeNet:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, seed):
        """The Section-3.2 preprocessing must give the same exact DBSCAN
        output as brute force (the net source is irrelevant for
        correctness)."""
        ds = clustered_dataset(seed)
        eps, min_pts = 0.8, 5
        net = net_from_cover_tree(ds, eps)
        ours = MetricDBSCAN(eps, min_pts).fit(ds, net=net)
        ref = bfs_dbscan(ds, eps, min_pts)
        assert np.array_equal(ours.core_mask, ref.core_mask)
        assert core_partition(ours.labels, ours.core_mask) == core_partition(
            ref.labels, ref.core_mask
        )
        assert np.array_equal(ours.labels == -1, ref.labels == -1)

    def test_one_tree_many_eps(self):
        """The whole point of Section 3.2: one cover tree serves every ε."""
        ds = clustered_dataset(10)
        tree = CoverTree(ds)
        for eps in (0.6, 1.0, 1.5):
            net = net_from_cover_tree(ds, eps, tree=tree)
            ours = MetricDBSCAN(eps, 5).fit(ds, net=net)
            ref = bfs_dbscan(ds, eps, 5)
            assert np.array_equal(ours.core_mask, ref.core_mask)
