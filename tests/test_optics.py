"""Tests for the OPTICS baseline and its DBSCAN extraction."""

import numpy as np
import pytest

from repro.baselines import OPTICS
from repro.metricspace import MetricDataset

from conftest import bfs_dbscan, core_partition


def blob_instance(seed=0):
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal(0.0, 0.3, size=(50, 2)),
        rng.normal([5.0, 0.0], 0.3, size=(50, 2)),
        rng.uniform(-12.0, 12.0, size=(5, 2)),
    ])
    return MetricDataset(pts)


class TestOrdering:
    def test_ordering_is_permutation(self):
        ds = blob_instance(0)
        ordering = OPTICS(min_pts=5).compute_ordering(ds)
        assert sorted(ordering.order.tolist()) == list(range(ds.n))

    def test_core_distance_is_kth_neighbor(self):
        ds = blob_instance(1)
        min_pts = 5
        ordering = OPTICS(min_pts=min_pts).compute_ordering(ds)
        for p in range(0, ds.n, 11):
            dists = np.sort(ds.distances_from(p))
            assert ordering.core_distance[p] == pytest.approx(
                float(dists[min_pts - 1])
            )

    def test_eps_max_caps_core_distance(self):
        ds = blob_instance(2)
        ordering = OPTICS(min_pts=5, eps_max=0.2).compute_ordering(ds)
        finite = np.isfinite(ordering.core_distance)
        assert np.all(ordering.core_distance[finite] <= 0.2)

    def test_reachability_at_least_core_distance_of_predecessor(self):
        """Reachability of a point is >= the core distance of some
        earlier core point; in particular >= min core distance."""
        ds = blob_instance(3)
        ordering = OPTICS(min_pts=5).compute_ordering(ds)
        finite = np.isfinite(ordering.reachability)
        min_core = np.nanmin(
            np.where(np.isfinite(ordering.core_distance),
                     ordering.core_distance, np.nan)
        )
        assert np.all(ordering.reachability[finite] >= min_core - 1e-12)


class TestExtraction:
    @pytest.mark.parametrize("seed", range(3))
    def test_core_partition_matches_dbscan(self, seed):
        """Extraction at eps must reproduce DBSCAN's core partition."""
        ds = blob_instance(seed + 10)
        eps, min_pts = 0.5, 5
        result = OPTICS(min_pts=min_pts, eps_max=2.0).fit(ds, eps=eps)
        ref = bfs_dbscan(ds, eps, min_pts)
        assert np.array_equal(result.core_mask, ref.core_mask)
        assert core_partition(result.labels, result.core_mask) == core_partition(
            ref.labels, ref.core_mask
        )

    def test_one_ordering_many_extractions(self):
        """The OPTICS promise: one ordering serves every eps' <= eps_max."""
        ds = blob_instance(20)
        min_pts = 5
        ordering = OPTICS(min_pts=min_pts, eps_max=2.0).compute_ordering(ds)
        for eps in (0.3, 0.5, 1.0):
            labels = ordering.extract_dbscan(eps)
            ref = bfs_dbscan(ds, eps, min_pts)
            core = ref.core_mask
            assert core_partition(labels, core) == core_partition(ref.labels, core)

    def test_extraction_beyond_eps_max_rejected(self):
        ds = blob_instance(21)
        ordering = OPTICS(min_pts=5, eps_max=0.5).compute_ordering(ds)
        with pytest.raises(ValueError):
            ordering.extract_dbscan(1.0)

    def test_fit_requires_eps_when_unbounded(self):
        ds = blob_instance(22)
        with pytest.raises(ValueError):
            OPTICS(min_pts=5).fit(ds)

    def test_metric_generic(self, text_dataset):
        ds, _ = text_dataset
        result = OPTICS(min_pts=3, eps_max=5.0).fit(ds, eps=2.0)
        ref = bfs_dbscan(ds, 2.0, 3)
        assert np.array_equal(result.core_mask, ref.core_mask)
