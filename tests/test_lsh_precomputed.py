"""Tests for LSH-DBSCAN, PrecomputedMetric, CachedMetric and the new
generators."""

import numpy as np
import pytest

from repro.baselines import LSHDBSCAN, OriginalDBSCAN
from repro.datasets import make_spirals, make_swiss_roll
from repro.evaluation import adjusted_rand_index
from repro.metricspace import (
    CachedMetric,
    EditDistanceMetric,
    EuclideanMetric,
    MetricDataset,
    PrecomputedMetric,
)

from conftest import bfs_dbscan


class TestLSHDBSCAN:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([
            rng.normal(0.0, 0.3, size=(60, 4)),
            rng.normal(6.0, 0.3, size=(60, 4)),
        ])
        truth = np.repeat([0, 1], 60)
        result = LSHDBSCAN(1.5, 5, n_tables=10, seed=0).fit(MetricDataset(pts))
        assert adjusted_rand_index(truth, result.labels) > 0.95

    def test_cores_subset_of_true_cores(self):
        """LSH can miss neighbors, so its core set underestimates."""
        rng = np.random.default_rng(1)
        pts = rng.normal(0.0, 1.0, size=(150, 3))
        ds = MetricDataset(pts)
        ref = bfs_dbscan(ds, 0.8, 5)
        lsh = LSHDBSCAN(0.8, 5, n_tables=6, seed=0).fit(ds)
        assert np.all(~lsh.core_mask | ref.core_mask)

    def test_more_tables_more_recall(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(0.0, 1.0, size=(200, 3))
        ds = MetricDataset(pts)
        few = LSHDBSCAN(0.8, 5, n_tables=1, n_projections=8, seed=0).fit(ds)
        many = LSHDBSCAN(0.8, 5, n_tables=16, n_projections=8, seed=0).fit(ds)
        assert many.core_mask.sum() >= few.core_mask.sum()

    def test_validation(self):
        with pytest.raises(ValueError):
            LSHDBSCAN(1.0, 5, n_tables=0)
        with pytest.raises(ValueError):
            LSHDBSCAN(1.0, 5, bucket_width=0.0)
        ds = MetricDataset(["ab"], EditDistanceMetric())
        with pytest.raises(ValueError):
            LSHDBSCAN(1.0, 2).fit(ds)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(80, 2))
        ds = MetricDataset(pts)
        a = LSHDBSCAN(0.5, 4, seed=7).fit(ds)
        b = LSHDBSCAN(0.5, 4, seed=7).fit(ds)
        assert np.array_equal(a.labels, b.labels)


class TestPrecomputedMetric:
    def test_roundtrip(self):
        matrix = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 3.0], [4.0, 3.0, 0.0]])
        metric = PrecomputedMetric(matrix)
        ds = MetricDataset(metric.indices(), metric)
        assert ds.distance(0, 2) == 4.0
        assert ds.distances_from(1).tolist() == [1.0, 0.0, 3.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            PrecomputedMetric(np.array([[0.0, 1.0]]))  # not square
        with pytest.raises(ValueError):
            PrecomputedMetric(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asym
        with pytest.raises(ValueError):
            PrecomputedMetric(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            PrecomputedMetric(np.array([[1.0, 0.0], [0.0, 0.0]]))  # diag

    def test_validate_false_skips_checks(self):
        m = PrecomputedMetric(np.array([[0.0, 1.0], [2.0, 0.0]]), validate=False)
        assert m.distance(0, 1) == 1.0

    def test_dbscan_over_precomputed(self):
        """A full DBSCAN run against a distance table only."""
        rng = np.random.default_rng(4)
        pts = np.vstack([
            rng.normal(0.0, 0.2, size=(30, 2)),
            rng.normal(5.0, 0.2, size=(30, 2)),
        ])
        matrix = EuclideanMetric().pairwise(pts)
        metric = PrecomputedMetric(matrix)
        ds = MetricDataset(metric.indices(), metric)
        result = OriginalDBSCAN(0.6, 4).fit(ds)
        assert result.n_clusters == 2


class TestCachedMetric:
    def test_values_preserved(self):
        cached = CachedMetric(EditDistanceMetric())
        assert cached.distance("kitten", "sitting") == 3.0
        assert cached.distance("sitting", "kitten") == 3.0  # symmetric key
        assert cached.hits == 1
        assert cached.misses == 1

    def test_clear(self):
        cached = CachedMetric(EditDistanceMetric())
        cached.distance("a", "b")
        cached.clear()
        assert cached.hits == 0 and cached.misses == 0
        cached.distance("a", "b")
        assert cached.misses == 1

    def test_batch_uses_cache(self):
        cached = CachedMetric(EditDistanceMetric())
        cached.distance_many("abc", ["abd", "abe"])
        cached.distance_many("abc", ["abd", "abe"])
        assert cached.hits == 2

    def test_speeds_up_repeated_clustering(self):
        """Two solver runs over a cached edit metric hit the cache on
        the second pass."""
        strings = ["aaa", "aab", "abb", "zzz", "zzy", "qqqqqq"]
        cached = CachedMetric(EditDistanceMetric())
        ds = MetricDataset(strings, cached)
        OriginalDBSCAN(1.0, 2).fit(ds)
        misses_after_first = cached.misses
        OriginalDBSCAN(1.0, 2).fit(ds)
        assert cached.misses == misses_after_first  # all hits second time


class TestNewGenerators:
    def test_spirals_shapes_and_determinism(self):
        a, ya = make_spirals(n=200, seed=1)
        b, yb = make_spirals(n=200, seed=1)
        assert a.shape == (200, 2)
        assert np.array_equal(a, b) and np.array_equal(ya, yb)

    def test_spirals_arms(self):
        _, y = make_spirals(n=300, n_arms=3, outlier_fraction=0.0, seed=0)
        assert set(np.unique(y)) == {0, 1, 2}

    def test_spirals_dbscan_separates_kmeans_cannot(self):
        from repro.baselines import kmeans

        pts, y = make_spirals(n=500, n_arms=2, noise=0.02, seed=0)
        ds = MetricDataset(pts)
        db = OriginalDBSCAN(0.35, 4).fit(ds)
        km = kmeans(pts, 2, seed=0)
        assert adjusted_rand_index(y, db.labels) > adjusted_rand_index(
            y, km.labels
        )

    def test_spirals_validation(self):
        with pytest.raises(ValueError):
            make_spirals(n_arms=0)

    def test_swiss_roll_is_intrinsically_2d(self):
        pts, y = make_swiss_roll(n=400, noise=0.0, seed=0)
        assert pts.shape == (400, 3)
        assert set(np.unique(y)) == {0, 1, 2}
        # With zero noise the points satisfy the exact roll
        # parametrization (t cos t, h, t sin t): recover t as the radius
        # in the x-z plane and verify x == t cos t — i.e. the data has
        # exactly two degrees of freedom (t, h).
        radius = np.hypot(pts[:, 0], pts[:, 2])
        assert np.allclose(pts[:, 0], radius * np.cos(radius), atol=1e-9)
        assert np.allclose(pts[:, 2], radius * np.sin(radius), atol=1e-9)
