"""Tests for the exact metric DBSCAN solver (Section 3).

The ground truth is the original DBSCAN (brute force, ``bfs_dbscan``):
the two must agree on the core-point set, the partition of the core
points, and the noise set, on every instance — including text data
under edit distance.
"""

import numpy as np
import pytest

from repro.core import MetricDBSCAN, metric_dbscan
from repro.metricspace import EditDistanceMetric, MetricDataset, MinkowskiMetric

from conftest import assert_labels_equivalent, bfs_dbscan, core_partition


def random_instance(seed, with_outliers=True):
    rng = np.random.default_rng(seed)
    parts = [
        rng.normal(0.0, 0.3, size=(int(rng.integers(15, 60)), 2)),
        rng.normal([5.0, 1.0], 0.4, size=(int(rng.integers(15, 60)), 2)),
        rng.normal([-3.0, 4.0], 0.25, size=(int(rng.integers(10, 40)), 2)),
    ]
    if with_outliers:
        parts.append(rng.uniform(-12.0, 12.0, size=(int(rng.integers(0, 12)), 2)))
    return MetricDataset(np.vstack(parts))


def assert_equivalent(result_a, result_b):
    assert np.array_equal(result_a.core_mask, result_b.core_mask)
    assert core_partition(result_a.labels, result_a.core_mask) == core_partition(
        result_b.labels, result_b.core_mask
    )
    assert np.array_equal(result_a.labels == -1, result_b.labels == -1)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_original_dbscan(self, seed):
        ds = random_instance(seed)
        rng = np.random.default_rng(seed + 1000)
        eps = float(rng.uniform(0.3, 1.0))
        min_pts = int(rng.integers(3, 9))
        ours = MetricDBSCAN(eps, min_pts).fit(ds)
        ref = bfs_dbscan(ds, eps, min_pts)
        assert_equivalent(ours, ref)

    def test_min_pts_one_everything_core(self):
        ds = random_instance(100)
        ours = MetricDBSCAN(0.5, 1).fit(ds)
        assert bool(np.all(ours.core_mask))
        assert ours.n_noise == 0

    def test_huge_min_pts_everything_noise(self):
        ds = random_instance(101)
        ours = MetricDBSCAN(0.2, ds.n + 1).fit(ds)
        assert ours.n_clusters == 0
        assert ours.n_noise == ds.n

    def test_huge_eps_single_cluster(self):
        ds = random_instance(102)
        ours = MetricDBSCAN(1e6, 3).fit(ds)
        assert ours.n_clusters == 1
        assert ours.n_noise == 0

    def test_duplicate_points(self):
        pts = np.vstack([np.zeros((10, 2)), np.full((10, 2), 5.0)])
        ds = MetricDataset(pts)
        ours = MetricDBSCAN(0.5, 4).fit(ds)
        ref = bfs_dbscan(ds, 0.5, 4)
        assert_equivalent(ours, ref)
        assert ours.n_clusters == 2

    def test_text_data(self, text_dataset):
        ds, _ = text_dataset
        ours = MetricDBSCAN(2.0, 3).fit(ds)
        ref = bfs_dbscan(ds, 2.0, 3)
        assert_equivalent(ours, ref)
        assert ours.n_clusters == 2
        assert ours.labels[-1] == -1  # the long random string is noise

    def test_small_text_instance_edit_metric(self):
        strings = ["aa", "ab", "ba", "zzzz", "zzzy", "qqqqqqqq"]
        ds = MetricDataset(strings, EditDistanceMetric())
        ours = MetricDBSCAN(1.0, 2).fit(ds)
        ref = bfs_dbscan(ds, 1.0, 2)
        assert_equivalent(ours, ref)

    @pytest.mark.parametrize("index", ["auto", "brute", "grid", "covertree"])
    @pytest.mark.parametrize("offset", [1e6, 1e7])
    def test_translation_keeps_the_answer(self, offset, index):
        """Far from the origin the float64 gram expansion loses digits
        to cancellation; the clustering must not move with the data
        (cluster ids may, with the order Gonzalez picks centers in)."""
        pts = np.random.default_rng(0).normal(size=(300, 4))
        want = MetricDBSCAN(0.5, 3, index=index).fit(MetricDataset(pts))
        got = MetricDBSCAN(0.5, 3, index=index).fit(MetricDataset(pts + offset))
        assert_labels_equivalent(got.labels, want.labels)
        np.testing.assert_array_equal(got.core_mask, want.core_mask)


class TestConfiguration:
    def test_r_bar_variants_equivalent(self):
        """Remark 5: any r̄ <= ε/2 yields the same exact clustering."""
        ds = random_instance(200)
        base = MetricDBSCAN(0.6, 5).fit(ds)
        for r_bar in (0.3, 0.2, 0.1, 0.05):
            other = MetricDBSCAN(0.6, 5, r_bar=r_bar).fit(ds)
            assert_equivalent(base, other)

    def test_r_bar_too_large_rejected(self):
        with pytest.raises(ValueError):
            MetricDBSCAN(0.6, 5, r_bar=0.5)

    def test_dense_shortcut_off_equivalent(self):
        ds = random_instance(202)
        a = MetricDBSCAN(0.6, 5, dense_shortcut=True).fit(ds)
        b = MetricDBSCAN(0.6, 5, dense_shortcut=False).fit(ds)
        assert_equivalent(a, b)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MetricDBSCAN(-1.0, 5)
        with pytest.raises(ValueError):
            MetricDBSCAN(1.0, 0)

    def test_convenience_function(self, tiny_line):
        result = metric_dbscan(tiny_line, 0.5, 3)
        assert result.n_clusters == 2


class TestPrecomputedNet:
    def test_reuse_across_eps(self):
        """Remark 5: one net with r̄ = ε0/2 serves every ε >= ε0."""
        ds = random_instance(300)
        eps0 = 0.3
        net = MetricDBSCAN.precompute(ds, r_bar=eps0 / 2.0)
        for eps in (0.3, 0.5, 0.8):
            reused = MetricDBSCAN(eps, 5).fit(ds, net=net)
            fresh = MetricDBSCAN(eps, 5).fit(ds)
            assert_equivalent(reused, fresh)

    def test_reuse_across_min_pts(self):
        ds = random_instance(301)
        net = MetricDBSCAN.precompute(ds, r_bar=0.25)
        for min_pts in (3, 5, 10):
            reused = MetricDBSCAN(0.5, min_pts).fit(ds, net=net)
            fresh = MetricDBSCAN(0.5, min_pts).fit(ds)
            assert_equivalent(reused, fresh)

    def test_net_with_too_large_r_bar_rejected(self):
        ds = random_instance(302)
        net = MetricDBSCAN.precompute(ds, r_bar=1.0)
        with pytest.raises(ValueError):
            MetricDBSCAN(0.5, 5).fit(ds, net=net)

    def test_net_from_other_dataset_rejected(self):
        ds = random_instance(303)
        other = MetricDataset(np.zeros((3, 2)))
        net = MetricDBSCAN.precompute(other, r_bar=0.1)
        with pytest.raises(ValueError):
            MetricDBSCAN(0.5, 5).fit(ds, net=net)
        # Same size, other points: a net over shifted copies of other
        # draws used to pass the size check and mislabel.
        rng = np.random.default_rng(303)
        own = MetricDataset(rng.normal(size=(300, 2)))
        shifted = MetricDataset(rng.normal(size=(300, 2)) + 50.0)
        net = MetricDBSCAN.precompute(own, r_bar=0.25)
        with pytest.raises(ValueError, match="different dataset"):
            MetricDBSCAN(0.5, 5).fit(shifted, net=net)
        # Same points, another metric.
        l1 = MetricDataset(own.points, MinkowskiMetric(1.0))
        net = MetricDBSCAN.precompute(l1, r_bar=0.25)
        with pytest.raises(ValueError, match="different dataset"):
            MetricDBSCAN(0.5, 5).fit(own, net=net)

    def test_net_on_view_or_equal_copy_accepted(self):
        """A counting view shares the net's payloads and an equal copy
        holds the same ones; both reuse the net unchanged."""
        ds = random_instance(305)
        net = MetricDBSCAN.precompute(ds, r_bar=0.25)
        fresh = MetricDBSCAN(0.5, 5).fit(ds)
        for view in (ds.with_counting(), MetricDataset(ds.points.copy())):
            reused = MetricDBSCAN(0.5, 5).fit(view, net=net)
            np.testing.assert_array_equal(reused.labels, fresh.labels)
        counted = MetricDBSCAN.precompute(ds.with_counting(), r_bar=0.25)
        reused = MetricDBSCAN(0.5, 5).fit(ds, net=counted)
        np.testing.assert_array_equal(reused.labels, fresh.labels)

    def test_reused_net_skips_gonzalez_time(self):
        ds = random_instance(304)
        net = MetricDBSCAN.precompute(ds, r_bar=0.25)
        result = MetricDBSCAN(0.5, 5).fit(ds, net=net)
        assert result.timings.phases["gonzalez"] == 0.0


class TestResultMetadata:
    def test_stats_and_timings_present(self, two_blobs):
        ds, _ = two_blobs
        result = MetricDBSCAN(1.0, 5).fit(ds)
        assert result.stats["algorithm"] == "our_exact"
        assert result.stats["n_centers"] >= 2
        for phase in ("gonzalez", "label_cores", "merge", "label_borders"):
            assert phase in result.timings.phases

    def test_two_blobs_recovered(self, two_blobs):
        ds, truth = two_blobs
        result = MetricDBSCAN(1.0, 5).fit(ds)
        assert result.n_clusters == 2
        assert result.labels[-1] == -1
