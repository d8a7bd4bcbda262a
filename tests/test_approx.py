"""Tests for Algorithm 2 (ρ-approximate DBSCAN) and the summary.

The central correctness property is the Gan--Tao *sandwich theorem*:
restricted to the (ε, MinPts) core points, the ρ-approximate clustering
must be refined by the exact clustering at ε and must refine the exact
clustering at (1+ρ)ε.
"""

import numpy as np
import pytest

from repro.core import (
    ApproxMetricDBSCAN,
    MetricDBSCAN,
    approx_metric_dbscan,
    build_summary,
    radius_guided_gonzalez,
)
from repro.index import net_neighbor_sets
from repro.metricspace import MetricDataset, MinkowskiMetric

from conftest import bfs_dbscan, same_cluster_pairs


def random_instance(seed):
    rng = np.random.default_rng(seed)
    parts = [
        rng.normal(0.0, 0.3, size=(int(rng.integers(20, 60)), 2)),
        rng.normal([5.0, 0.0], 0.35, size=(int(rng.integers(20, 60)), 2)),
        rng.uniform(-12.0, 12.0, size=(int(rng.integers(0, 10)), 2)),
    ]
    return MetricDataset(np.vstack(parts))


def check_sandwich(ds, eps, min_pts, rho, approx_labels):
    """Sandwich theorem on the (ε, MinPts) core points."""
    exact_lo = bfs_dbscan(ds, eps, min_pts)
    exact_hi = bfs_dbscan(ds, (1.0 + rho) * eps, min_pts)
    cores = np.flatnonzero(exact_lo.core_mask)
    lo_pairs = same_cluster_pairs(exact_lo.labels, cores)
    approx_pairs = same_cluster_pairs(approx_labels, cores)
    hi_pairs = same_cluster_pairs(exact_hi.labels, cores)
    assert lo_pairs <= approx_pairs, "exact(eps) must refine the approximation"
    assert approx_pairs <= hi_pairs, "approximation must refine exact((1+rho)eps)"
    # Every (eps, MinPts) core point must be clustered (never noise).
    assert np.all(np.asarray(approx_labels)[cores] >= 0)


class TestSandwich:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("rho", [0.25, 0.5, 1.0, 2.0])
    def test_sandwich_random_instances(self, seed, rho):
        ds = random_instance(seed)
        eps, min_pts = 0.5, 5
        result = ApproxMetricDBSCAN(eps, min_pts, rho=rho).fit(ds)
        check_sandwich(ds, eps, min_pts, rho, result.labels)

    def test_sandwich_text(self, text_dataset):
        ds, _ = text_dataset
        result = ApproxMetricDBSCAN(2.0, 3, rho=0.5).fit(ds)
        check_sandwich(ds, 2.0, 3, 0.5, result.labels)

    def test_well_separated_equals_exact(self, two_blobs):
        """With cluster separation >> (1+ρ)ε the approximation cannot
        differ from the exact clustering."""
        ds, _ = two_blobs
        exact = MetricDBSCAN(1.0, 5).fit(ds)
        approx = ApproxMetricDBSCAN(1.0, 5, rho=0.5).fit(ds)
        cores = np.flatnonzero(exact.core_mask)
        assert same_cluster_pairs(exact.labels, cores) == same_cluster_pairs(
            approx.labels, cores
        )
        assert approx.n_clusters == 2


class TestSummary:
    def make_summary(self, seed=0, eps=0.5, min_pts=5, rho=0.5):
        ds = random_instance(seed)
        r_bar = rho * eps / 2.0
        net = radius_guided_gonzalez(ds, r_bar, eps_for_counts=eps)
        neighbors = net_neighbor_sets(net, r_bar, (1.0 + rho) * eps, None)
        return ds, net, build_summary(ds, net, eps, min_pts, neighbors)

    def test_lemma8_summary_per_cover_set(self):
        """Lemma 8: |C_e ∩ S*| <= MinPts for every center."""
        min_pts = 5
        ds, net, summary = self.make_summary(min_pts=min_pts)
        assert summary.members_by_center.sizes.max() <= min_pts

    def test_summary_members_are_core(self):
        """Every summary point must be a true (ε, MinPts) core point."""
        ds, net, summary = self.make_summary(seed=1)
        eps, min_pts = 0.5, 5
        for p in summary.members:
            count = int(np.count_nonzero(ds.distances_from(int(p)) <= eps))
            assert count >= min_pts

    def test_known_core_mask_is_subset_of_true_core(self):
        ds, net, summary = self.make_summary(seed=2)
        ref = bfs_dbscan(ds, 0.5, 5)
        assert np.all(~summary.known_core_mask | ref.core_mask)

    def test_member_position_roundtrip(self):
        ds, net, summary = self.make_summary(seed=3)
        for pos, p in enumerate(summary.members):
            assert summary.member_position[p] == pos

    def test_summary_much_smaller_than_core_set(self):
        """Condition (1) of Section 4.1 on a dense instance."""
        rng = np.random.default_rng(9)
        pts = rng.normal(0.0, 0.3, size=(400, 2))
        ds = MetricDataset(pts)
        eps, min_pts, rho = 0.5, 5, 0.5
        r_bar = rho * eps / 2.0
        net = radius_guided_gonzalez(ds, r_bar, eps_for_counts=eps)
        neighbors = net_neighbor_sets(net, r_bar, (1.0 + rho) * eps, None)
        summary = build_summary(ds, net, eps, min_pts, neighbors)
        n_core = int(bfs_dbscan(ds, eps, min_pts).core_mask.sum())
        assert summary.size < n_core / 4


class TestConfiguration:
    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            ApproxMetricDBSCAN(1.0, 5, rho=0.0)

    def test_r_bar_too_large_rejected(self):
        with pytest.raises(ValueError):
            ApproxMetricDBSCAN(1.0, 5, rho=0.5, r_bar=0.5)

    def test_smaller_r_bar_accepted_and_sandwiched(self):
        ds = random_instance(50)
        result = ApproxMetricDBSCAN(0.5, 5, rho=0.5, r_bar=0.05).fit(ds)
        check_sandwich(ds, 0.5, 5, 0.5, result.labels)

    def test_precomputed_net_reuse(self):
        """Remark 6: the ρε/2 net can be reused across (ε, MinPts)."""
        ds = random_instance(51)
        rho = 0.5
        eps0 = 0.4
        net = ApproxMetricDBSCAN.precompute(ds, r_bar=rho * eps0 / 2.0)
        for eps in (0.4, 0.6):
            result = ApproxMetricDBSCAN(eps, 5, rho=rho).fit(ds, net=net)
            check_sandwich(ds, eps, 5, rho, result.labels)

    def test_oversized_net_rejected(self):
        ds = random_instance(52)
        net = ApproxMetricDBSCAN.precompute(ds, r_bar=1.0)
        with pytest.raises(ValueError):
            ApproxMetricDBSCAN(0.5, 5, rho=0.5).fit(ds, net=net)

    def test_net_from_other_dataset_rejected(self):
        """Same size is not enough: the net must cover the same points
        under the same metric."""
        rng = np.random.default_rng(53)
        own = MetricDataset(rng.normal(size=(300, 2)))
        shifted = MetricDataset(rng.normal(size=(300, 2)) + 50.0)
        net = ApproxMetricDBSCAN.precompute(own, r_bar=0.25)
        with pytest.raises(ValueError, match="different dataset"):
            ApproxMetricDBSCAN(0.5, 5, rho=1.0).fit(shifted, net=net)
        l1 = MetricDataset(own.points, MinkowskiMetric(1.0))
        net = ApproxMetricDBSCAN.precompute(l1, r_bar=0.25)
        with pytest.raises(ValueError, match="different dataset"):
            ApproxMetricDBSCAN(0.5, 5, rho=1.0).fit(own, net=net)

    def test_convenience_function(self, tiny_line):
        result = approx_metric_dbscan(tiny_line, 0.5, 3, rho=0.5)
        assert result.n_clusters == 2

    def test_stats_reported(self, two_blobs):
        ds, _ = two_blobs
        result = ApproxMetricDBSCAN(1.0, 5, rho=0.5).fit(ds)
        assert result.stats["algorithm"] == "our_approx"
        assert result.stats["summary_size"] >= 1
        assert result.stats["core_mask_partial"] is True
