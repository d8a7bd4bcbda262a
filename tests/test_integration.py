"""Integration tests: end-to-end pipelines across modules, complexity
sanity checks via distance counting, and quality floors on the
registry's stand-in datasets."""

import numpy as np

from repro import (
    ApproxMetricDBSCAN,
    MetricDBSCAN,
    MetricDataset,
    StreamingApproxDBSCAN,
)
from repro.baselines import OriginalDBSCAN
from repro.datasets import load_dataset, make_moons
from repro.evaluation import adjusted_mutual_information, adjusted_rand_index


class TestQualityFloors:
    def test_moons_quality(self):
        loaded = load_dataset("moons", size=800, seed=0)
        result = MetricDBSCAN(0.12, 10).fit(loaded.dataset)
        assert adjusted_rand_index(loaded.labels, result.labels) > 0.9
        assert adjusted_mutual_information(loaded.labels, result.labels) > 0.8

    def test_high_dim_manifold_quality(self):
        loaded = load_dataset("mnist", size=600, seed=0)
        result = MetricDBSCAN(3.0, 10).fit(loaded.dataset)
        assert adjusted_rand_index(loaded.labels, result.labels) > 0.9

    def test_text_quality(self):
        loaded = load_dataset("ag_news", size=200, seed=0)
        result = ApproxMetricDBSCAN(9.0, 5, rho=0.5).fit(loaded.dataset)
        assert adjusted_rand_index(loaded.labels, result.labels) > 0.8

    def test_streaming_matches_batch_quality(self):
        loaded = load_dataset("glove25", size=800, seed=0)
        eps, min_pts = 3.0, 10
        batch = ApproxMetricDBSCAN(eps, min_pts, rho=0.5).fit(loaded.dataset)
        stream = StreamingApproxDBSCAN(eps, min_pts, rho=0.5).fit(loaded.dataset)
        batch_ari = adjusted_rand_index(loaded.labels, batch.labels)
        stream_ari = adjusted_rand_index(loaded.labels, stream.labels)
        assert stream_ari > batch_ari - 0.15


class TestDistanceComplexity:
    """The paper's headline: our solvers do far fewer distance
    evaluations than the quadratic brute force on clusterable data."""

    def make_clustered(self, n=600, seed=0):
        rng = np.random.default_rng(seed)
        pts = np.vstack([
            rng.normal(0.0, 0.3, size=(n // 2, 2)),
            rng.normal([8.0, 0.0], 0.3, size=(n - n // 2, 2)),
        ])
        return pts

    def count_for(self, solver_factory, pts):
        ds = MetricDataset(pts).with_counting()
        solver_factory().fit(ds)
        return ds.metric.count

    def test_exact_beats_brute_force(self):
        pts = self.make_clustered()
        ours = self.count_for(lambda: MetricDBSCAN(0.6, 10), pts)
        brute = self.count_for(lambda: OriginalDBSCAN(0.6, 10, index="brute"), pts)
        assert ours < brute / 3

    def test_approx_beats_exact_or_close(self):
        pts = self.make_clustered()
        approx = self.count_for(lambda: ApproxMetricDBSCAN(0.6, 10, rho=0.5), pts)
        brute = self.count_for(lambda: OriginalDBSCAN(0.6, 10, index="brute"), pts)
        assert approx < brute / 3

    def test_linear_scaling_in_n(self):
        """Doubling n on a fixed-domain instance should grow the distance
        count roughly linearly (not quadratically) for our solver."""
        small = self.make_clustered(n=400, seed=1)
        large = self.make_clustered(n=1600, seed=1)
        c_small = self.count_for(lambda: MetricDBSCAN(0.6, 10), small)
        c_large = self.count_for(lambda: MetricDBSCAN(0.6, 10), large)
        growth = c_large / c_small
        assert growth < 8.0  # quadratic would be ~16x

    def test_gonzalez_reuse_saves_distances(self):
        """Remark 5: re-tuning ε with a cached net must cost much less
        than a cold run."""
        pts = self.make_clustered()
        ds = MetricDataset(pts).with_counting()
        net = MetricDBSCAN.precompute(ds, r_bar=0.25)
        after_net = ds.metric.count
        MetricDBSCAN(0.6, 10).fit(ds, net=net)
        cold = MetricDataset(pts).with_counting()
        MetricDBSCAN(0.6, 10).fit(cold)
        reuse_cost = ds.metric.count - after_net
        assert reuse_cost < cold.metric.count


class TestCrossAlgorithmConsistency:
    def test_all_solvers_agree_on_clean_data(self):
        """On well-separated data every DBSCAN variant finds the same
        two clusters."""
        pts, y = make_moons(n=400, noise=0.05, outlier_fraction=0.0, seed=3)
        ds = MetricDataset(pts)
        eps, min_pts = 0.15, 5
        solvers = [
            MetricDBSCAN(eps, min_pts),
            ApproxMetricDBSCAN(eps, min_pts, rho=0.5),
            StreamingApproxDBSCAN(eps, min_pts, rho=0.5),
            OriginalDBSCAN(eps, min_pts),
        ]
        for solver in solvers:
            result = solver.fit(ds)
            assert result.n_clusters == 2, type(solver).__name__
            assert adjusted_rand_index(y, result.labels) > 0.95, type(solver).__name__
