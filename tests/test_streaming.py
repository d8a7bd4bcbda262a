"""Tests for Algorithm 3 (streaming ρ-approximate DBSCAN).

The streaming solver must satisfy the same sandwich guarantee as the
batch approximation, use exactly three passes, and keep its memory
footprint (``|E| + |M|``) bounded independent of how the data grows
inside a fixed domain.
"""

import numpy as np
import pytest

from repro.core import StreamingApproxDBSCAN
from repro.datasets import ReplayStream, make_blobs, make_session_stream
from repro.index.registry import DEFAULT_INDEX_ENV
from repro.metricspace import EditDistanceMetric, MetricDataset

from conftest import bfs_dbscan, same_cluster_pairs


def random_instance(seed, n_extra_outliers=5):
    rng = np.random.default_rng(seed)
    parts = [
        rng.normal(0.0, 0.3, size=(60, 2)),
        rng.normal([6.0, 0.0], 0.35, size=(60, 2)),
        rng.uniform(-15.0, 15.0, size=(n_extra_outliers, 2)),
    ]
    pts = np.vstack(parts)
    rng.shuffle(pts)
    return MetricDataset(pts)


def check_sandwich(ds, eps, min_pts, rho, labels):
    exact_lo = bfs_dbscan(ds, eps, min_pts)
    exact_hi = bfs_dbscan(ds, (1.0 + rho) * eps, min_pts)
    cores = np.flatnonzero(exact_lo.core_mask)
    lo = same_cluster_pairs(exact_lo.labels, cores)
    mid = same_cluster_pairs(labels, cores)
    hi = same_cluster_pairs(exact_hi.labels, cores)
    assert lo <= mid <= hi
    assert np.all(np.asarray(labels)[cores] >= 0)


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_sandwich(self, seed, rho):
        ds = random_instance(seed)
        eps, min_pts = 0.6, 5
        result = StreamingApproxDBSCAN(eps, min_pts, rho=rho).fit(ds)
        check_sandwich(ds, eps, min_pts, rho, result.labels)

    def test_two_blobs(self, two_blobs):
        ds, _ = two_blobs
        result = StreamingApproxDBSCAN(1.0, 5, rho=0.5).fit(ds)
        assert result.n_clusters == 2
        assert result.labels[-1] == -1

    def test_arrival_order_independent_of_validity(self):
        """Different stream orders may give different (valid) approximate
        clusterings; both must satisfy the sandwich."""
        ds = random_instance(10)
        pts = np.asarray(ds.points)
        reversed_ds = MetricDataset(pts[::-1].copy())
        for data in (ds, reversed_ds):
            result = StreamingApproxDBSCAN(0.6, 5, rho=0.5).fit(data)
            check_sandwich(data, 0.6, 5, 0.5, result.labels)

    def test_text_stream(self, text_dataset):
        ds, strings = text_dataset
        solver = StreamingApproxDBSCAN(
            2.0, 3, rho=0.5, metric=EditDistanceMetric()
        )
        result = solver.fit(ds)
        check_sandwich(ds, 2.0, 3, 0.5, result.labels)


class TestStreamingProtocol:
    def test_exactly_three_passes(self):
        ds = random_instance(20)
        stream = ReplayStream(np.asarray(ds.points))
        solver = StreamingApproxDBSCAN(0.6, 5, rho=0.5)
        result = solver.fit_stream(stream)
        assert stream.passes_started == 3
        assert result.labels.shape[0] == ds.n

    def test_memory_stats_reported(self):
        ds = random_instance(21)
        result = StreamingApproxDBSCAN(0.6, 5, rho=0.5).fit(ds)
        stats = result.stats
        assert stats["memory_points"] == stats["n_centers"] + stats["watch_size"]
        assert 0.0 < stats["memory_ratio"] <= 1.0
        assert stats["n_passes"] == 3

    def test_memory_sublinear_in_n(self):
        """Theorem 4: with a fixed domain, |E|+|M| does not grow with n."""
        rng = np.random.default_rng(3)

        def build(n):
            pts = np.vstack([
                rng.normal(0.0, 0.3, size=(n // 2, 2)),
                rng.normal([6.0, 0.0], 0.3, size=(n - n // 2, 2)),
            ])
            return MetricDataset(pts)

        small = StreamingApproxDBSCAN(0.6, 5, rho=0.5).fit(build(200))
        large = StreamingApproxDBSCAN(0.6, 5, rho=0.5).fit(build(2000))
        assert large.stats["memory_points"] <= 3 * small.stats["memory_points"]
        assert large.stats["memory_ratio"] < small.stats["memory_ratio"]

    def test_watch_list_bounded_by_min_pts_per_center(self):
        """|M| <= MinPts * |E| (the Theorem 4 memory argument)."""
        ds = random_instance(22)
        min_pts = 5
        result = StreamingApproxDBSCAN(0.6, min_pts, rho=0.5).fit(ds)
        assert result.stats["watch_size"] <= min_pts * result.stats["n_centers"]

    def test_mismatched_metric_kind_rejected(self):
        ds = MetricDataset(["ab", "cd"], EditDistanceMetric())
        solver = StreamingApproxDBSCAN(1.0, 2, rho=0.5)  # Euclidean default
        with pytest.raises(ValueError):
            solver.fit(ds)


class TestDefaultIndex:
    """``index=None`` is the process default, as in the batch solvers."""

    @pytest.mark.parametrize("backend", ["brute", "grid", "covertree"])
    def test_backend_follows_the_process_default(self, monkeypatch, backend):
        monkeypatch.setenv(DEFAULT_INDEX_ENV, backend)
        result = StreamingApproxDBSCAN(0.6, 5, rho=0.5).fit(random_instance(23))
        assert result.stats["index_backend"] == backend

    def test_default_fit_reports_its_work(self):
        result = StreamingApproxDBSCAN(0.6, 5, rho=0.5).fit(random_instance(24))
        counters = result.timings.counters
        assert counters["distance_evals"] > 0
        assert counters["n_range_queries"] > 0


class TestDriftStream:
    def test_session_stream_clusters_found(self):
        points, labels = make_session_stream(
            n=1200, dim=4, n_clusters=3, drift=1.0, seed=0
        )
        ds = MetricDataset(points)
        result = StreamingApproxDBSCAN(2.5, 8, rho=0.5).fit(ds)
        assert result.n_clusters >= 2
        # Streaming memory must be a small fraction of the stream.
        assert result.stats["memory_ratio"] < 0.5


class TestStreamLengthChecks:
    """Passes 2 and 3 must read exactly the points pass 1 read; any
    other count is an error, never labels from uninitialized memory."""

    @staticmethod
    def _points():
        pts, _ = make_blobs(
            n=300, n_clusters=3, dim=2, std=0.3, spread=6.0,
            outlier_fraction=0.05, seed=0,
        )
        return pts

    @staticmethod
    def _factory(passes):
        """A factory whose k-th call streams ``passes[k]``."""
        calls = iter(passes)
        return lambda: iter(next(calls))

    @pytest.mark.parametrize("index", [None, "brute", "grid", "covertree"])
    def test_same_stream_each_pass(self, index):
        pts = self._points()
        result = StreamingApproxDBSCAN(0.5, 5, rho=0.5, index=index).fit_stream(
            self._factory([pts, pts, pts])
        )
        assert (result.n_clusters, result.n_noise) == (3, 15)

    @pytest.mark.parametrize("index", [None, "brute", "grid", "covertree"])
    def test_empty_stream_raises(self, index):
        """An empty stream is rejected like an empty batch input."""
        with pytest.raises(ValueError, match="at least one point"):
            MetricDataset(np.zeros((0, 2)))
        solver = StreamingApproxDBSCAN(0.5, 5, rho=0.5, index=index)
        with pytest.raises(ValueError, match="at least one point"):
            solver.fit_stream(lambda: iter([]))

    MESSAGES = {
        "shared-iterator": "pass 1 read 300 points, pass 2 read 0",
        "shorter-pass-2": "pass 1 read 300 points, pass 2 read 293",
        "longer-pass-2": "pass 1 read 300 points, pass 2 read 305",
        "shorter-pass-3": "pass 1 read 300 points, pass 3 read 299",
    }

    @pytest.mark.parametrize("index", [None, "brute", "grid", "covertree"])
    @pytest.mark.parametrize("case", list(MESSAGES))
    def test_length_change_raises(self, index, case):
        pts = self._points()
        if case == "shared-iterator":
            shared = iter(pts)

            def factory():
                return shared
        else:
            factory = self._factory({
                "shorter-pass-2": [pts, pts[:293], pts],
                "longer-pass-2": [pts, np.vstack([pts, pts[:5]]), pts],
                "shorter-pass-3": [pts, pts, pts[:299]],
            }[case])
        solver = StreamingApproxDBSCAN(0.5, 5, rho=0.5, index=index)
        with pytest.raises(ValueError, match=self.MESSAGES[case]):
            solver.fit_stream(factory)
