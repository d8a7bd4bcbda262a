"""Tests for the sliding-window extension (the paper's future-work
item on deletion and drift)."""

import numpy as np
import pytest

from repro.core.windowed import WindowedApproxDBSCAN
from repro.metricspace import EditDistanceMetric


def feed_blob(model, rng, center, n, std=0.2, dim=2):
    for _ in range(n):
        model.insert(rng.normal(center, std, size=dim))


class TestStationary:
    def test_two_blobs_two_clusters(self):
        rng = np.random.default_rng(0)
        model = WindowedApproxDBSCAN(1.0, 5, rho=0.5, window=400)
        for _ in range(200):
            feed_blob(model, rng, [0.0, 0.0], 1)
            feed_blob(model, rng, [8.0, 0.0], 1)
        assert model.n_clusters == 2
        a = model.predict(np.array([0.0, 0.0]))
        b = model.predict(np.array([8.0, 0.0]))
        assert a >= 0 and b >= 0 and a != b

    def test_far_query_is_noise(self):
        rng = np.random.default_rng(1)
        model = WindowedApproxDBSCAN(1.0, 5, rho=0.5, window=200)
        feed_blob(model, rng, [0.0, 0.0], 100)
        assert model.predict(np.array([50.0, 50.0])) == -1

    def test_empty_model_predicts_noise(self):
        model = WindowedApproxDBSCAN(1.0, 5, rho=0.5, window=100)
        assert model.predict(np.array([0.0, 0.0])) == -1
        assert model.n_clusters == 0

    @pytest.mark.parametrize("index", [None, "auto"])
    def test_empty_batch_is_a_no_op(self, index):
        """Unlike an empty ``fit_stream``, an empty ingest batch is not
        an error: the model simply stays as it was."""
        model = WindowedApproxDBSCAN(1.0, 5, rho=0.5, window=100, index=index)
        model.insert_many(np.zeros((0, 2)))
        assert model.n_seen == 0 and model.n_clusters == 0
        assert model.predict(np.array([0.0, 0.0])) == -1


class TestDeletionAndDrift:
    def test_abandoned_region_is_forgotten(self):
        """After the window slides fully past a region, queries there
        return noise — the deletion semantics."""
        rng = np.random.default_rng(2)
        model = WindowedApproxDBSCAN(1.0, 5, rho=0.5, window=200, n_buckets=4)
        feed_blob(model, rng, [0.0, 0.0], 200)
        assert model.predict(np.array([0.0, 0.0])) >= 0
        # The stream moves to a new region for > window points.
        feed_blob(model, rng, [30.0, 0.0], 300)
        assert model.predict(np.array([0.0, 0.0])) == -1
        assert model.predict(np.array([30.0, 0.0])) >= 0

    def test_drift_tracks_moving_cluster(self):
        rng = np.random.default_rng(3)
        model = WindowedApproxDBSCAN(1.5, 5, rho=0.5, window=300, n_buckets=6)
        for step in range(900):
            center = np.array([step / 50.0, 0.0])  # slow drift
            model.insert(rng.normal(center, 0.2))
        head = np.array([900 / 50.0, 0.0])
        tail = np.array([0.0, 0.0])
        assert model.predict(head) >= 0
        assert model.predict(tail) == -1

    def test_memory_bounded_under_long_stream(self):
        """Payload slots are recycled: memory tracks the window, not
        the stream length."""
        rng = np.random.default_rng(4)
        model = WindowedApproxDBSCAN(1.0, 5, rho=0.5, window=200, n_buckets=4)
        feed_blob(model, rng, [0.0, 0.0], 300)
        after_warmup = model.memory_points
        # Stream 10x more from a drifting source.
        for step in range(2000):
            model.insert(rng.normal([step / 100.0, 0.0], 0.2))
        assert model.memory_points <= after_warmup * 8
        assert model.n_seen == 2300

    @pytest.mark.parametrize(
        "window, n_buckets, fewest, most",
        [(100, 8, 85, 96), (10, 4, 7, 8), (100, 4, 76, 100)],
    )
    def test_effective_window_range(self, window, n_buckets, fewest, most):
        """Buckets hold ``b = window // n_buckets`` arrivals, so the model
        keeps between ``(n_buckets - 1)·b + 1`` and ``n_buckets·b`` of
        them.  Every far-apart arrival births a center, so the live
        centers count the live arrivals."""
        model = WindowedApproxDBSCAN(
            1.0, 5, rho=0.5, window=window, n_buckets=n_buckets
        )
        live = []
        for i in range(4 * window):
            model.insert(np.array([10.0 * i, 0.0]))
            if i >= window:
                live.append(model.n_live_centers)
        assert (min(live), max(live)) == (fewest, most)

    def test_counts_subtracted_on_expiry(self):
        """A center whose support expired stops being core."""
        rng = np.random.default_rng(5)
        model = WindowedApproxDBSCAN(1.0, 20, rho=0.5, window=100, n_buckets=4)
        feed_blob(model, rng, [0.0, 0.0], 100)  # dense: core
        assert model.predict(np.array([0.0, 0.0])) >= 0
        # Sparse faraway trickle pushes the window past the blob.
        for i in range(120):
            model.insert(np.array([100.0 + 5.0 * i, 0.0]))
        assert model.predict(np.array([0.0, 0.0])) == -1


class TestConfiguration:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedApproxDBSCAN(1.0, 5, window=0)
        with pytest.raises(ValueError):
            WindowedApproxDBSCAN(1.0, 5, window=10, n_buckets=20)
        with pytest.raises(ValueError):
            WindowedApproxDBSCAN(-1.0, 5)

    def test_non_vector_metric(self):
        model = WindowedApproxDBSCAN(
            2.0, 3, rho=0.5, window=50, metric=EditDistanceMetric()
        )
        for s in ["aaaa", "aaab", "aaba", "aabb", "aaaa", "abab"]:
            model.insert(s)
        assert model.predict("aaaa") >= 0
        assert model.predict("zzzzzzzzzz") == -1
