"""Input-dtype boundary coercion: float32/int data must cluster
bit-identically to its float64 cast, and NaN/inf coordinates must be
rejected where they enter.

The engine coerces vector payloads to float64 exactly once, at the
dataset/store boundary (``MetricDataset.__init__`` / ``PayloadStore``);
every downstream kernel — including the float32 GEMM tier of the
certified cascade — then starts from the same float64 operands.  If a
float32 input ever leaked straight into the cascade's low tier it
would be rounded twice and these tests would diverge.
"""

import numpy as np
import pytest

from repro.core import (
    DecayingApproxDBSCAN,
    StreamingApproxDBSCAN,
    WindowedApproxDBSCAN,
    approx_metric_dbscan,
    metric_dbscan,
)
from repro.metricspace import EuclideanMetric, MetricDataset

BACKENDS = ["auto", "brute", "grid", "covertree"]


def blobs(dtype, seed=11, n=240):
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal(0.0, 0.4, size=(n // 3, 3)),
        rng.normal(5.0, 0.4, size=(n // 3, 3)),
        rng.normal((0.0, 7.0, 0.0), 0.4, size=(n - 2 * (n // 3), 3)),
    ])
    return pts.astype(dtype)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_exact_labels_match_float64_cast(monkeypatch, backend, dtype):
    monkeypatch.setenv("REPRO_DEFAULT_INDEX", backend)
    raw = blobs(dtype)
    ref = metric_dbscan(MetricDataset(raw.astype(np.float64)), 1.0, 5)
    got = metric_dbscan(MetricDataset(raw), 1.0, 5)
    np.testing.assert_array_equal(ref.labels, got.labels)
    np.testing.assert_array_equal(ref.core_mask, got.core_mask)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_approx_labels_match_float64_cast(monkeypatch, backend, dtype):
    monkeypatch.setenv("REPRO_DEFAULT_INDEX", backend)
    raw = blobs(dtype)
    ref = approx_metric_dbscan(
        MetricDataset(raw.astype(np.float64)), 1.0, 5, rho=0.5
    )
    got = approx_metric_dbscan(MetricDataset(raw), 1.0, 5, rho=0.5)
    np.testing.assert_array_equal(ref.labels, got.labels)


def test_streaming_payloads_match_float64_cast():
    """Stream payloads enter through ``PayloadStore.append`` — the
    other coercion boundary — so float32 arrivals must reproduce the
    float64 run exactly."""
    raw = blobs(np.float32, seed=12, n=180)
    solver = StreamingApproxDBSCAN(1.0, 5, rho=0.5)
    ref = solver.fit(MetricDataset(raw.astype(np.float64), EuclideanMetric()))
    got = solver.fit(MetricDataset(raw, EuclideanMetric()))
    np.testing.assert_array_equal(ref.labels, got.labels)


# ----------------------------------------------------------------------
# Non-finite payloads: one bad coordinate among 300 N(0, 1) points in
# 4-d used to hang the batch fits (inf) or mis-cluster silently (NaN).
# Every entry point must refuse it up front.

NON_FINITE = pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"]
)


def poisoned(bad, n=300, dim=4):
    pts = np.random.default_rng(0).normal(size=(n, dim))
    pts[n // 2, 1] = bad
    return pts


@NON_FINITE
def test_dataset_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        MetricDataset(poisoned(bad))


@NON_FINITE
@pytest.mark.parametrize("index", [None, "auto"])
def test_fit_stream_rejects_non_finite(bad, index):
    pts = poisoned(bad)
    solver = StreamingApproxDBSCAN(0.9, 3, rho=0.5, index=index)
    with pytest.raises(ValueError, match="finite"):
        solver.fit_stream(lambda: iter(pts))


FORGETTING_MODELS = {
    "windowed": lambda index: WindowedApproxDBSCAN(
        0.9, 3, rho=0.5, window=200, n_buckets=8, index=index
    ),
    "ttl": lambda index: DecayingApproxDBSCAN(0.9, 3, rho=0.5, ttl=200, index=index),
    "decay": lambda index: DecayingApproxDBSCAN(
        0.9, 3, rho=0.5, decay=0.01, index=index
    ),
}


@NON_FINITE
@pytest.mark.parametrize("index", [None, "auto"])
@pytest.mark.parametrize("model", sorted(FORGETTING_MODELS))
def test_insert_rejects_non_finite(bad, index, model):
    pts = poisoned(bad)
    solver = FORGETTING_MODELS[model](index)
    solver.insert_many(pts[:100])
    with pytest.raises(ValueError, match="finite"):
        solver.insert(pts[150])
    assert solver.n_seen == 100
    solver.insert(pts[0])  # the model stays usable
    assert solver.n_seen == 101


@NON_FINITE
@pytest.mark.parametrize("index", [None, "auto"])
@pytest.mark.parametrize("model", sorted(FORGETTING_MODELS))
def test_insert_many_rejects_non_finite(bad, index, model):
    pts = poisoned(bad)
    solver = FORGETTING_MODELS[model](index)
    with pytest.raises(ValueError, match="finite"):
        solver.insert_many(pts)
    # The chunk holding row 150 is rejected whole; nothing after it runs.
    assert solver.n_seen <= 150


@NON_FINITE
@pytest.mark.parametrize("index", [None, "brute", "grid", "covertree"])
@pytest.mark.parametrize("model", sorted(FORGETTING_MODELS))
def test_predict_rejects_non_finite(bad, index, model):
    """A NaN/inf query used to read as noise (-1) without a word."""
    pts = poisoned(0.0)
    solver = FORGETTING_MODELS[model](index)
    solver.insert_many(pts[:100])
    query = pts[0].copy()
    query[1] = bad
    with pytest.raises(ValueError, match="finite"):
        solver.predict(query)
    assert solver.predict(pts[0]) >= -1  # the model stays usable


def test_rejected_ttl_override_does_not_leak():
    model = DecayingApproxDBSCAN(0.9, 3, rho=0.5, ttl=50)
    with pytest.raises(ValueError, match="finite"):
        model.insert(np.array([0.0, np.nan, 0.0, 0.0]), ttl=1)
    reference = DecayingApproxDBSCAN(0.9, 3, rho=0.5, ttl=50)
    pts = poisoned(0.0)[:40]
    for p in pts:
        model.insert(p)
        reference.insert(p)
    assert model.memory_points == reference.memory_points
    assert model.n_clusters == reference.n_clusters
