"""Input-dtype boundary coercion: float32/int data must cluster
bit-identically to its float64 cast, NaN/inf coordinates and
coordinates whose distances overflow float64 must be rejected where
they enter, and an ε whose reduced threshold overflows must still
cluster.

The engine coerces vector payloads to float64 exactly once, at the
dataset/store boundary (``MetricDataset.__init__`` / ``PayloadStore``);
every downstream kernel — including the float32 GEMM tier of the
certified cascade — then starts from the same float64 operands.  If a
float32 input ever leaked straight into the cascade's low tier it
would be rounded twice and these tests would diverge.
"""

import numpy as np
import pytest

from conftest import assert_labels_equivalent
from repro.baselines import OriginalDBSCAN
from repro.core import (
    ApproxMetricDBSCAN,
    DecayingApproxDBSCAN,
    MetricDBSCAN,
    StreamingApproxDBSCAN,
    WindowedApproxDBSCAN,
    approx_metric_dbscan,
    metric_dbscan,
)
from repro.metricspace import (
    CosineMetric, EuclideanMetric, MetricDataset, MinkowskiMetric,
)

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


# ----------------------------------------------------------------------
# Magnitudes: 50 N(0, 1) points in 3-d, MinPts 3, ρ = 1.  Scaled by s
# with ε = 0.5·s the truth does not move (4 clusters, 36 noise points),
# but once reduced distances overflow float64 every pair would compare
# as ``inf <= inf`` (one cluster, no noise).  Every entry point must
# either give the s = 1 answer or reject the input with an error naming
# its magnitude, and accept everything up to |x| ~ 1e150.
#
# The angular distance does not see the scale at all (ε = 0.3 at every
# s), so cosine data must give the s = 1 answer at any finite
# magnitude.  Row norms used to overflow from 2^512 (exact and approx
# hung, the others returned all noise) and underflow to zero at 2^-565
# (every entry point rejected a "zero vector").  Power-of-two scales
# keep the scaled input exact.

ENTRY_POINTS = ("exact", "approx", "dbscan", "streaming", "windowed")


def unit_points(n=50, dim=3):
    return np.random.default_rng(0).normal(size=(n, dim))


def run_entry(entry, pts, eps, metric, index):
    """One entry point's answer on ``pts``: labels for the fits, the
    cluster count plus every point's prediction for the windowed
    model."""
    if entry == "windowed":
        model = WindowedApproxDBSCAN(
            eps, 3, rho=1.0, window=100, metric=metric, index=index
        )
        model.insert_many(pts)
        return model.n_clusters, np.array([model.predict(p) for p in pts])
    if entry == "streaming":
        solver = StreamingApproxDBSCAN(eps, 3, rho=1.0, metric=metric, index=index)
        return solver.fit_stream(lambda: iter(pts)).labels
    solver = {
        "exact": lambda: MetricDBSCAN(eps, 3, index=index),
        "approx": lambda: ApproxMetricDBSCAN(eps, 3, rho=1.0, index=index),
        "dbscan": lambda: OriginalDBSCAN(eps, 3, index=index),
    }[entry]()
    return solver.fit(MetricDataset(pts, metric)).labels


def assert_same_answer(entry, got, want):
    if entry == "windowed":
        assert got[0] == want[0]
        assert_labels_equivalent(got[1], want[1])
    else:
        assert_labels_equivalent(got, want)


def check_scaled(entry, index, metric, scale, accepted):
    """The s = 1 answer, or (unless ``accepted``) a magnitude error."""
    pts = unit_points()
    if isinstance(metric, CosineMetric):
        eps, scaled_eps = 0.3, 0.3
    else:
        eps, scaled_eps = 0.5, 0.5 * scale
    want = run_entry(entry, pts, eps, metric, index)
    try:
        got = run_entry(entry, pts * scale, scaled_eps, metric, index)
    except ValueError as err:
        assert not accepted, err
        assert "magnitude" in str(err), err
        return
    assert_same_answer(entry, got, want)


SCALES = [
    pytest.param(EuclideanMetric(), scale, scale <= 1e150, id=f"{scale:g}")
    for scale in (1e100, 1e150, 1e153, 1e154, 1e155, 1e160, 1e200)
] + [
    pytest.param(CosineMetric(), 2.0**k, True, id=f"cosine-2^{k}")
    for k in (-565, -532, 500, 512, 1000)
]


@pytest.mark.parametrize("metric,scale,accepted", SCALES)
@pytest.mark.parametrize("index", [None, "brute", "grid", "covertree"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_scaled_coordinates(entry, index, metric, scale, accepted):
    check_scaled(entry, index, metric, scale, accepted)


def test_unit_answer_is_the_planted_truth():
    labels = metric_dbscan(MetricDataset(unit_points()), 0.5, 3).labels
    assert labels.max() + 1 == 4
    assert np.count_nonzero(labels < 0) == 36


@pytest.mark.parametrize("scale", [1e100, 1e102, 1e103, 1e104, 1e120])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_minkowski_scaled_coordinates(entry, scale):
    """Minkowski-3 reduces with a cube, so it overflows near 1e103."""
    check_scaled(entry, None, MinkowskiMetric(3), scale, accepted=scale <= 1e100)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_minkowski_huge_eps(entry):
    """ε = 1e103 cubes to +inf; every pair is then within ε."""
    got = run_entry(entry, unit_points(), 1e103, MinkowskiMetric(3), None)
    if entry == "windowed":
        n_clusters, got = got
        assert n_clusters == 1
    assert np.all(got == got[0]) and got[0] >= 0


def test_minkowski_reduce_threshold_overflows_to_inf():
    assert MinkowskiMetric(3).reduce_threshold(1e103) == np.inf


# ----------------------------------------------------------------------
# A huge ε: every pair of the 50 points is within ε = 1e200, so every
# solver must return one cluster with no noise.  The streaming and
# windowed epoch loops must still create centers when the reduced
# birth threshold overflows to +inf.


@pytest.mark.parametrize("index", [None, "brute", "grid", "covertree"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_huge_eps_is_one_cluster(entry, index):
    got = run_entry(entry, unit_points(), 1e200, EuclideanMetric(), index)
    if entry == "windowed":
        n_clusters, got = got
        assert n_clusters == 1
    assert np.all(got == got[0]) and got[0] >= 0
