"""Equivalence regression tests for the batched distance engine.

The solvers must produce identical core-point partitions whether
distances flow through the vectorized block kernels or through the
scalar ``Metric.distance`` fallback loops (the pre-batching code path).
A wrapper metric that hides every vectorized override forces the scalar
path; outputs are compared via ``core_partition`` on seeded synthetic
datasets.
"""

import numpy as np
import pytest

from conftest import core_partition

from repro import (
    ApproxMetricDBSCAN,
    MetricDBSCAN,
    MetricDataset,
    StreamingApproxDBSCAN,
)
from repro.core.windowed import WindowedApproxDBSCAN
from repro.datasets import make_blobs, make_moons
from repro.metricspace import CosineMetric, EuclideanMetric, Metric
from repro.metricspace.precision import RESCUE_DENSE_FRAC


class ScalarizedEuclidean(Metric):
    """Euclidean distance stripped of every vectorized override.

    ``is_vector_metric`` stays False, so payloads live in a list and all
    batch/cross/pair kernels fall back to the base-class scalar loops —
    the reference semantics the batched engine must reproduce.
    """

    is_vector_metric = False

    def __init__(self) -> None:
        self._inner = EuclideanMetric()

    def distance(self, a, b) -> float:
        return self._inner.distance(a, b)


def _instances():
    blobs, _ = make_blobs(
        n=240, n_clusters=3, dim=2, std=0.3, spread=8.0,
        outlier_fraction=0.08, seed=5,
    )
    moons, _ = make_moons(n=240, noise=0.05, outlier_fraction=0.05, seed=11)
    return [("blobs", blobs, 0.8, 6), ("moons", moons, 0.15, 6)]


@pytest.mark.parametrize("name,pts,eps,min_pts", _instances(),
                         ids=[i[0] for i in _instances()])
def test_exact_partition_matches_scalar_path(name, pts, eps, min_pts):
    fast = MetricDBSCAN(eps, min_pts).fit(MetricDataset(pts))
    slow = MetricDBSCAN(eps, min_pts).fit(
        MetricDataset(list(pts), ScalarizedEuclidean())
    )
    assert np.array_equal(fast.core_mask, slow.core_mask)
    assert core_partition(fast.labels, fast.core_mask) == core_partition(
        slow.labels, slow.core_mask
    )


@pytest.mark.parametrize("name,pts,eps,min_pts", _instances(),
                         ids=[i[0] for i in _instances()])
def test_approx_partition_matches_scalar_path(name, pts, eps, min_pts):
    fast = ApproxMetricDBSCAN(eps, min_pts, rho=0.5).fit(MetricDataset(pts))
    slow = ApproxMetricDBSCAN(eps, min_pts, rho=0.5).fit(
        MetricDataset(list(pts), ScalarizedEuclidean())
    )
    assert np.array_equal(fast.core_mask, slow.core_mask)
    assert core_partition(fast.labels, fast.core_mask) == core_partition(
        slow.labels, slow.core_mask
    )


@pytest.mark.parametrize("name,pts,eps,min_pts", _instances(),
                         ids=[i[0] for i in _instances()])
def test_streaming_labels_match_scalar_path(name, pts, eps, min_pts):
    fast = StreamingApproxDBSCAN(eps, min_pts, rho=0.5).fit(MetricDataset(pts))
    slow = StreamingApproxDBSCAN(
        eps, min_pts, rho=0.5, metric=ScalarizedEuclidean()
    ).fit(MetricDataset(list(pts), ScalarizedEuclidean()))
    assert np.array_equal(fast.labels, slow.labels)
    assert fast.stats["n_centers"] == slow.stats["n_centers"]
    assert fast.stats["summary_size"] == slow.stats["summary_size"]


def test_exact_and_approx_share_known_core_partition():
    """The approx solver's known-core points must partition identically
    to the exact solver's (restricted to the known-core subset)."""
    pts, _ = make_blobs(
        n=300, n_clusters=3, dim=2, std=0.25, spread=9.0,
        outlier_fraction=0.05, seed=3,
    )
    eps, min_pts = 0.8, 6
    exact = MetricDBSCAN(eps, min_pts).fit(MetricDataset(pts))
    approx = ApproxMetricDBSCAN(eps, min_pts, rho=0.5).fit(MetricDataset(pts))
    # Every known-core point of the approx run is core in the exact run.
    assert np.all(exact.core_mask[approx.core_mask])


def test_windowed_insert_many_matches_insert():
    pts, _ = make_moons(n=300, noise=0.06, outlier_fraction=0.05, seed=2)
    one = WindowedApproxDBSCAN(0.3, 5, rho=0.5, window=120, n_buckets=6)
    many = WindowedApproxDBSCAN(0.3, 5, rho=0.5, window=120, n_buckets=6)
    for row in pts:
        one.insert(row)
    many.insert_many(pts)
    assert one.n_seen == many.n_seen
    assert one.n_live_centers == many.n_live_centers
    assert one.n_clusters == many.n_clusters
    queries = pts[:: 29]
    for q in queries:
        assert one.predict(q) == many.predict(q)


# ----------------------------------------------------------------------
# Certified mixed-precision cascade: adversarial band pairs


@pytest.fixture
def force_float32():
    """Force the cascade's float32 tier regardless of block size, and
    restore the default policy afterwards."""
    from repro.metricspace import precision

    precision.set_precision("float32")
    precision.stats.reset()
    yield precision.stats
    precision.set_precision(None)


def _exact_mask(metric, queries, targets, threshold):
    """Reference decisions from the float64 difference kernel (not the
    gram expansion, whose cancellation error is exactly what the
    cascade's rescue avoids)."""
    q = np.asarray(queries, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    diff = q[:, None, :] - t[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff) <= threshold * threshold


def test_cascade_rescues_large_norm_offsets(force_float32):
    """Points at offset 1e4 with pair gaps of ±1e-4 relative: every
    pair lands inside the float32 uncertainty band (the norms inflate
    the rounding bound far past the gap), so the rescue must recompute
    all of them — and get every verdict right."""
    rng = np.random.default_rng(42)
    metric = EuclideanMetric()
    thr = 2.0
    dim = 8
    base = np.full(dim, 1e4 / np.sqrt(dim))
    queries = base + rng.normal(0, 0.5, size=(24, dim))
    # Targets displaced from each query's direction by thr·(1 ± δ):
    # alternating just-inside / just-outside the threshold.
    deltas = np.where(np.arange(32) % 2 == 0, 1e-4, -1e-4)
    dirs = rng.normal(size=(32, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    targets = base + dirs * thr * (1.0 + deltas)[:, None]
    mask = metric.cross_certified(queries, targets, thr)
    np.testing.assert_array_equal(
        mask, _exact_mask(metric, queries, targets, thr)
    )
    stats = force_float32
    assert stats.n_rescued == mask.size  # every pair was a band pair


def test_cascade_rescues_near_duplicates(force_float32):
    """Near-duplicate points decided at a tiny threshold: thr=1e-4
    with displacements thr·(1 ± 1e-3).  The float32 tier cannot
    separate d² from thr² at that scale, so the band pairs must be
    rescued exactly."""
    rng = np.random.default_rng(7)
    metric = EuclideanMetric()
    thr = 1e-4
    dim = 8
    queries = rng.normal(0, 1.0, size=(16, dim))
    dirs = rng.normal(size=(16, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    deltas = np.where(np.arange(16) % 2 == 0, 1e-3, -1e-3)
    targets = queries + dirs * thr * (1.0 + deltas)[:, None]
    mask = metric.cross_certified(queries, targets, thr)
    np.testing.assert_array_equal(
        mask, _exact_mask(metric, queries, targets, thr)
    )
    stats = force_float32
    assert stats.n_rescued >= 16  # at least the diagonal band pairs


@pytest.mark.parametrize("metric", [EuclideanMetric(), CosineMetric()],
                         ids=["euclidean", "cosine"])
@pytest.mark.parametrize("n_queries,n_targets", [(6, 40), (40, 6)],
                         ids=["more-targets", "more-queries"])
def test_cascade_rescues_band_pairs_in_any_block_shape(
    force_float32, metric, n_queries, n_targets
):
    """Four pairs sit 1e-7 (relative) from the threshold, inside the
    float32 band, among random pairs far from it.  So few band pairs
    take the per-pair rescue, not the dense fallback, and a row/column
    mix-up in locating them fails one of the two block shapes."""
    rng = np.random.default_rng(3)
    dim, thr = 8, 0.5
    queries = rng.normal(size=(n_queries, dim))
    targets = rng.normal(size=(n_targets, dim))
    for k, (i, j) in enumerate([(0, 1), (1, 3), (2, 5), (3, 0)]):
        q = queries[i]
        w = rng.normal(size=dim)
        w -= (w @ q) / (q @ q) * q
        w /= np.linalg.norm(w)
        step = thr * (1.0 + (1e-7 if k % 2 else -1e-7))
        if isinstance(metric, CosineMetric):  # angle ``step`` from q
            targets[j] = np.cos(step) * q / np.linalg.norm(q) + np.sin(step) * w
        else:  # distance ``step`` from q
            targets[j] = q + step * w
    mask = metric.cross_certified(queries, targets, thr)
    want = metric.reduced_cross(queries, targets) <= metric.reduce_threshold(thr)
    np.testing.assert_array_equal(mask, want)
    assert 4 <= force_float32.n_rescued < RESCUE_DENSE_FRAC * mask.size


@pytest.mark.parametrize("backend", ["auto", "brute", "grid", "covertree"])
def test_labels_bit_identical_cascade_vs_float64(monkeypatch, backend):
    """End-to-end: the forced-float32 cascade and the pure-float64
    engine must agree label-for-label under every index backend,
    including on data living at a large offset (worst case for the
    gram expansion's cancellation)."""
    monkeypatch.setenv("REPRO_DEFAULT_INDEX", backend)
    pts, _ = make_blobs(n=400, n_clusters=3, dim=4, std=0.5, seed=9)
    pts = pts + 1e3  # push norms up without changing the geometry
    eps, min_pts = 0.9, 5

    monkeypatch.setenv("REPRO_PRECISION", "float64")
    ref_exact = MetricDBSCAN(eps, min_pts).fit(MetricDataset(pts))
    ref_approx = ApproxMetricDBSCAN(eps, min_pts, rho=0.5).fit(
        MetricDataset(pts)
    )
    monkeypatch.setenv("REPRO_PRECISION", "float32")
    got_exact = MetricDBSCAN(eps, min_pts).fit(MetricDataset(pts))
    got_approx = ApproxMetricDBSCAN(eps, min_pts, rho=0.5).fit(
        MetricDataset(pts)
    )
    np.testing.assert_array_equal(ref_exact.labels, got_exact.labels)
    np.testing.assert_array_equal(ref_exact.core_mask, got_exact.core_mask)
    np.testing.assert_array_equal(ref_approx.labels, got_approx.labels)
