"""Metamorphic tests for the batched distance engine.

Every batch kernel (``cross``, ``cross_blocks``, ``pair_distances`` and
their reduced-space variants) must agree with the scalar
``Metric.distance`` loop to 1e-9 for every metric, including empty
batches, single points, and odd block-boundary sizes.
"""

import itertools
import time

import numpy as np
import pytest

from repro import ApproxMetricDBSCAN
from repro.baselines import OriginalDBSCAN
from repro.datasets import make_blobs
from repro.metricspace import (
    CosineMetric,
    CountingMetric,
    EditDistanceMetric,
    EuclideanMetric,
    ManhattanMetric,
    MetricDataset,
    MinkowskiMetric,
)
from repro.metricspace.dataset import DEFAULT_BLOCK_BYTES, rows_per_block

RNG = np.random.default_rng(1234)


def _vector_payloads(n, d=3, scale=2.0):
    return RNG.normal(0.0, scale, size=(n, d)) + 0.1  # avoid zero vectors


def _string_payloads(n):
    alphabet = "abcdxyz"
    return [
        "".join(RNG.choice(list(alphabet), size=int(RNG.integers(1, 12))))
        for _ in range(n)
    ]


METRICS = [
    ("euclidean", EuclideanMetric(), _vector_payloads),
    ("cosine", CosineMetric(), _vector_payloads),
    ("minkowski3", MinkowskiMetric(p=3.0), _vector_payloads),
    ("manhattan", ManhattanMetric(), _vector_payloads),
    ("edit", EditDistanceMetric(), lambda n: _string_payloads(n)),
    ("counting", CountingMetric(EuclideanMetric()), _vector_payloads),
]


def scalar_cross(metric, queries, targets):
    out = np.empty((len(queries), len(targets)), dtype=np.float64)
    for i in range(len(queries)):
        for j in range(len(targets)):
            out[i, j] = metric.distance(queries[i], targets[j])
    return out


@pytest.mark.parametrize("name,metric,make", METRICS, ids=[m[0] for m in METRICS])
@pytest.mark.parametrize("nq,nt", [(7, 11), (1, 5), (5, 1), (1, 1)])
def test_cross_matches_scalar_loop(name, metric, make, nq, nt):
    queries, targets = make(nq), make(nt)
    reference = scalar_cross(metric, queries, targets)
    block = metric.cross(queries, targets)
    assert block.shape == (nq, nt)
    np.testing.assert_allclose(block, reference, atol=1e-9)


@pytest.mark.parametrize("name,metric,make", METRICS, ids=[m[0] for m in METRICS])
def test_reduced_cross_expands_to_true_distances(name, metric, make):
    queries, targets = make(6), make(9)
    reference = scalar_cross(metric, queries, targets)
    reduced = metric.reduced_cross(queries, targets)
    np.testing.assert_allclose(
        np.asarray(metric.expand_reduced(reduced), dtype=np.float64),
        reference,
        atol=1e-9,
    )


@pytest.mark.parametrize("name,metric,make", METRICS, ids=[m[0] for m in METRICS])
def test_reduce_threshold_preserves_comparisons(name, metric, make):
    queries, targets = make(6), make(6)
    reference = scalar_cross(metric, queries, targets)
    reduced = metric.reduced_cross(queries, targets)
    # Thresholds chosen strictly between observed distance values, so no
    # boundary ambiguity is involved.
    flat = np.unique(reference.ravel())
    for t in (flat[:-1] + flat[1:]) / 2.0:
        expected = reference <= t
        got = reduced <= metric.reduce_threshold(float(t))
        assert np.array_equal(expected, got)


@pytest.mark.parametrize("name,metric,make", METRICS, ids=[m[0] for m in METRICS])
def test_pair_distances_matches_scalar(name, metric, make):
    a, b = make(8), make(8)
    reference = np.array(
        [metric.distance(x, y) for x, y in zip(a, b)], dtype=np.float64
    )
    np.testing.assert_allclose(metric.pair_distances(a, b), reference, atol=1e-9)
    np.testing.assert_allclose(
        np.asarray(
            metric.expand_reduced(metric.reduced_pair_distances(a, b)),
            dtype=np.float64,
        ),
        reference,
        atol=1e-9,
    )


@pytest.mark.parametrize("name,metric,make", METRICS, ids=[m[0] for m in METRICS])
def test_cross_empty_batches(name, metric, make):
    payloads = make(4)
    empty = payloads[:0] if isinstance(payloads, np.ndarray) else []
    assert metric.cross(empty, payloads).shape == (0, 4)
    assert metric.cross(payloads, empty).shape == (4, 0)
    assert metric.cross(empty, empty).shape == (0, 0)
    assert metric.pair_distances(empty, empty).shape == (0,)


def test_euclidean_large_block_gram_path():
    """Blocks past the exact-kernel cutoff switch to the squared-norm
    expansion; it must still match the scalar loop to 1e-9."""
    metric = EuclideanMetric()
    queries, targets = _vector_payloads(130), _vector_payloads(130)
    assert 130 * 130 * 3 > 1 << 15  # really exercises the gram path
    reference = scalar_cross(metric, queries, targets)
    np.testing.assert_allclose(metric.cross(queries, targets), reference, atol=1e-9)


@pytest.mark.parametrize(
    "block_bytes", [1, 17, 8 * 5, 8 * 1000, 8 << 20]
)
def test_dataset_cross_blocks_reassemble(block_bytes):
    """Chunked iteration must tile the full matrix exactly, for block
    budgets that force single-row, odd-sized, and single-block splits."""
    pts = _vector_payloads(23)
    ds = MetricDataset(pts)
    full = ds.cross()
    seen_rows = []
    tiles = []
    for chunk, block in ds.cross_blocks(block_bytes=block_bytes):
        assert block.shape == (len(chunk), ds.n)
        seen_rows.extend(chunk.tolist())
        tiles.append(block)
    assert seen_rows == list(range(ds.n))
    np.testing.assert_allclose(np.vstack(tiles), full, atol=1e-12)


def test_dataset_cross_blocks_adaptive_reassembles():
    """block_bytes=None must tile the same matrix, in chunks of
    ``rows_per_block(n, DEFAULT_BLOCK_BYTES)`` rows."""
    pts = _vector_payloads(200)
    ds = MetricDataset(pts)
    full = ds.cross()
    seen_rows = []
    tiles = []
    for chunk, block in ds.cross_blocks():
        seen_rows.extend(chunk.tolist())
        tiles.append(block)
    assert seen_rows == list(range(ds.n))
    np.testing.assert_allclose(np.vstack(tiles), full, atol=1e-12)
    step = rows_per_block(ds.n, DEFAULT_BLOCK_BYTES)
    assert [len(tile) for tile in tiles] == [
        min(step, ds.n - lo) for lo in range(0, ds.n, step)
    ]


def test_block_count_does_not_depend_on_the_clock(monkeypatch):
    """Two fits of one solver on one dataset report equal
    ``distance_blocks``, also under a clock on which every kernel call
    looks slow: block sizes depend on the shapes alone."""
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    pts, _ = make_blobs(
        n=2000, n_clusters=4, dim=2, std=0.5, spread=10.0,
        outlier_fraction=0.05, seed=0,
    )
    ds = MetricDataset(pts)
    for solver in (
        OriginalDBSCAN(0.3, 5, index="brute"),
        ApproxMetricDBSCAN(0.3, 5, rho=0.5, index="brute"),
    ):
        first, second = (
            solver.fit(ds).timings.counters["distance_blocks"] for _ in range(2)
        )
        assert first == second


def test_dataset_cross_blocks_explicit_budget_is_static():
    """An explicit byte budget must keep the deterministic chunking."""
    pts = _vector_payloads(50)
    ds = MetricDataset(pts)
    sizes = [len(chunk) for chunk, _ in ds.cross_blocks(block_bytes=8 * 100)]
    assert sizes == [2] * 25  # 100 target entries / 50 targets = 2 rows


def test_dataset_cross_blocks_subsets_and_counters():
    pts = _vector_payloads(20)
    ds = MetricDataset(pts)
    q = np.array([3, 1, 4, 15, 9])
    t = np.array([2, 7, 18])
    blocks_before, evals_before = ds.n_cross_blocks, ds.n_cross_evals
    full = ds.cross(q, t)
    assert full.shape == (5, 3)
    assert ds.n_cross_blocks == blocks_before + 1
    assert ds.n_cross_evals == evals_before + 15
    reference = scalar_cross(ds.metric, pts[q], pts[t])
    np.testing.assert_allclose(full, reference, atol=1e-9)
    # pair: aligned COO evaluation
    d = ds.pair(q[:3], t)
    np.testing.assert_allclose(d, reference[np.arange(3), np.arange(3)], atol=1e-9)


def test_dataset_cross_blocks_edit_distance():
    strings = ["abc", "abcd", "zzz", "ab", "azc", "q"]
    ds = MetricDataset(strings, EditDistanceMetric())
    full = ds.cross()
    reference = scalar_cross(ds.metric, strings, strings)
    np.testing.assert_allclose(full, reference, atol=1e-12)
    tiles = [block for _, block in ds.cross_blocks(block_bytes=8 * 6)]
    np.testing.assert_allclose(np.vstack(tiles), reference, atol=1e-12)


def test_counting_metric_counts_batch_kernels():
    metric = CountingMetric(EuclideanMetric())
    a, b = _vector_payloads(6), _vector_payloads(5)
    metric.reset()
    metric.cross(a, b)
    assert metric.count == 30 and metric.calls == 1
    metric.reduced_cross(a, b)
    assert metric.count == 60
    metric.pair_distances(a[:5], b)
    assert metric.count == 65
    metric.reduced_pair_distances(a[:5], b)
    assert metric.count == 70
