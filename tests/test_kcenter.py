"""Tests for the k-center subpackage."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kcenter import gonzalez_kcenter
from repro.metricspace import EuclideanMetric, MetricDataset


def blob_ds(seed=0, k=3, n_per=40, spread=10.0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, size=(k, 2))
    pts = np.vstack([rng.normal(centers[c], 0.3, size=(n_per, 2)) for c in range(k)])
    return MetricDataset(pts)


class TestGonzalezKCenter:
    def test_radius_shrinks_with_k(self):
        ds = blob_ds()
        radii = [gonzalez_kcenter(ds, k, first_index=0).radius for k in (1, 2, 3, 6)]
        assert all(radii[i + 1] <= radii[i] + 1e-12 for i in range(3))

    def test_k_equal_n_zero_radius(self):
        ds = MetricDataset(np.arange(5, dtype=float).reshape(-1, 1))
        result = gonzalez_kcenter(ds, 5, first_index=0)
        assert result.radius == 0.0

    def test_assignment_nearest(self):
        ds = blob_ds(1)
        result = gonzalez_kcenter(ds, 4, first_index=0)
        centers = np.asarray(result.centers)
        for p in range(0, ds.n, 7):
            d = ds.distances_from(p, centers)
            assert result.distances[p] == pytest.approx(float(d.min()))

    def test_clusters_partition(self):
        ds = blob_ds(2)
        result = gonzalez_kcenter(ds, 3, first_index=0)
        total = np.concatenate(result.clusters())
        assert sorted(total.tolist()) == list(range(ds.n))

    def test_two_approximation_on_known_instance(self):
        """Points at 0, 1, 10, 11 with k=2: optimum radius 0.5, greedy
        must stay within 2x (= 1.0)."""
        ds = MetricDataset(np.array([[0.0], [1.0], [10.0], [11.0]]))
        result = gonzalez_kcenter(ds, 2, first_index=0)
        assert result.radius <= 1.0 + 1e-12

    def test_deterministic_with_first_index(self):
        ds = blob_ds(3)
        a = gonzalez_kcenter(ds, 4, first_index=5)
        b = gonzalez_kcenter(ds, 4, first_index=5)
        assert a.centers == b.centers

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            gonzalez_kcenter(blob_ds(), 0)

    def test_invalid_first_index(self):
        ds = blob_ds()
        with pytest.raises(ValueError):
            gonzalez_kcenter(ds, 2, first_index=ds.n)


@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=30),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_gonzalez_radius_property(values, k):
    """Property: greedy radius is within 2x of the optimum radius
    realized by ANY k-subset (checked against the greedy solution of a
    finer run, a standard sanity bound: radius(k) <= 2 * opt(k) and
    radius is monotone in k)."""
    pts = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    ds = MetricDataset(pts, EuclideanMetric())
    result = gonzalez_kcenter(ds, k, first_index=0)
    finer = gonzalez_kcenter(ds, min(k + 1, ds.n), first_index=0)
    assert finer.radius <= result.radius + 1e-9
    # Covering: every point within the radius of some center.
    assert result.distances.max() == pytest.approx(result.radius)
