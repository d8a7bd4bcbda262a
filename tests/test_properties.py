"""Hypothesis property tests spanning the core algorithms.

These complement the per-module tests with randomized structural
checks: exact-solver equivalence to brute force on arbitrary inputs
(with OriginalDBSCAN label for label equal to the BFS oracle),
the sandwich theorem for the approximation, and net invariants under
adversarial 2-D point clouds.

The toy-size 2-D clouds never leave the small difference kernel, so
the same properties also run on clustered inputs with exact
duplicates, up to 300 points in up to 16 dimensions: their distance
blocks cross ``DIFF_KERNEL_MAX`` and ``CASCADE_MIN_ELEMENTS``, so the
GEMM and mixed-precision cascade kernels decide them.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import OriginalDBSCAN
from repro.core import ApproxMetricDBSCAN, MetricDBSCAN, StreamingApproxDBSCAN
from repro.metricspace import MetricDataset

from conftest import bfs_dbscan, core_partition, same_cluster_pairs

points_2d = st.lists(
    st.tuples(
        st.floats(-20.0, 20.0, allow_nan=False),
        st.floats(-20.0, 20.0, allow_nan=False),
    ),
    min_size=3,
    max_size=35,
)
eps_values = st.floats(0.2, 5.0)
min_pts_values = st.integers(2, 6)


@st.composite
def clustered(draw):
    """``(points, eps, min_pts)``: unit-variance Gaussian clusters in a
    ``[-10, 10]^d`` box, with up to 30% of the points exact copies of
    others, and ε around the within-cluster distance ``√(2d)``.

    A quarter of the draws are tight: d = 16, at most 5% copies, and ε
    just under ``√(2d)``.  Their nets keep at least 90% of the points as
    centers, mostly singleton cover sets (radius 0), the regime where
    the exact solver's center graph shrinks the most.

    Every size and parameter comes from one drawn seed, so the cases
    spread evenly over n ≤ 300 and d ≤ 16 instead of clumping at the
    small end, where no kernel threshold is crossed.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tight = rng.random() < 0.25
    n = int(rng.integers(20, 301))
    dim = 16 if tight else int(rng.choice([1, 2, 3, 5, 8, 16]))
    n_clusters = int(rng.integers(1, 7))
    centers = rng.uniform(-10.0, 10.0, size=(n_clusters, dim))
    points = centers[rng.integers(n_clusters, size=n)] + rng.normal(size=(n, dim))
    copies = rng.random(n) < rng.uniform(0.0, 0.05 if tight else 0.3)
    points[copies] = points[rng.integers(n, size=int(copies.sum()))]
    scale = rng.uniform(0.75, 1.0) if tight else rng.uniform(0.3, 1.5)
    eps = scale * float(np.sqrt(2.0 * dim))
    return points, eps, int(rng.integers(2, 13))


def check_exact(points, eps, min_pts):
    ds = MetricDataset(np.asarray(points, dtype=np.float64))
    ours = MetricDBSCAN(eps, min_pts).fit(ds)
    ref = bfs_dbscan(ds, eps, min_pts)
    baseline = OriginalDBSCAN(eps, min_pts).fit(ds)
    assert np.array_equal(baseline.labels, ref.labels)
    assert np.array_equal(baseline.core_mask, ref.core_mask)
    assert np.array_equal(ours.core_mask, ref.core_mask)
    assert core_partition(ours.labels, ours.core_mask) == core_partition(
        ref.labels, ref.core_mask
    )
    assert np.array_equal(ours.labels == -1, ref.labels == -1)


def check_sandwich(solver, points, eps, min_pts, rho):
    """The Gan--Tao sandwich on the (ε, MinPts) core points: DBSCAN(ε)
    refines the labels, which refine DBSCAN((1+ρ)ε), and no core point
    is noise."""
    ds = MetricDataset(np.asarray(points, dtype=np.float64))
    labels = np.asarray(solver(eps, min_pts, rho=rho).fit(ds).labels)
    lo = bfs_dbscan(ds, eps, min_pts)
    hi = bfs_dbscan(ds, (1.0 + rho) * eps, min_pts)
    cores = np.flatnonzero(lo.core_mask)
    assert (
        same_cluster_pairs(lo.labels, cores)
        <= same_cluster_pairs(labels, cores)
        <= same_cluster_pairs(hi.labels, cores)
    )
    assert np.all(labels[cores] >= 0)


@given(points_2d, eps_values, min_pts_values)
@settings(max_examples=40, deadline=None)
def test_exact_equals_brute_force(points, eps, min_pts):
    """Exact solver == original DBSCAN on arbitrary (degenerate,
    duplicated, collinear) inputs."""
    check_exact(points, eps, min_pts)


@given(points_2d, eps_values, min_pts_values, st.sampled_from([0.3, 0.5, 1.0, 2.0]))
@settings(max_examples=30, deadline=None)
def test_approx_sandwich_property(points, eps, min_pts, rho):
    """Theorem 2 / the Gan--Tao sandwich on arbitrary inputs."""
    check_sandwich(ApproxMetricDBSCAN, points, eps, min_pts, rho)


@given(points_2d, eps_values, min_pts_values)
@settings(max_examples=20, deadline=None)
def test_streaming_sandwich_property(points, eps, min_pts):
    """Algorithm 3 output is also a valid ρ-approximate solution."""
    check_sandwich(StreamingApproxDBSCAN, points, eps, min_pts, 0.5)


@given(clustered())
@settings(max_examples=40, deadline=None)
def test_exact_equals_brute_force_clustered(case):
    check_exact(*case)


@given(clustered(), st.sampled_from([0.3, 0.5, 1.0, 2.0]))
@settings(max_examples=30, deadline=None)
def test_approx_sandwich_clustered(case, rho):
    check_sandwich(ApproxMetricDBSCAN, *case, rho)


@given(clustered())
@settings(max_examples=20, deadline=None)
def test_streaming_sandwich_clustered(case):
    check_sandwich(StreamingApproxDBSCAN, *case, 0.5)


@given(points_2d, eps_values, min_pts_values)
@settings(max_examples=25, deadline=None)
def test_noise_monotone_in_min_pts(points, eps, min_pts):
    """Raising MinPts can only grow the noise set (on the same eps)."""
    ds = MetricDataset(np.asarray(points, dtype=np.float64))
    loose = MetricDBSCAN(eps, min_pts).fit(ds)
    strict = MetricDBSCAN(eps, min_pts + 2).fit(ds)
    assert np.all((loose.labels == -1) <= (strict.labels == -1))


@given(points_2d, eps_values, min_pts_values)
@settings(max_examples=25, deadline=None)
def test_core_monotone_in_eps(points, eps, min_pts):
    """Growing eps can only grow the core set."""
    ds = MetricDataset(np.asarray(points, dtype=np.float64))
    small = MetricDBSCAN(eps, min_pts).fit(ds)
    big = MetricDBSCAN(2.0 * eps, min_pts).fit(ds)
    assert np.all(small.core_mask <= big.core_mask)
