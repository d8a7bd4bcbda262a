"""Tests for the multi-cluster border membership extension
(Definition 1's footnote: a border point may belong to several
clusters)."""

import numpy as np
import pytest

from repro import MetricDBSCAN, MetricDataset


@pytest.fixture
def shared_border_instance():
    """Two tight 1-D clusters with one border point reachable from core
    points of *both* (but itself not core), so Definition 1 assigns it
    to two clusters."""
    cluster_a = np.linspace(0.0, 0.1, 6)
    cluster_b = np.linspace(2.35, 2.45, 6)
    border = np.array([1.25])
    pts = np.concatenate([cluster_a, border, cluster_b]).reshape(-1, 1)
    return MetricDataset(pts), 6  # border point index

def test_border_belongs_to_both_clusters(shared_border_instance):
    ds, border_idx = shared_border_instance
    result = MetricDBSCAN(
        1.15, 6, collect_border_memberships=True
    ).fit(ds)
    assert result.n_clusters == 2
    assert not result.core_mask[border_idx]
    assert result.labels[border_idx] >= 0  # border, not noise
    memberships = result.stats["border_memberships"]
    assert memberships[border_idx] == [0, 1]
    # The labels array keeps the nearest core's cluster.
    assert result.labels[border_idx] in memberships[border_idx]


def test_memberships_only_for_borders(shared_border_instance):
    ds, border_idx = shared_border_instance
    result = MetricDBSCAN(
        1.15, 6, collect_border_memberships=True
    ).fit(ds)
    assert set(result.stats["border_memberships"]) == {border_idx}


def test_disabled_by_default(shared_border_instance):
    ds, _ = shared_border_instance
    result = MetricDBSCAN(1.15, 6).fit(ds)
    assert "border_memberships" not in result.stats


def test_single_cluster_border(two_blobs):
    """Ordinary borders report exactly one cluster."""
    ds, _ = two_blobs
    result = MetricDBSCAN(1.0, 20, collect_border_memberships=True).fit(ds)
    for point, clusters in result.stats["border_memberships"].items():
        assert len(clusters) >= 1
        assert result.labels[point] in clusters


@pytest.mark.parametrize("index", ["brute", "grid", "covertree"])
@pytest.mark.parametrize(
    "coords, border_idx, tie_winner",
    [
        # The border point 4 is exactly 2 (< ε) from core 2 of the left
        # cluster and core 6 of the right one; the first minimum in
        # candidate order wins the tie, which the point order decides.
        ([-1, 0, 1, 2, 4, 6, 7, 8, 9], 4, 3),
        ([6, 7, 8, 9, 4, -1, 0, 1, 2], 4, 0),
    ],
    ids=["left-first", "right-first"],
)
def test_lattice_border_equidistant_from_two_clusters(
    coords, border_idx, tie_winner, index
):
    ds = MetricDataset(np.asarray(coords, dtype=np.float64).reshape(-1, 1))
    result = MetricDBSCAN(
        2.5, 4, collect_border_memberships=True, index=index
    ).fit(ds)
    assert result.n_clusters == 2
    assert not result.core_mask[border_idx]
    assert result.core_mask[tie_winner]
    assert result.labels[border_idx] == result.labels[tie_winner]
    assert result.stats["border_memberships"][border_idx] == [0, 1]
