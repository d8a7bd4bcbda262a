"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import collections
from typing import FrozenSet, Sequence, Set

import numpy as np
import pytest

from repro.core.result import ClusteringResult
from repro.metricspace import EditDistanceMetric, MetricDataset


def core_partition(labels: Sequence[int], mask: Sequence[bool]) -> Set[FrozenSet[int]]:
    """The partition induced on the masked (core) points, as a set of
    frozensets — the canonical object for comparing DBSCAN outputs,
    since core-point clustering is unique while border attribution is
    not (Definition 1 footnote)."""
    groups = collections.defaultdict(set)
    labels = np.asarray(labels)
    for i in np.flatnonzero(np.asarray(mask, dtype=bool)):
        groups[int(labels[i])].add(int(i))
    return {frozenset(g) for g in groups.values()}


def bfs_dbscan(dataset: MetricDataset, eps: float, min_pts: int) -> ClusteringResult:
    """The classic seed-list BFS DBSCAN (Ester et al., KDD 1996)
    scanning points in index order, with every region query read off
    brute-force ``dataset.cross_blocks`` and no index: the ground truth
    the solvers are tested against.

    :class:`~repro.baselines.OriginalDBSCAN` must match it label for
    label, borders included: the BFS grows one cluster at a time, in
    order of each cluster's smallest core point, and a border point
    keeps the first cluster that reaches it.
    """
    n = dataset.n
    red_eps = dataset.metric.reduce_threshold(eps)
    region = [None] * n
    for chunk, block in dataset.cross_blocks(reduced=True):
        for row, point in enumerate(chunk):
            region[point] = np.flatnonzero(block[row] <= red_eps)
    labels = np.full(n, -1, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    visited = np.zeros(n, dtype=bool)
    next_cluster = 0
    for start in range(n):
        if visited[start]:
            continue
        visited[start] = True
        if len(region[start]) < min_pts:
            continue  # noise for now; may become a border point later
        core_mask[start] = True
        labels[start] = next_cluster
        queue = collections.deque(region[start])
        while queue:
            p = queue.popleft()
            if labels[p] == -1:
                labels[p] = next_cluster
            if visited[p]:
                continue
            visited[p] = True
            if len(region[p]) >= min_pts:
                core_mask[p] = True
                queue.extend(region[p])
        next_cluster += 1
    return ClusteringResult(labels=labels, core_mask=core_mask)


def assert_labels_equivalent(a: Sequence[int], b: Sequence[int]) -> None:
    """Assert two labelings describe the same clustering up to
    cluster-id relabeling, with a diagnostic diff on failure."""
    from repro.evaluation import canonical_labels

    ca = canonical_labels(np.asarray(a))
    cb = canonical_labels(np.asarray(b))
    if np.array_equal(ca, cb):
        return
    diff = np.flatnonzero(ca != cb)
    raise AssertionError(
        f"labelings differ (not a relabeling) at {diff.size} points; "
        f"first disagreements at indices {diff[:10].tolist()}: "
        f"{ca[diff[:10]].tolist()} vs {cb[diff[:10]].tolist()}"
    )


def same_cluster_pairs(labels: Sequence[int], indices: Sequence[int]) -> Set:
    """Set of index pairs co-clustered (noise never co-clusters)."""
    labels = np.asarray(labels)
    out = set()
    idx = list(indices)
    for a_pos in range(len(idx)):
        for b_pos in range(a_pos + 1, len(idx)):
            a, b = idx[a_pos], idx[b_pos]
            if labels[a] >= 0 and labels[a] == labels[b]:
                out.add((min(a, b), max(a, b)))
    return out


@pytest.fixture
def two_blobs():
    """A small well-separated 2-cluster instance with one far outlier."""
    rng = np.random.default_rng(42)
    a = rng.normal(0.0, 0.2, size=(40, 2))
    b = rng.normal(6.0, 0.2, size=(40, 2))
    outlier = np.array([[50.0, 50.0]])
    points = np.vstack([a, b, outlier])
    return MetricDataset(points), np.concatenate(
        [np.zeros(40), np.ones(40), [-1]]
    ).astype(np.int64)


@pytest.fixture
def tiny_line():
    """Seven points on a line: two tight groups and one isolated point."""
    pts = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [5.2], [99.0]])
    return MetricDataset(pts)


@pytest.fixture
def text_dataset():
    """A tiny edit-distance dataset with two obvious string clusters."""
    strings = [
        "abcdefgh", "abcdefgx", "abcdefg", "abcdefghi",
        "zzzyyyxxx", "zzzyyyxx", "zzzyyyxxxq", "zzzyyyxxz",
        "qqqqqqqqqqqqqqqqqqqq",
    ]
    return MetricDataset(strings, EditDistanceMetric()), strings
