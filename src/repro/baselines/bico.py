"""BICO (Fichtenberger et al., ESA 2013) — BIRCH meets coresets.

BICO maintains a bounded set of *clustering features* (CFs: count,
linear sum, sum of squared norms) whose centers form a k-means coreset
of the stream; when the structure overflows, the radius threshold
doubles and the features are re-inserted into a coarser structure.  The
offline step runs weighted k-means(++) on the coreset and labels the
stream by its nearest centroid.

This reproduction keeps the CF/threshold-doubling/rebuild mechanics of
BICO but flattens the reference tree to a single level (each CF absorbs
points within the current threshold of its reference point).  The
flattening preserves the coreset-of-a-stream behaviour the paper's
comparisons exercise — bounded memory, one online pass, k-means offline
— and is documented as a deviation in DESIGN.md.

Note BICO *requires the number of clusters k* — the disadvantage the
paper calls out in Section 5.4.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.kmeans import kmeans
from repro.core.result import ClusteringResult
from repro.metricspace.dataset import MetricDataset
from repro.metricspace.counting import unwrap
from repro.metricspace.euclidean import EuclideanMetric
from repro.utils.rng import SeedLike
from repro.utils.timer import TimingBreakdown


class _ClusteringFeature:
    """BIRCH-style clustering feature."""

    __slots__ = ("reference", "count", "linear_sum", "square_sum")

    def __init__(self, point: np.ndarray) -> None:
        self.reference = point.copy()
        self.count = 1
        self.linear_sum = point.copy()
        self.square_sum = float(np.dot(point, point))

    def absorb(self, point: np.ndarray) -> None:
        self.count += 1
        self.linear_sum += point
        self.square_sum += float(np.dot(point, point))

    def merge(self, other: "_ClusteringFeature") -> None:
        self.count += other.count
        self.linear_sum += other.linear_sum
        self.square_sum += other.square_sum

    @property
    def center(self) -> np.ndarray:
        return self.linear_sum / self.count


class BICO:
    """Streaming k-means via a BICO-style coreset.

    Parameters
    ----------
    n_clusters:
        k for the offline k-means (must be supplied — BICO's built-in
        limitation).
    coreset_size:
        Maximum number of clustering features kept online.
    initial_threshold:
        Starting CF radius; doubles on overflow.  Estimated from the
        first points when ``None``.
    seed:
        RNG seed for the offline k-means++.
    """

    def __init__(
        self,
        n_clusters: int,
        coreset_size: int = 200,
        initial_threshold: Optional[float] = None,
        seed: SeedLike = 0,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if coreset_size < 2:
            raise ValueError(f"coreset_size must be >= 2, got {coreset_size}")
        self.n_clusters = int(n_clusters)
        self.coreset_size = int(coreset_size)
        self.initial_threshold = initial_threshold
        self.seed = seed
        self._features: List[_ClusteringFeature] = []
        self._threshold: Optional[float] = (
            float(initial_threshold) if initial_threshold else None
        )
        self._n_seen = 0
        self._rebuilds = 0

    # ------------------------------------------------------------------
    # Online phase

    def partial_fit(self, point: np.ndarray) -> None:
        """Feed one stream point into the coreset structure."""
        point = np.asarray(point, dtype=np.float64).ravel()
        self._n_seen += 1
        if self._threshold is None:
            if self._features:
                first = self._features[0].reference
                gap = float(np.linalg.norm(point - first))
                self._threshold = max(gap / self.coreset_size, 1e-12)
            else:
                self._features.append(_ClusteringFeature(point))
                return
        self._insert(point)
        while len(self._features) > self.coreset_size:
            self._threshold *= 2.0
            self._rebuild()
            self._rebuilds += 1

    def _insert(self, point: np.ndarray) -> None:
        if self._features:
            refs = np.asarray([f.reference for f in self._features])
            dists = np.linalg.norm(refs - point, axis=1)
            j = int(np.argmin(dists))
            if float(dists[j]) <= self._threshold:
                self._features[j].absorb(point)
                return
        self._features.append(_ClusteringFeature(point))

    def _rebuild(self) -> None:
        """Re-insert features into a fresh structure at the doubled
        threshold, merging features that now fall together."""
        old = sorted(self._features, key=lambda f: -f.count)
        self._features = []
        for feat in old:
            merged = False
            if self._features:
                refs = np.asarray([f.reference for f in self._features])
                dists = np.linalg.norm(refs - feat.reference, axis=1)
                j = int(np.argmin(dists))
                if float(dists[j]) <= self._threshold:
                    self._features[j].merge(feat)
                    merged = True
            if not merged:
                self._features.append(feat)

    # ------------------------------------------------------------------
    # Offline phase

    def coreset(self) -> tuple:
        """The weighted coreset: ``(points, weights)`` arrays."""
        if not self._features:
            raise ValueError("BICO has seen no data")
        pts = np.asarray([f.center for f in self._features])
        wts = np.asarray([float(f.count) for f in self._features])
        return pts, wts

    def cluster_coreset(self):
        """Weighted k-means(++) over the coreset; returns KMeansResult."""
        pts, wts = self.coreset()
        return kmeans(pts, self.n_clusters, weights=wts, seed=self.seed)

    def fit(self, dataset: MetricDataset) -> ClusteringResult:
        """One online pass + offline k-means + one labeling pass."""
        if not isinstance(unwrap(dataset.metric), EuclideanMetric):
            raise ValueError("BICO requires a EuclideanMetric dataset")
        timings = TimingBreakdown()
        points = np.asarray(dataset.points, dtype=np.float64)

        with timings.phase("online"):
            for row in points:
                self.partial_fit(row)

        with timings.phase("offline_kmeans"):
            km = self.cluster_coreset()

        with timings.phase("assign"):
            centers = km.centers
            d2 = (
                np.sum(points**2, axis=1)[:, None]
                - 2.0 * points @ centers.T
                + np.sum(centers**2, axis=1)[None, :]
            )
            labels = np.argmin(d2, axis=1).astype(np.int64)

        return ClusteringResult(
            labels=labels,
            core_mask=None,
            timings=timings,
            stats={
                "algorithm": "bico",
                "n_clusters": self.n_clusters,
                "coreset_size": len(self._features),
                "threshold": float(self._threshold or 0.0),
                "rebuilds": self._rebuilds,
                "memory_points": len(self._features),
            },
        )

    def fit_stream(self, stream_factory) -> ClusteringResult:
        """Streaming interface compatible with
        :class:`~repro.core.streaming.StreamingApproxDBSCAN`:
        ``stream_factory()`` must be re-iterable (two passes)."""
        timings = TimingBreakdown()
        with timings.phase("online"):
            for payload in stream_factory():
                self.partial_fit(np.asarray(payload, dtype=np.float64))
        with timings.phase("offline_kmeans"):
            km = self.cluster_coreset()
        with timings.phase("assign"):
            out: List[int] = []
            centers = km.centers
            for payload in stream_factory():
                p = np.asarray(payload, dtype=np.float64).ravel()
                out.append(int(np.argmin(np.linalg.norm(centers - p, axis=1))))
        return ClusteringResult(
            labels=np.asarray(out, dtype=np.int64),
            core_mask=None,
            timings=timings,
            stats={
                "algorithm": "bico",
                "n_clusters": self.n_clusters,
                "coreset_size": len(self._features),
                "memory_points": len(self._features),
            },
        )
