"""DBStream (Hahsler & Bolaños, TKDE 2016) — shared-density streaming
clustering.

Online phase: micro-clusters (MCs) with exponentially decaying weights.
Each arriving point updates every MC within radius ``r`` (weight +1 and
a Gaussian-neighborhood pull of the center toward the point) and
accumulates *shared density* for every pair of MCs it simultaneously
touches; a point hitting no MC opens a new one.  Weak MCs and stale
shared-density entries are pruned periodically.

Offline phase: two MCs are connected when their shared density exceeds
the intersection factor ``alpha`` times their mean weight; macro
clusters are the connected components.  Points are labeled by their
nearest MC within ``r`` (noise otherwise).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.result import ClusteringResult
from repro.metricspace.dataset import MetricDataset
from repro.metricspace.counting import unwrap
from repro.metricspace.euclidean import EuclideanMetric
from repro.utils.timer import TimingBreakdown
from repro.utils.unionfind import UnionFind


class DBStream:
    """DBStream micro-cluster streaming clustering (Euclidean).

    Parameters
    ----------
    radius:
        Micro-cluster radius ``r``.
    decay:
        Decay rate λ (per point); weights scale by ``2^(-λ)`` each
        arrival.
    alpha:
        Intersection factor for the offline shared-density merge.
    w_min:
        Minimum weight an MC needs to survive cleanup and participate in
        the offline phase.
    gap:
        Cleanup period (in points).
    """

    def __init__(
        self,
        radius: float,
        decay: float = 1e-3,
        alpha: float = 0.3,
        w_min: float = 2.0,
        gap: int = 1000,
    ) -> None:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if decay < 0:
            raise ValueError(f"decay must be non-negative, got {decay}")
        self.radius = float(radius)
        self.decay = float(decay)
        self.alpha = float(alpha)
        self.w_min = float(w_min)
        self.gap = int(gap)
        self._centers: List[np.ndarray] = []
        self._weights: List[float] = []
        self._last_update: List[int] = []
        self._shared: Dict[Tuple[int, int], float] = {}
        self._shared_last: Dict[Tuple[int, int], int] = {}
        self._t = 0

    # ------------------------------------------------------------------

    def partial_fit(self, point: np.ndarray) -> None:
        """Process one stream point (online phase)."""
        point = np.asarray(point, dtype=np.float64).ravel()
        self._t += 1
        t = self._t
        hits: List[int] = []
        if self._centers:
            centers = np.asarray(self._centers)
            dists = np.linalg.norm(centers - point, axis=1)
            hits = np.flatnonzero(dists <= self.radius).tolist()
        if not hits:
            self._centers.append(point.copy())
            self._weights.append(1.0)
            self._last_update.append(t)
        else:
            for j in hits:
                fade = 2.0 ** (-self.decay * (t - self._last_update[j]))
                self._weights[j] = self._weights[j] * fade + 1.0
                self._last_update[j] = t
                # Gaussian neighborhood pull of the center toward the point.
                d = float(np.linalg.norm(self._centers[j] - point))
                pull = np.exp(-((d / (self.radius / 3.0)) ** 2) / 2.0)
                self._centers[j] = self._centers[j] + pull * (
                    point - self._centers[j]
                ) * 0.5
            for a_pos in range(len(hits)):
                for b_pos in range(a_pos + 1, len(hits)):
                    key = (min(hits[a_pos], hits[b_pos]), max(hits[a_pos], hits[b_pos]))
                    fade = 2.0 ** (-self.decay * (t - self._shared_last.get(key, t)))
                    self._shared[key] = self._shared.get(key, 0.0) * fade + 1.0
                    self._shared_last[key] = t
        if self._t % self.gap == 0:
            self._cleanup()

    def _cleanup(self) -> None:
        """Drop weak micro-clusters and remap the shared-density graph."""
        t = self._t
        keep = []
        for j in range(len(self._centers)):
            fade = 2.0 ** (-self.decay * (t - self._last_update[j]))
            if self._weights[j] * fade >= self.w_min * 0.25:
                keep.append(j)
        remap = {old: new for new, old in enumerate(keep)}
        self._centers = [self._centers[j] for j in keep]
        self._weights = [self._weights[j] for j in keep]
        self._last_update = [self._last_update[j] for j in keep]
        new_shared: Dict[Tuple[int, int], float] = {}
        new_shared_last: Dict[Tuple[int, int], int] = {}
        for (a, b), value in self._shared.items():
            if a in remap and b in remap:
                key = (remap[a], remap[b])
                new_shared[key] = value
                new_shared_last[key] = self._shared_last[(a, b)]
        self._shared = new_shared
        self._shared_last = new_shared_last

    # ------------------------------------------------------------------

    def macro_clusters(self) -> np.ndarray:
        """Offline phase: macro-cluster id per micro-cluster (-1 weak)."""
        m = len(self._centers)
        t = self._t
        weights = np.array(
            [
                self._weights[j] * 2.0 ** (-self.decay * (t - self._last_update[j]))
                for j in range(m)
            ]
        )
        strong = weights >= self.w_min
        uf = UnionFind(m)
        for (a, b), s in self._shared.items():
            if not (strong[a] and strong[b]):
                continue
            fade = 2.0 ** (-self.decay * (t - self._shared_last[(a, b)]))
            shared = s * fade
            if shared / max((weights[a] + weights[b]) / 2.0, 1e-12) >= self.alpha:
                uf.union(a, b)
        macro = np.full(m, -1, dtype=np.int64)
        strong_idx = np.flatnonzero(strong)
        comp = uf.component_labels(strong_idx.tolist())
        for j in strong_idx:
            macro[j] = comp[int(j)]
        return macro

    def _label(self, point: np.ndarray, macro: np.ndarray) -> int:
        if not self._centers:
            return -1
        centers = np.asarray(self._centers)
        dists = np.linalg.norm(centers - np.asarray(point, dtype=np.float64), axis=1)
        j = int(np.argmin(dists))
        if float(dists[j]) <= self.radius and macro[j] >= 0:
            return int(macro[j])
        return -1

    def fit(self, dataset: MetricDataset) -> ClusteringResult:
        """Online pass + offline merge + labeling pass."""
        if not isinstance(unwrap(dataset.metric), EuclideanMetric):
            raise ValueError("DBStream requires a EuclideanMetric dataset")

        def factory():
            return iter(np.asarray(dataset.points, dtype=np.float64))

        return self.fit_stream(factory)

    def fit_stream(self, stream_factory) -> ClusteringResult:
        """Streaming interface (two passes: learn, then label)."""
        timings = TimingBreakdown()
        with timings.phase("online"):
            for payload in stream_factory():
                self.partial_fit(payload)
        with timings.phase("offline"):
            macro = self.macro_clusters()
        with timings.phase("assign"):
            labels = [self._label(p, macro) for p in stream_factory()]
        return ClusteringResult(
            labels=np.asarray(labels, dtype=np.int64),
            core_mask=None,
            timings=timings,
            stats={
                "algorithm": "dbstream",
                "radius": self.radius,
                "n_micro": len(self._centers),
                "memory_points": len(self._centers),
            },
        )
