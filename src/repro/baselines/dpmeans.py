"""DP-means (Kulis & Jordan, 2012) — nonparametric k-means.

A hard-assignment limit of the Dirichlet-process mixture: points farther
than the penalty ``λ`` from every current centroid spawn a new cluster.
The paper (Section 5.4) sets ``λ`` to the maximum distance realized by a
k-center initialization, which :func:`lambda_from_kcenter` reproduces.

Euclidean only (centroid averaging), like the original.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.result import ClusteringResult
from repro.kcenter import gonzalez_kcenter
from repro.metricspace.dataset import MetricDataset
from repro.metricspace.counting import unwrap
from repro.metricspace.euclidean import EuclideanMetric
from repro.utils.rng import SeedLike
from repro.utils.timer import TimingBreakdown


def lambda_from_kcenter(
    dataset: MetricDataset, k: int, seed: SeedLike = 0
) -> float:
    """The paper's λ heuristic: run a greedy k-center initialization with
    ``k`` centers and return the realized maximum covering distance."""
    return gonzalez_kcenter(dataset, k, seed=seed).radius


class DPMeans:
    """DP-means clustering.

    Parameters
    ----------
    lam:
        Cluster penalty λ; a new cluster opens when a point is farther
        than λ from every centroid.  If ``None``, it is derived via
        :func:`lambda_from_kcenter` with ``kcenter_k`` centers.
    kcenter_k:
        Number of k-center rounds for the λ heuristic.
    max_iter:
        Outer iteration cap.
    """

    def __init__(
        self,
        lam: Optional[float] = None,
        kcenter_k: int = 8,
        max_iter: int = 50,
        seed: SeedLike = 0,
    ) -> None:
        if lam is not None and lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.lam = lam
        self.kcenter_k = int(kcenter_k)
        self.max_iter = int(max_iter)
        self.seed = seed

    def fit(self, dataset: MetricDataset) -> ClusteringResult:
        """Cluster ``dataset`` (Euclidean)."""
        if not isinstance(unwrap(dataset.metric), EuclideanMetric):
            raise ValueError("DPMeans requires a EuclideanMetric dataset")
        timings = TimingBreakdown()
        points = np.asarray(dataset.points, dtype=np.float64)
        n = points.shape[0]
        lam = self.lam
        if lam is None:
            with timings.phase("lambda_heuristic"):
                lam = lambda_from_kcenter(dataset, self.kcenter_k, seed=self.seed)

        with timings.phase("cluster"):
            centers = points.mean(axis=0, keepdims=True)
            labels = np.zeros(n, dtype=np.int64)
            for _ in range(self.max_iter):
                changed = False
                for i in range(n):
                    dists = np.linalg.norm(centers - points[i], axis=1)
                    j = int(np.argmin(dists))
                    if float(dists[j]) > lam:
                        centers = np.vstack([centers, points[i][None, :]])
                        j = centers.shape[0] - 1
                        changed = True
                    if labels[i] != j:
                        labels[i] = j
                        changed = True
                # Recompute means; drop empty clusters.
                kept = []
                new_centers = []
                for j in range(centers.shape[0]):
                    mask = labels == j
                    if np.any(mask):
                        kept.append(j)
                        new_centers.append(points[mask].mean(axis=0))
                remap = {old: new for new, old in enumerate(kept)}
                labels = np.array([remap[int(l)] for l in labels], dtype=np.int64)
                centers = np.asarray(new_centers)
                if not changed:
                    break

        return ClusteringResult(
            labels=labels,
            core_mask=None,
            timings=timings,
            stats={
                "algorithm": "dp-means",
                "lambda": float(lam),
                "n_clusters_found": int(centers.shape[0]),
            },
        )
