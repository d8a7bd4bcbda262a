"""evoStream (Carnein & Trautmann, Big Data Research 2018).

Online phase: decayed micro-clusters (nearest-MC absorption within a
fixed radius, as in the DBSTREAM family).  Offline phase: an
*evolutionary algorithm* refines the macro-clustering during idle time —
a population of candidate center sets evolves by tournament selection,
uniform crossover, and Gaussian mutation, with fitness the (weighted)
k-means objective over the micro-clusters.  Points are labeled via their
nearest micro-cluster's macro assignment.

Like BICO, evoStream needs the number of macro clusters ``k`` up front.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.result import ClusteringResult
from repro.metricspace.dataset import MetricDataset
from repro.metricspace.counting import unwrap
from repro.metricspace.euclidean import EuclideanMetric
from repro.utils.rng import SeedLike, check_random_state
from repro.utils.timer import TimingBreakdown


class EvoStream:
    """evoStream: micro-clusters + evolutionary macro-clustering.

    Parameters
    ----------
    n_clusters:
        Number of macro clusters ``k``.
    radius:
        Micro-cluster absorption radius.
    decay:
        Per-arrival exponential weight decay rate.
    population:
        Evolutionary population size.
    generations:
        Number of generations in the offline refinement (stands in for
        the original's "idle time" budget).
    w_min:
        Minimum decayed weight for a micro-cluster to participate in the
        offline phase.
    seed:
        RNG seed for all evolutionary randomness.
    """

    def __init__(
        self,
        n_clusters: int,
        radius: float,
        decay: float = 1e-3,
        population: int = 20,
        generations: int = 200,
        w_min: float = 1.0,
        seed: SeedLike = 0,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.n_clusters = int(n_clusters)
        self.radius = float(radius)
        self.decay = float(decay)
        self.population = int(population)
        self.generations = int(generations)
        self.w_min = float(w_min)
        self.seed = seed
        self._centers: List[np.ndarray] = []
        self._weights: List[float] = []
        self._last_update: List[int] = []
        self._t = 0

    # ------------------------------------------------------------------
    # Online phase

    def partial_fit(self, point: np.ndarray) -> None:
        """Absorb one stream point into the micro-cluster set."""
        point = np.asarray(point, dtype=np.float64).ravel()
        self._t += 1
        if self._centers:
            centers = np.asarray(self._centers)
            dists = np.linalg.norm(centers - point, axis=1)
            j = int(np.argmin(dists))
            if float(dists[j]) <= self.radius:
                fade = 2.0 ** (-self.decay * (self._t - self._last_update[j]))
                w = self._weights[j] * fade
                self._centers[j] = (self._centers[j] * w + point) / (w + 1.0)
                self._weights[j] = w + 1.0
                self._last_update[j] = self._t
                return
        self._centers.append(point.copy())
        self._weights.append(1.0)
        self._last_update.append(self._t)

    # ------------------------------------------------------------------
    # Offline phase

    def _strong_micro(self):
        centers = np.asarray(self._centers)
        weights = np.array(
            [
                self._weights[j]
                * 2.0 ** (-self.decay * (self._t - self._last_update[j]))
                for j in range(len(self._centers))
            ]
        )
        strong = weights >= self.w_min
        if not np.any(strong):
            strong = weights > 0
        return centers[strong], weights[strong], np.flatnonzero(strong)

    @staticmethod
    def _fitness(candidate: np.ndarray, mc: np.ndarray, w: np.ndarray) -> float:
        d2 = (
            np.sum(mc**2, axis=1)[:, None]
            - 2.0 * mc @ candidate.T
            + np.sum(candidate**2, axis=1)[None, :]
        )
        ssq = float(np.sum(w * np.maximum(d2.min(axis=1), 0.0)))
        return 1.0 / (1.0 + ssq)

    def evolve(self):
        """Run the evolutionary macro-clustering; returns macro centers."""
        mc, w, _ = self._strong_micro()
        k = min(self.n_clusters, mc.shape[0])
        rng = check_random_state(self.seed)
        spread = float(np.mean(np.std(mc, axis=0))) + 1e-12
        pop = [
            mc[rng.choice(mc.shape[0], size=k, replace=False)]
            for _ in range(self.population)
        ]
        fit = np.array([self._fitness(c, mc, w) for c in pop])
        for _ in range(self.generations):
            # Tournament selection of two parents.
            a, b = rng.integers(self.population, size=2)
            c, d = rng.integers(self.population, size=2)
            p1 = pop[a] if fit[a] >= fit[b] else pop[b]
            p2 = pop[c] if fit[c] >= fit[d] else pop[d]
            # Uniform crossover + Gaussian mutation.
            mask = rng.random(k) < 0.5
            child = np.where(mask[:, None], p1, p2).copy()
            mutate = rng.random(k) < 0.25
            child[mutate] += rng.normal(0.0, 0.05 * spread, size=(int(mutate.sum()), mc.shape[1]))
            child_fit = self._fitness(child, mc, w)
            worst = int(np.argmin(fit))
            if child_fit > fit[worst]:
                pop[worst] = child
                fit[worst] = child_fit
        return pop[int(np.argmax(fit))]

    # ------------------------------------------------------------------

    def fit(self, dataset: MetricDataset) -> ClusteringResult:
        """Online pass + evolutionary offline phase + labeling pass."""
        if not isinstance(unwrap(dataset.metric), EuclideanMetric):
            raise ValueError("EvoStream requires a EuclideanMetric dataset")

        def factory():
            return iter(np.asarray(dataset.points, dtype=np.float64))

        return self.fit_stream(factory)

    def fit_stream(self, stream_factory) -> ClusteringResult:
        """Streaming interface (two passes: learn, then label)."""
        timings = TimingBreakdown()
        with timings.phase("online"):
            for payload in stream_factory():
                self.partial_fit(payload)
        with timings.phase("evolve"):
            macro_centers = self.evolve()
        with timings.phase("assign"):
            mc_centers = np.asarray(self._centers)
            # Macro assignment of each micro-cluster, then point -> MC.
            d2 = (
                np.sum(mc_centers**2, axis=1)[:, None]
                - 2.0 * mc_centers @ macro_centers.T
                + np.sum(macro_centers**2, axis=1)[None, :]
            )
            mc_macro = np.argmin(d2, axis=1)
            labels = []
            for payload in stream_factory():
                p = np.asarray(payload, dtype=np.float64).ravel()
                dists = np.linalg.norm(mc_centers - p, axis=1)
                j = int(np.argmin(dists))
                if float(dists[j]) <= 2.0 * self.radius:
                    labels.append(int(mc_macro[j]))
                else:
                    labels.append(-1)
        return ClusteringResult(
            labels=np.asarray(labels, dtype=np.int64),
            core_mask=None,
            timings=timings,
            stats={
                "algorithm": "evostream",
                "n_micro": len(self._centers),
                "n_clusters": self.n_clusters,
                "memory_points": len(self._centers),
            },
        )
