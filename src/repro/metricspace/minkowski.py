"""Minkowski family of metrics: general L^p, Manhattan (L1), Chebyshev (L∞).

All satisfy the triangle inequality for ``p >= 1``, so they are valid
inputs for every algorithm in :mod:`repro.core`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.metricspace.base import Metric


class MinkowskiMetric(Metric):
    """L^p distance for ``p >= 1``.

    Parameters
    ----------
    p:
        The order of the norm.  ``p < 1`` does not yield a metric and is
        rejected.
    """

    is_vector_metric = True

    def __init__(self, p: float = 2.0) -> None:
        p = float(p)
        if not np.isfinite(p) or p < 1.0:
            raise ValueError(f"Minkowski order p must be >= 1 and finite, got {p}")
        self.p = p

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
        return float(np.sum(diff**self.p) ** (1.0 / self.p))

    def distance_many(self, a: np.ndarray, batch: np.ndarray) -> np.ndarray:
        return self.reduced_distance_many(a, batch) ** (1.0 / self.p)

    def cross(self, queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return self.reduced_cross(queries, targets) ** (1.0 / self.p)

    def pair_distances(self, a_batch: np.ndarray, b_batch: np.ndarray) -> np.ndarray:
        return self.reduced_pair_distances(a_batch, b_batch) ** (1.0 / self.p)

    def reduced_pair_distances(
        self, a_batch: np.ndarray, b_batch: np.ndarray
    ) -> np.ndarray:
        a = np.atleast_2d(np.asarray(a_batch, dtype=np.float64))
        b = np.atleast_2d(np.asarray(b_batch, dtype=np.float64))
        return np.sum(np.abs(a - b) ** self.p, axis=1)

    # ------------------------------------------------------------------
    # Reduced space: the p-th power of the distance (monotone, no root)

    def reduce_threshold(self, threshold: float) -> float:
        try:
            return float(threshold) ** self.p
        except OverflowError:
            return math.inf

    def expand_reduced(self, values):
        return np.asarray(values, dtype=np.float64) ** (1.0 / self.p)

    def reduced_distance_many(self, a: np.ndarray, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch.reshape(1, -1)
        diff = np.abs(batch - np.asarray(a, dtype=np.float64))
        return np.sum(diff**self.p, axis=1)

    def reduced_cross(self, queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries.reshape(1, -1)
        out = np.empty((queries.shape[0], len(targets)), dtype=np.float64)
        if out.shape[1] == 0:
            return out
        for i in range(queries.shape[0]):
            out[i] = self.reduced_distance_many(queries[i], targets)
        return out

    def __repr__(self) -> str:
        return f"MinkowskiMetric(p={self.p})"


class ManhattanMetric(Metric):
    """L1 (city-block) distance."""

    is_vector_metric = True

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(
            np.sum(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)))
        )

    def distance_many(self, a: np.ndarray, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch.reshape(1, -1)
        return np.sum(np.abs(batch - np.asarray(a, dtype=np.float64)), axis=1)

    def pair_distances(self, a_batch: np.ndarray, b_batch: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(a_batch, dtype=np.float64))
        return np.sum(np.abs(a - np.asarray(b_batch, dtype=np.float64)), axis=1)


class ChebyshevMetric(Metric):
    """L∞ (maximum-coordinate) distance."""

    is_vector_metric = True

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(
            np.max(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)))
        )

    def distance_many(self, a: np.ndarray, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch.reshape(1, -1)
        return np.max(np.abs(batch - np.asarray(a, dtype=np.float64)), axis=1)

    def pair_distances(self, a_batch: np.ndarray, b_batch: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(a_batch, dtype=np.float64))
        return np.max(np.abs(a - np.asarray(b_batch, dtype=np.float64)), axis=1)
