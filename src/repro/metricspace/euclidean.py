"""Euclidean (L2) metric with vectorized batch and block kernels.

This is the workhorse metric for the paper's Euclidean experiments
(Moons, MNIST-like manifold data, ...).  ``t_dis = O(d)`` per evaluation.
The reduced distance is the *squared* distance, so threshold tests and
argmins inside the solvers skip the square root entirely.
"""

from __future__ import annotations

import numpy as np

from repro.metricspace.base import Metric
from repro.metricspace import precision
from repro.metricspace.precision import (
    F32_SAFE_MAX,
    RESCUE_DENSE_FRAC,
    band_halfwidth_factor,
    cascade_engaged,
)

#: Blocks with at most this many float64 temporaries take the exact
#: broadcast-difference path; larger blocks use the squared-norm (gram)
#: expansion, which is ~d-fold cheaper in memory traffic but can differ
#: from the difference formulation in the last few ulps (catastrophic
#: cancellation).  Small blocks are overhead-dominated anyway, so the
#: exact path costs nothing and keeps constructed boundary cases (e.g.
#: points at exactly ε) bit-compatible with ``distance_many``.
DIFF_KERNEL_MAX = 1 << 15


def _as_2d(batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == 1:
        batch = batch.reshape(1, -1)
    return batch


class EuclideanMetric(Metric):
    """Standard Euclidean distance between numpy vectors."""

    is_vector_metric = True

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
        return float(np.sqrt(np.dot(diff, diff)))

    def distance_many(self, a: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """Vectorized distances from ``a`` to each row of ``batch``."""
        return np.sqrt(self.reduced_distance_many(a, batch))

    def cross(self, queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Blocked many-to-many kernel via the squared-norm expansion."""
        d2 = self.reduced_cross(queries, targets)
        np.sqrt(d2, out=d2)
        return d2

    def pair_distances(self, a_batch: np.ndarray, b_batch: np.ndarray) -> np.ndarray:
        return np.sqrt(self.reduced_pair_distances(a_batch, b_batch))

    # ------------------------------------------------------------------
    # Reduced space: squared distances (monotone, no sqrt)

    def reduce_threshold(self, threshold: float) -> float:
        return threshold * threshold

    def reduce_thresholds(self, thresholds: np.ndarray) -> np.ndarray:
        thresholds = np.asarray(thresholds, dtype=np.float64)
        return thresholds * thresholds

    def expand_reduced(self, values):
        return np.sqrt(values)

    def reduced_distance_many(self, a: np.ndarray, batch: np.ndarray) -> np.ndarray:
        batch = _as_2d(batch)
        diff = batch - np.asarray(a, dtype=np.float64)
        return np.einsum("ij,ij->i", diff, diff)

    def reduced_cross(self, queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """``||x-y||^2 = ||x||^2 + ||y||^2 - 2 x·y`` with in-place
        accumulation (one ``(nq, nt)`` allocation), clamped at zero to
        absorb floating-point jitter."""
        queries = _as_2d(queries)
        targets = _as_2d(targets)
        if queries.shape[0] == 0 or targets.shape[0] == 0:
            return np.empty((queries.shape[0], targets.shape[0]), dtype=np.float64)
        if queries.shape[0] * targets.shape[0] * queries.shape[1] <= DIFF_KERNEL_MAX:
            diff = queries[:, None, :] - targets[None, :, :]
            return np.einsum("ijk,ijk->ij", diff, diff)
        d2 = queries @ targets.T
        d2 *= -2.0
        d2 += np.einsum("ij,ij->i", queries, queries)[:, None]
        d2 += np.einsum("ij,ij->i", targets, targets)[None, :]
        np.maximum(d2, 0.0, out=d2)
        return d2

    def reduced_pair_distances(
        self, a_batch: np.ndarray, b_batch: np.ndarray
    ) -> np.ndarray:
        diff = _as_2d(a_batch) - _as_2d(b_batch)
        return np.einsum("ij,ij->i", diff, diff)

    def cross_certified(
        self, queries: np.ndarray, targets: np.ndarray, threshold: float
    ) -> np.ndarray:
        """Mixed-precision certified block test ``d(q, t) <= threshold``.

        One float32 sgemm plus float64 norm accumulation produces the
        squared distances; decisions further than the rigorous rounding
        band ``B(i,j) = SAFETY·γ₃₂(d+8)·(||q_i||² + ||t_j||² + t²)``
        from the threshold are certified, the in-band pairs are rescued
        with the float64 difference kernel (see
        :mod:`repro.metricspace.precision`).  Blocks the policy leaves
        in float64, and operands too large for float32, take the plain
        reduced comparison.
        """
        queries = _as_2d(queries)
        targets = _as_2d(targets)
        nq, nt = queries.shape[0], targets.shape[0]
        thr2 = float(threshold) * float(threshold)
        if not cascade_engaged(nq * nt):
            precision.stats.n_f64_blocks += 1
            return self.reduced_cross(queries, targets) <= thr2
        nx2 = np.einsum("ij,ij->i", queries, queries)
        ny2 = np.einsum("ij,ij->i", targets, targets)
        if (
            float(nx2.max()) > F32_SAFE_MAX
            or float(ny2.max()) > F32_SAFE_MAX
            or thr2 > F32_SAFE_MAX
        ):
            precision.stats.n_f64_blocks += 1
            return self.reduced_cross(queries, targets) <= thr2
        factor = band_halfwidth_factor(queries.shape[1])
        precision.stats.n_f32_blocks += 1
        q32 = queries.astype(np.float32)
        t32 = targets.astype(np.float32)
        d2 = q32 @ t32.T
        d2 *= np.float32(-2.0)
        d2 += nx2.astype(np.float32)[:, None]
        d2 += ny2.astype(np.float32)[None, :]
        passed = d2 <= np.float32(thr2)
        # Band test |d2 - thr2| <= F·(nx2 + ny2 + thr2) rearranged into
        # in-place float32 row/column subtractions so no (nq, nt)
        # float64 temporary is ever materialized; the float32 rounding
        # of the rearrangement is absorbed by the SAFETY margin of the
        # band factor (which only needs ~half its width).
        d2 -= np.float32(thr2)
        np.abs(d2, out=d2)
        d2 -= (factor * nx2).astype(np.float32)[:, None]
        d2 -= (factor * (ny2 + thr2)).astype(np.float32)[None, :]
        uncertain = d2 <= np.float32(0.0)
        n_band = int(np.count_nonzero(uncertain))
        precision.stats.n_certified += d2.size - n_band
        precision.stats.n_rescued += n_band
        if n_band:
            if n_band > RESCUE_DENSE_FRAC * d2.size:
                # Dense band (tight threshold relative to the norms —
                # e.g. 2r̄ refinement queries on far-from-origin data):
                # one float64 block kernel beats a per-pair gather.
                return self.reduced_cross(queries, targets) <= thr2
            rows, cols = np.nonzero(uncertain)
            exact = self.reduced_pair_distances(queries[rows], targets[cols])
            passed[rows, cols] = exact <= thr2
        return passed

    def pairwise(self, batch: np.ndarray) -> np.ndarray:
        """Pairwise matrix via :meth:`reduced_cross` with an exact-zero
        diagonal."""
        batch = _as_2d(batch)
        d2 = self.reduced_cross(batch, batch)
        np.fill_diagonal(d2, 0.0)
        np.sqrt(d2, out=d2)
        return d2
