"""Angular (cosine-based) metric.

The common "cosine distance" ``1 - cos(a, b)`` violates the triangle
inequality, which the paper's algorithms rely on (Lemma 2 is a pure
triangle-inequality argument).  We therefore expose the *angular*
distance ``arccos(cos(a, b))`` in radians, which is a true metric on the
unit sphere — appropriate for GloVe-style embedding workloads.

The reduced distance is the *negated cosine similarity*: ``arccos`` is
strictly decreasing, so ``-cos`` is strictly increasing with the angular
distance and threshold tests / argmins need no ``arccos`` at all.  The
block kernel is a single normalized matrix product.
"""

from __future__ import annotations

import numpy as np

from repro.metricspace.base import Metric
from repro.metricspace import precision
from repro.metricspace.precision import band_halfwidth_factor, cascade_engaged


def _pow2_scaled(arr: np.ndarray) -> np.ndarray:
    """``arr`` with each row (last axis) multiplied by the power of two
    that brings its max-abs entry into ``[0.5, 1)``.

    Only exponents change, so the scaling is exact, and the squares
    inside a norm then neither overflow nor underflow: a row normalizes
    to the same unit vector at any finite magnitude, bit for bit.
    """
    _, exponent = np.frexp(np.max(np.abs(arr), axis=-1, keepdims=True))
    return np.ldexp(arr, -exponent)


def _safe_unit(v: np.ndarray) -> np.ndarray:
    v = _pow2_scaled(np.asarray(v, dtype=np.float64))
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("angular distance is undefined for the zero vector")
    return v / norm


def unit_rows(batch: np.ndarray) -> np.ndarray:
    """The rows of ``batch`` (a 1-d input is one row) scaled to unit
    Euclidean norm; zero rows are rejected."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == 1:
        batch = batch.reshape(1, -1)
    batch = _pow2_scaled(batch)
    norms = np.linalg.norm(batch, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("angular distance is undefined for the zero vector")
    return batch / norms[:, None]


class CosineMetric(Metric):
    """Angular distance in radians: ``d(a,b) = arccos(<a,b>/|a||b|)``.

    Range is ``[0, π]``.  Zero vectors are rejected.
    """

    is_vector_metric = True

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        ua, ub = _safe_unit(a), _safe_unit(b)
        cos = float(np.clip(np.dot(ua, ub), -1.0, 1.0))
        return float(np.arccos(cos))

    def distance_many(self, a: np.ndarray, batch: np.ndarray) -> np.ndarray:
        return np.arccos(-self.reduced_distance_many(a, batch))

    def cross(self, queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Normalized dot-product block kernel."""
        neg_cos = self.reduced_cross(queries, targets)
        neg_cos *= -1.0
        return np.arccos(neg_cos, out=neg_cos)

    # ------------------------------------------------------------------
    # Reduced space: negated cosine similarity (monotone, no arccos)

    def reduce_threshold(self, threshold: float) -> float:
        return -float(np.cos(np.clip(threshold, 0.0, np.pi)))

    def expand_reduced(self, values):
        return np.arccos(np.clip(-np.asarray(values, dtype=np.float64), -1.0, 1.0))

    def reduced_distance_many(self, a: np.ndarray, batch: np.ndarray) -> np.ndarray:
        ua = _safe_unit(a)
        cos = np.clip(unit_rows(batch) @ ua, -1.0, 1.0)
        return -cos

    def pair_distances(self, a_batch: np.ndarray, b_batch: np.ndarray) -> np.ndarray:
        neg_cos = self.reduced_pair_distances(a_batch, b_batch)
        neg_cos *= -1.0
        return np.arccos(neg_cos, out=neg_cos)

    def reduced_pair_distances(
        self, a_batch: np.ndarray, b_batch: np.ndarray
    ) -> np.ndarray:
        cos = np.einsum(
            "ij,ij->i", unit_rows(a_batch), unit_rows(b_batch)
        )
        np.clip(cos, -1.0, 1.0, out=cos)
        cos *= -1.0
        return cos

    def reduced_cross(self, queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
        uq = unit_rows(queries)
        ut = unit_rows(targets)
        if uq.shape[0] == 0 or ut.shape[0] == 0:
            return np.empty((uq.shape[0], ut.shape[0]), dtype=np.float64)
        cos = uq @ ut.T
        np.clip(cos, -1.0, 1.0, out=cos)
        cos *= -1.0
        return cos

    def cross_certified(
        self, queries: np.ndarray, targets: np.ndarray, threshold: float
    ) -> np.ndarray:
        """Mixed-precision certified block test on the chord view.

        Rows are unit-normalized in float64, cast, and multiplied with
        one float32 sgemm.  On the unit sphere every operand is bounded
        by 1 (Cauchy–Schwarz), so the rounding band is the *constant*
        ``SAFETY·γ₃₂(d+8)`` — no per-pair norms needed.  In-band pairs
        are rescued through the float64 aligned kernel.
        """
        red_thr = self.reduce_threshold(threshold)
        if not cascade_engaged(len(queries) * len(targets)):
            # Bit-identical to the plain reduced comparison (normalize
            # exactly once, like reduced_cross itself).
            precision.stats.n_f64_blocks += 1
            return self.reduced_cross(queries, targets) <= red_thr
        precision.stats.n_f32_blocks += 1
        uq = unit_rows(queries)
        ut = unit_rows(targets)
        neg_cos = uq.astype(np.float32) @ ut.astype(np.float32).T
        neg_cos *= np.float32(-1.0)
        band = band_halfwidth_factor(uq.shape[1])
        passed = neg_cos <= np.float32(red_thr)
        uncertain = np.abs(neg_cos - np.float32(red_thr)) <= band
        n_band = int(np.count_nonzero(uncertain))
        precision.stats.n_certified += neg_cos.size - n_band
        precision.stats.n_rescued += n_band
        if n_band:
            # One flat scan: a 2-D np.nonzero is several times slower.
            rows, cols = np.divmod(np.flatnonzero(uncertain), uncertain.shape[1])
            exact = np.einsum("ij,ij->i", uq[rows], ut[cols])
            np.clip(exact, -1.0, 1.0, out=exact)
            passed[rows, cols] = -exact <= red_thr
        return passed
