"""Distance-evaluation counting.

The paper expresses every complexity bound in units of distance
evaluations (``t_dis``).  Wrapping any metric in :class:`CountingMetric`
lets the benchmarks report the *number* of distance evaluations an
algorithm performed — a machine-independent check of the linear-in-``n``
claims (Lemmas 4–6, Theorems 1, 3, 4).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.metricspace.base import Metric


class CountingMetric(Metric):
    """Wrap a metric and count every distance evaluation.

    Batch calls count as one evaluation per element — exactly the unit
    the paper's ``t_dis`` accounting uses.

    Attributes
    ----------
    count:
        Total number of distance evaluations since construction or the
        last :meth:`reset`.
    calls:
        Number of API calls (a batch of k distances is one call).
    """

    def __init__(self, inner: Metric) -> None:
        self.inner = inner
        self.is_vector_metric = inner.is_vector_metric
        self.count = 0
        self.calls = 0

    def reset(self) -> None:
        """Zero the counters."""
        self.count = 0
        self.calls = 0

    def distance(self, a: Any, b: Any) -> float:
        self.count += 1
        self.calls += 1
        return self.inner.distance(a, b)

    def distance_many(self, a: Any, batch: Sequence[Any]) -> np.ndarray:
        out = self.inner.distance_many(a, batch)
        self.count += len(out)
        self.calls += 1
        return out

    def cross(self, queries: Any, targets: Any) -> np.ndarray:
        out = self.inner.cross(queries, targets)
        self.count += out.size
        self.calls += 1
        return out

    def pair_distances(self, a_batch: Any, b_batch: Any) -> np.ndarray:
        out = self.inner.pair_distances(a_batch, b_batch)
        self.count += len(out)
        self.calls += 1
        return out

    # Reduced-space calls delegate to the inner metric's transform so the
    # wrapper stays invisible to solvers working in reduced space.

    def reduce_threshold(self, threshold: float) -> float:
        return self.inner.reduce_threshold(threshold)

    def reduce_thresholds(self, thresholds: np.ndarray) -> np.ndarray:
        return self.inner.reduce_thresholds(thresholds)

    def expand_reduced(self, values: Any) -> Any:
        return self.inner.expand_reduced(values)

    def reduced_band(self, batch: Any) -> Optional[np.ndarray]:
        return self.inner.reduced_band(batch)

    def reduced_distance_many(self, a: Any, batch: Sequence[Any]) -> np.ndarray:
        out = self.inner.reduced_distance_many(a, batch)
        self.count += len(out)
        self.calls += 1
        return out

    def reduced_cross(self, queries: Any, targets: Any) -> np.ndarray:
        out = self.inner.reduced_cross(queries, targets)
        self.count += out.size
        self.calls += 1
        return out

    def reduced_pair_distances(self, a_batch: Any, b_batch: Any) -> np.ndarray:
        out = self.inner.reduced_pair_distances(a_batch, b_batch)
        self.count += len(out)
        self.calls += 1
        return out

    # Certified threshold tests delegate so the cascade stays active
    # under instrumentation; a decided pair is one t_dis evaluation
    # regardless of the precision it was decided at.

    def cross_certified(self, queries: Any, targets: Any, threshold: float) -> np.ndarray:
        out = self.inner.cross_certified(queries, targets, threshold)
        self.count += out.size
        self.calls += 1
        return out

    def pair_certified(self, a_batch: Any, b_batch: Any, threshold: float) -> np.ndarray:
        out = self.inner.pair_certified(a_batch, b_batch, threshold)
        self.count += len(out)
        self.calls += 1
        return out

    def pairwise(self, batch: Sequence[Any]) -> np.ndarray:
        out = self.inner.pairwise(batch)
        m = len(batch)
        self.count += m * (m - 1) // 2
        self.calls += 1
        return out

    def __repr__(self) -> str:
        return f"CountingMetric({self.inner!r}, count={self.count})"


def unwrap(metric: Metric) -> Metric:
    """Strip any counting wrappers, returning the underlying metric.

    Euclidean-only algorithms use this for their metric-kind check so
    instrumented datasets (:meth:`MetricDataset.with_counting`) remain
    accepted.
    """
    while isinstance(metric, CountingMetric):
        metric = metric.inner
    return metric
