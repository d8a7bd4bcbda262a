"""The :class:`Metric` interface and the batch-dispatch contract.

A metric in this package is a distance function over *payloads* (the raw
points: numpy rows, strings, sets, ...).  Algorithms never call metrics
directly on payloads; they go through
:class:`~repro.metricspace.dataset.MetricDataset`, which resolves integer
indices to payloads and dispatches to the (possibly vectorized) methods
defined here.

Batch-dispatch contract
-----------------------
The hot loops of every solver are *many-to-many* distance computations:
``Q`` query payloads against ``T`` target payloads.  The contract has
three tiers, each with a scalar fallback so a new metric only has to
implement :meth:`Metric.distance` to be correct everywhere:

1. :meth:`Metric.distance` — one pair.  Mandatory.
2. :meth:`Metric.distance_many` / :meth:`Metric.cross` — one-to-many and
   many-to-many kernels.  The defaults loop over :meth:`distance`;
   vector metrics (``is_vector_metric = True``) override them with
   numpy-vectorized versions (e.g. the squared-norm expansion for
   Euclidean).  ``cross(A, B)`` returns a ``(len(A), len(B))`` float64
   matrix.
3. *Reduced distances* — a monotone surrogate that is cheaper to
   compute, in the style of scikit-learn's ``rdist``.  For Euclidean the
   reduced distance is the *squared* distance (no square root); for the
   angular metric it is the negated cosine.  Solvers that only compare
   distances against a threshold, or take a min/argmin, work entirely in
   reduced space via :meth:`reduced_cross` / :meth:`reduced_distance_many`,
   converting thresholds once with :meth:`reduce_threshold` and
   converting results back (rarely needed) with :meth:`expand_reduced`.
   The reduction must be strictly increasing on the metric's range so
   that comparisons and argmins are preserved exactly; the identity
   defaults make every metric correct without opting in.
4. *Certified threshold tests* — :meth:`Metric.cross_certified` /
   :meth:`Metric.pair_certified` answer ``dis(q, t) <= threshold`` as a
   boolean mask directly, without promising distance values at all.
   That contract is what unlocks the mixed-precision GEMM cascade (see
   :mod:`repro.metricspace.precision`): vector metrics compute the
   block in float32, certify each decision with a rigorous
   rounding-error band, and recompute only the in-band pairs in
   float64.  The default implementation is the plain float64 reduced
   comparison, so every metric is correct without opting in; consumers
   that only threshold (core counting, merge edges, range queries with
   ``with_distances=False``) call the certified form, while consumers
   that need distance *values* stay on the float64 kernels.

Block sizing is the caller's job: :meth:`MetricDataset.cross_blocks`
slices the query side so one block of the distance matrix stays within a
byte budget, which keeps the working set cache-friendly and the peak
memory bounded regardless of ``len(Q) * len(T)``.

How a new metric opts in
------------------------
- implement :meth:`distance`; set ``is_vector_metric = True`` when
  payloads are rows of a 2-D array;
- override :meth:`distance_many` and :meth:`cross` with vectorized
  kernels when possible;
- if a monotone surrogate is cheaper, override :meth:`reduced_cross`,
  :meth:`reduced_distance_many`, :meth:`reduce_threshold` and
  :meth:`expand_reduced` *together* — they must describe the same
  transform.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, Sequence[Any]]


class Metric(ABC):
    """A distance function ``dis(a, b)`` satisfying the metric axioms.

    Subclasses must implement :meth:`distance`.  Metrics over numpy
    vectors should also override :meth:`distance_many` and :meth:`cross`
    with vectorized implementations; the defaults are Python loops.  See
    the module docstring for the full batch-dispatch contract.
    """

    #: Whether payloads are rows of a 2-D numpy array.  When ``True``,
    #: :class:`MetricDataset` stores points as an ``(n, d)`` array and the
    #: batch path receives array slices; when ``False`` payloads are
    #: arbitrary Python objects held in a list.
    is_vector_metric: bool = False

    @abstractmethod
    def distance(self, a: Any, b: Any) -> float:
        """Distance between two payloads."""

    def distance_many(self, a: Any, batch: Sequence[Any]) -> np.ndarray:
        """Distances from payload ``a`` to every payload in ``batch``.

        The default implementation loops; vector metrics override this
        with a numpy-vectorized version.  Returns a float64 array with
        one entry per element of ``batch``.
        """
        return np.array([self.distance(a, b) for b in batch], dtype=np.float64)

    def cross(self, queries: ArrayLike, targets: ArrayLike) -> np.ndarray:
        """Many-to-many block kernel: ``(len(queries), len(targets))``
        matrix of distances.

        The default loops :meth:`distance_many` over the query rows;
        vector metrics override this with one blocked numpy kernel.
        Either side may be empty, yielding an empty matrix of the right
        shape.
        """
        nq, nt = len(queries), len(targets)
        out = np.empty((nq, nt), dtype=np.float64)
        if nt == 0:
            return out
        for i in range(nq):
            out[i] = self.distance_many(queries[i], targets)
        return out

    def pair_distances(self, a_batch: ArrayLike, b_batch: ArrayLike) -> np.ndarray:
        """Aligned one-to-one kernel: ``d(a_batch[i], b_batch[i])``.

        The sparse companion of :meth:`cross` — callers that prune a
        dense block down to a COO list of (query, target) pairs evaluate
        exactly those pairs in one call.  Both sides must have equal
        length.  The default loops; vector metrics override with a
        row-wise kernel.
        """
        return np.array(
            [self.distance(a, b) for a, b in zip(a_batch, b_batch)],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    # Reduced (monotone-surrogate) distances

    def reduce_threshold(self, threshold: float) -> float:
        """Map a true-distance threshold into reduced space.

        Identity by default.  Must be strictly increasing on the
        metric's range so ``d <= t  <=>  reduced(d) <= reduce_threshold(t)``.
        """
        return threshold

    def reduce_thresholds(self, thresholds: np.ndarray) -> np.ndarray:
        """:meth:`reduce_threshold` over an array of thresholds (the
        per-query radii of a batched range query); vector metrics with
        an elementwise reduction override the loop."""
        return np.asarray(
            [self.reduce_threshold(float(t)) for t in thresholds],
            dtype=np.float64,
        )

    def expand_reduced(self, values: Any) -> Any:
        """Map reduced distances (scalar or array) back to true distances."""
        return values

    def reduced_distance_many(self, a: Any, batch: Sequence[Any]) -> np.ndarray:
        """One-to-many distances in reduced space (default: true distances)."""
        return self.distance_many(a, batch)

    def reduced_cross(self, queries: ArrayLike, targets: ArrayLike) -> np.ndarray:
        """Many-to-many block kernel in reduced space (default: true)."""
        return self.cross(queries, targets)

    def reduced_pair_distances(
        self, a_batch: ArrayLike, b_batch: ArrayLike
    ) -> np.ndarray:
        """Aligned one-to-one kernel in reduced space (default: true)."""
        return self.pair_distances(a_batch, b_batch)

    # ------------------------------------------------------------------
    # Certified threshold tests (the mixed-precision cascade hook)

    def cross_certified(
        self, queries: ArrayLike, targets: ArrayLike, threshold: float
    ) -> np.ndarray:
        """Boolean block ``dis(queries[i], targets[j]) <= threshold``.

        The decision-only companion of :meth:`reduced_cross`: callers
        that consume the block as a mask (core counting, merge edges,
        ``with_distances=False`` range queries) get the same decisions
        without the engine promising float64 distance values.  Vector
        metrics override this with the float32 GEMM cascade of
        :mod:`repro.metricspace.precision`; the default is the exact
        float64 reduced comparison, so decisions always match the plain
        path.
        """
        red = self.reduced_cross(queries, targets)
        return red <= self.reduce_threshold(threshold)

    def pair_certified(
        self, a_batch: ArrayLike, b_batch: ArrayLike, threshold: float
    ) -> np.ndarray:
        """Aligned decisions ``dis(a_batch[i], b_batch[i]) <= threshold``.

        The COO companion of :meth:`cross_certified`.  Stays on the
        float64 difference kernel even under the cascade: the aligned
        gather is memory-bound, so a float32 pass plus the norms the
        band bound needs would cost more than it saves — and keeping
        it float64 makes the decisions *bit-identical* to the plain
        ``reduced_pair_distances <= reduce_threshold(t)`` test.
        """
        red = self.reduced_pair_distances(a_batch, b_batch)
        return red <= self.reduce_threshold(threshold)

    # ------------------------------------------------------------------

    def pairwise(self, batch: Sequence[Any]) -> np.ndarray:
        """Full symmetric pairwise distance matrix over ``batch``.

        Quadratic in ``len(batch)``; intended for small sets (e.g. the
        summary ``S*`` of Algorithm 2, or unit tests).
        """
        m = len(batch)
        out = np.zeros((m, m), dtype=np.float64)
        for i in range(m):
            if i + 1 < m:
                row = self.distance_many(batch[i], batch[i + 1 :])
                out[i, i + 1 :] = row
                out[i + 1 :, i] = row
        return out

    # ------------------------------------------------------------------
    # Diagnostics

    def check_axioms(
        self, sample: Sequence[Any], atol: float = 1e-9
    ) -> None:
        """Spot-check the metric axioms on a small sample of payloads.

        Raises ``AssertionError`` on the first violated axiom.  This is a
        debugging / testing aid, not a proof; it is quadratic (cubic for
        the triangle inequality) in ``len(sample)``.
        """
        m = len(sample)
        dmat = self.pairwise(sample)
        for i in range(m):
            assert abs(self.distance(sample[i], sample[i])) <= atol, (
                f"d(x,x) != 0 at index {i}"
            )
            for j in range(m):
                assert dmat[i, j] >= -atol, f"negative distance at ({i},{j})"
                assert abs(dmat[i, j] - dmat[j, i]) <= atol, (
                    f"asymmetric distance at ({i},{j})"
                )
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    assert dmat[i, k] <= dmat[i, j] + dmat[j, k] + atol, (
                        f"triangle inequality violated at ({i},{j},{k})"
                    )
