"""Index-based dataset view: points + metric.

All solvers in :mod:`repro.core` and :mod:`repro.baselines` address points
by integer index ``0..n-1`` through this class, so payloads (numpy rows,
strings, sets) are never copied around and the distance-counting wrapper
sees every evaluation.
"""

from __future__ import annotations

import time
from typing import Any, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.metricspace.base import Metric
from repro.metricspace.counting import CountingMetric, unwrap
from repro.metricspace.euclidean import EuclideanMetric
from repro.utils.validation import check_finite

IndexArray = Union[Sequence[int], np.ndarray]

#: Default byte budget for one block of a chunked cross computation.
#: 8 MiB of float64 keeps a block well inside L3 on common hardware
#: while amortizing the per-call numpy overhead over ~1M entries.
DEFAULT_BLOCK_BYTES = 8 << 20

#: Adaptive block sizing (``cross_blocks(block_bytes=None)``) steers
#: each block's measured kernel time into this window: faster blocks
#: double the byte budget (amortize per-call overhead — matters for
#: tiny ``d`` where a fixed byte budget yields huge cheap blocks'
#: opposite, many small expensive calls), slower blocks halve it
#: (bound latency and the working set — matters for large ``d`` or
#: expensive scalar metrics).  The learned budget persists on the
#: dataset, so later iterations start warm.
ADAPT_LOW_SECONDS = 0.004
ADAPT_HIGH_SECONDS = 0.040
ADAPT_MIN_BYTES = 256 << 10
#: Growth cap: 8x the static default.  Consumers often hold a
#: same-sized boolean mask next to the block, so the transient
#: footprint is a small multiple of this.
ADAPT_MAX_BYTES = 64 << 20


#: Per-entry byte weight of a *certified* block: the float64 fallback
#: holds the reduced block (8) plus the mask (1); the cascade holds the
#: float32 block (4), both masks (2) and the float32 operand copies.
#: 12 covers either shape with headroom for the rescue gather.
CERTIFIED_BYTES_PER_ENTRY = 12


def rows_per_block(
    n_targets: int,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    bytes_per_entry: int = 8,
) -> int:
    """Number of query rows per block so one ``(rows, n_targets)``
    distance block stays within ``block_bytes`` (always >= 1).

    ``bytes_per_entry`` defaults to a float64 entry; certified blocks
    pass :data:`CERTIFIED_BYTES_PER_ENTRY` so the budget accounts for
    the extra float32 copies and boolean masks of the cascade.
    """
    if block_bytes <= 0:
        raise ValueError(f"block_bytes must be positive, got {block_bytes}")
    return max(
        1, int(block_bytes) // (int(bytes_per_entry) * max(1, int(n_targets)))
    )


def pairs_per_slice(
    dataset: "MetricDataset", slice_bytes: int = 16 * DEFAULT_BLOCK_BYTES
) -> int:
    """Aligned-pair slice length whose gathered operands stay within
    ``slice_bytes`` — dimension-aware, so high-dimensional payloads get
    proportionally shorter slices (always >= 1).

    One slice of ``k`` pairs gathers two ``(k, d)`` float64 operands
    plus a same-sized temporary inside the kernel.
    """
    if dataset.metric.is_vector_metric:
        dim = int(np.asarray(dataset.points).shape[1])
    else:
        dim = 1
    return max(1, int(slice_bytes) // (3 * 8 * max(1, dim)))


class MetricDataset:
    """A finite metric space ``(X, dis)`` addressed by integer indices.

    Parameters
    ----------
    points:
        For vector metrics an array-like of shape ``(n, d)``; otherwise
        any sequence of payload objects (strings, sets, ...).
    metric:
        The distance function.  Defaults to :class:`EuclideanMetric`.

    Examples
    --------
    >>> import numpy as np
    >>> ds = MetricDataset(np.array([[0.0], [3.0], [7.0]]))
    >>> ds.n
    3
    >>> ds.distance(0, 1)
    3.0
    >>> ds.distances_from(0).tolist()
    [0.0, 3.0, 7.0]
    """

    def __init__(self, points: Any, metric: Optional[Metric] = None) -> None:
        self.metric = metric if metric is not None else EuclideanMetric()
        if self.metric.is_vector_metric:
            arr = np.asarray(points, dtype=np.float64)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            if arr.ndim != 2:
                raise ValueError(
                    f"vector data must be 2-dimensional, got shape {arr.shape}"
                )
            check_finite(arr, "vector data", self.metric)
            self._points: Any = arr
            self._n = arr.shape[0]
        else:
            self._points = list(points)
            self._n = len(self._points)
        if self._n == 0:
            raise ValueError("MetricDataset requires at least one point")
        # Batch-engine instrumentation: block kernel invocations and the
        # number of distance entries they produced (see cross/cross_blocks).
        self.n_cross_blocks = 0
        self.n_cross_evals = 0
        # Learned byte budget for adaptive cross_blocks sizing.
        self._adaptive_block_bytes = DEFAULT_BLOCK_BYTES

    # ------------------------------------------------------------------
    # Basic accessors

    @property
    def n(self) -> int:
        """Number of points."""
        return self._n

    def __len__(self) -> int:
        return self._n

    @property
    def points(self) -> Any:
        """The underlying payload container (array or list)."""
        return self._points

    def point(self, i: int) -> Any:
        """Payload of point ``i``."""
        return self._points[i]

    def gather(self, indices: IndexArray) -> Any:
        """Payloads at ``indices`` (array slice for vector data, list
        otherwise)."""
        if self.metric.is_vector_metric:
            # ``np.take`` beats fancy indexing 2-10x on narrow rows.
            return np.take(self._points, np.asarray(indices, dtype=np.intp), axis=0)
        return [self._points[int(i)] for i in indices]

    # ------------------------------------------------------------------
    # Distances

    def distance(self, i: int, j: int) -> float:
        """Distance between points ``i`` and ``j``."""
        return self.metric.distance(self._points[i], self._points[j])

    def distances_from(
        self, i: int, indices: Optional[IndexArray] = None
    ) -> np.ndarray:
        """Distances from point ``i`` to each point in ``indices``.

        ``indices=None`` means all ``n`` points.  Uses the metric's
        (possibly vectorized) batch path.
        """
        return self.distances_point(self._points[i], indices)

    def distances_point(
        self, payload: Any, indices: Optional[IndexArray] = None
    ) -> np.ndarray:
        """Distances from an arbitrary query payload to points of the set."""
        if indices is None:
            batch = self._points
        else:
            batch = self.gather(indices)
        if len(batch) == 0:
            return np.empty(0, dtype=np.float64)
        return self.metric.distance_many(payload, batch)

    def reduced_distances_from(
        self, i: int, indices: Optional[IndexArray] = None
    ) -> np.ndarray:
        """Reduced-space variant of :meth:`distances_from`."""
        batch = self._points if indices is None else self.gather(indices)
        if len(batch) == 0:
            return np.empty(0, dtype=np.float64)
        return self.metric.reduced_distance_many(self._points[i], batch)

    def cross(
        self,
        queries: Optional[IndexArray] = None,
        targets: Optional[IndexArray] = None,
        reduced: bool = False,
    ) -> np.ndarray:
        """Many-to-many distance block between two index sets.

        ``None`` means *all points* on that side.  ``reduced=True``
        returns monotone-surrogate distances (see
        :mod:`repro.metricspace.base`) — compare them against
        ``metric.reduce_threshold(t)``, never against raw thresholds.
        """
        q = self._points if queries is None else self.gather(queries)
        t = self._points if targets is None else self.gather(targets)
        kernel = self.metric.reduced_cross if reduced else self.metric.cross
        block = kernel(q, t)
        self.n_cross_blocks += 1
        self.n_cross_evals += block.size
        return block

    def pair_certified(
        self,
        a_indices: IndexArray,
        b_indices: IndexArray,
        threshold: float,
    ) -> np.ndarray:
        """Aligned decisions ``dis(a[i], b[i]) <= threshold`` through
        :meth:`Metric.pair_certified`; each decided pair counts as one
        distance evaluation."""
        a = self.gather(a_indices)
        b = self.gather(b_indices)
        out = self.metric.pair_certified(a, b, threshold)
        self.n_cross_blocks += 1
        self.n_cross_evals += len(out)
        return out

    def pair(
        self,
        a_indices: IndexArray,
        b_indices: IndexArray,
        reduced: bool = False,
    ) -> np.ndarray:
        """Aligned one-to-one distances ``d(a_indices[i], b_indices[i])``.

        The COO companion of :meth:`cross`: callers that prune a dense
        block to a sparse pair list evaluate exactly those pairs in one
        vectorized call.
        """
        a = self.gather(a_indices)
        b = self.gather(b_indices)
        kernel = (
            self.metric.reduced_pair_distances
            if reduced
            else self.metric.pair_distances
        )
        out = kernel(a, b)
        self.n_cross_blocks += 1
        self.n_cross_evals += len(out)
        return out

    def cross_blocks(
        self,
        queries: Optional[IndexArray] = None,
        targets: Optional[IndexArray] = None,
        block_bytes: Optional[int] = None,
        reduced: bool = False,
        certified_threshold: Optional[float] = None,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Chunked iterator over the ``(queries, targets)`` distance matrix.

        Yields ``(query_indices_chunk, block)`` pairs where ``block`` has
        shape ``(len(chunk), len(targets))``; the query side is sliced so
        each float64 block stays within the byte budget.  Peak memory is
        therefore bounded regardless of ``len(queries) * len(targets)``.

        ``block_bytes=None`` (default) sizes blocks *adaptively*: the
        budget starts at the dataset's learned value (initially
        ``DEFAULT_BLOCK_BYTES``) and each block's measured kernel time
        steers it into the ``[ADAPT_LOW_SECONDS, ADAPT_HIGH_SECONDS]``
        window.  Pass an explicit byte count for fully deterministic
        chunking (tests, memory-capped environments).  Chunking never
        affects the values produced, only their grouping.

        With ``certified_threshold`` set, blocks are *boolean decision
        masks* ``dis <= certified_threshold`` from
        :meth:`Metric.cross_certified` (the mixed-precision cascade for
        vector metrics); the byte budget then weighs each entry at
        :data:`CERTIFIED_BYTES_PER_ENTRY` to cover the float32 copies.
        ``reduced`` is ignored in that mode.
        """
        adaptive = block_bytes is None
        q = np.arange(self._n, dtype=np.intp) if queries is None else np.asarray(
            queries, dtype=np.intp
        )
        t_idx = None if targets is None else np.asarray(targets, dtype=np.intp)
        t = self._points if t_idx is None else self.gather(t_idx)
        n_targets = self._n if t_idx is None else len(t_idx)
        if certified_threshold is not None:
            threshold = float(certified_threshold)
            entry_bytes = CERTIFIED_BYTES_PER_ENTRY

            def kernel(chunk_payloads, targets_payloads):
                return self.metric.cross_certified(
                    chunk_payloads, targets_payloads, threshold
                )
        else:
            entry_bytes = 8
            kernel = self.metric.reduced_cross if reduced else self.metric.cross
        if not adaptive:
            step = rows_per_block(n_targets, block_bytes, entry_bytes)
        start = 0
        while start < len(q):
            if adaptive:
                budget = self._adaptive_block_bytes
                step = rows_per_block(n_targets, budget, entry_bytes)
            chunk = q[start : start + step]
            began = time.perf_counter()
            block = kernel(self.gather(chunk), t)
            if adaptive:
                elapsed = time.perf_counter() - began
                if (
                    elapsed > ADAPT_HIGH_SECONDS
                    and budget > ADAPT_MIN_BYTES
                ):
                    self._adaptive_block_bytes = max(budget // 2, ADAPT_MIN_BYTES)
                elif (
                    elapsed < ADAPT_LOW_SECONDS
                    and budget < ADAPT_MAX_BYTES
                    # Only a block that actually consumed its budget is
                    # evidence the budget is too small (tail chunks and
                    # tiny query sets finish fast regardless).
                    and block.size * entry_bytes >= budget // 2
                ):
                    self._adaptive_block_bytes = min(budget * 2, ADAPT_MAX_BYTES)
            self.n_cross_blocks += 1
            self.n_cross_evals += block.size
            yield chunk, block
            start += len(chunk)

    def pairwise(self, indices: Optional[IndexArray] = None) -> np.ndarray:
        """Pairwise distance matrix over ``indices`` (all points if None).

        Quadratic — intended for small index sets such as Algorithm 2's
        summary ``S*``.
        """
        batch = self._points if indices is None else self.gather(indices)
        return self.metric.pairwise(batch)

    # ------------------------------------------------------------------
    # Instrumentation

    def with_counting(self) -> "MetricDataset":
        """A view of this dataset whose metric counts distance evaluations.

        The returned dataset shares the payload container; read the
        counter via ``dataset.metric.count``.
        """
        if isinstance(self.metric, CountingMetric):
            return self
        counted = MetricDataset.__new__(MetricDataset)
        counted.metric = CountingMetric(self.metric)
        counted._points = self._points
        counted._n = self._n
        counted.n_cross_blocks = 0
        counted.n_cross_evals = 0
        counted._adaptive_block_bytes = self._adaptive_block_bytes
        return counted

    def same_space(self, other: "MetricDataset") -> bool:
        """Whether ``other`` holds the same payloads under the same
        metric: this dataset, a view sharing its payloads (such as
        :meth:`with_counting`), or an equal copy.  A structure built on
        one (a precomputed net) is then valid on the other.
        """
        if other.n != self.n or not _same_metric(self.metric, other.metric):
            return False
        mine, theirs = self.points, other.points
        if self.metric.is_vector_metric:
            return mine is theirs or bool(np.array_equal(mine, theirs))
        return all(a is b or np.array_equal(a, b) for a, b in zip(mine, theirs))

    def __repr__(self) -> str:
        return f"MetricDataset(n={self._n}, metric={type(self.metric).__name__})"


def _same_metric(a: Metric, b: Metric) -> bool:
    """Same distance function: counting wrappers are looked through,
    then the classes and their parameters must agree."""
    a, b = unwrap(a), unwrap(b)
    return a is b or (
        type(a) is type(b)
        and vars(a).keys() == vars(b).keys()
        and all(np.array_equal(v, vars(b)[k]) for k, v in vars(a).items())
    )


class PayloadStore:
    """Append-only payload buffer with a cheap batch-distance view.

    Vector payloads live in a doubling numpy buffer so the metric's
    vectorized batch path applies; other payloads live in a list.
    The streaming solvers keep their center/watch/summary sets in
    these (formerly ``repro.core.streaming._PayloadStore``).
    """

    def __init__(self, metric: Metric) -> None:
        self._metric = metric
        self._vector = metric.is_vector_metric
        self._list: list = []
        self._array: Optional[np.ndarray] = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def append(self, payload: Any) -> int:
        idx = self._size
        if self._vector:
            row = np.asarray(payload, dtype=np.float64).ravel()
            if self._array is None:
                self._array = np.empty((4, row.shape[0]), dtype=np.float64)
            elif self._size == self._array.shape[0]:
                grown = np.empty(
                    (2 * self._array.shape[0], self._array.shape[1]),
                    dtype=np.float64,
                )
                grown[: self._size] = self._array[: self._size]
                self._array = grown
            self._array[self._size] = row
        else:
            self._list.append(payload)
        self._size += 1
        return idx

    def extend(self, payloads: Sequence[Any]) -> None:
        """Append a sequence of payloads (as many :meth:`append` calls
        would, in one copy for vector payloads)."""
        if not len(payloads):
            return
        if not self._vector:
            self._list.extend(payloads)
            self._size += len(payloads)
            return
        rows = np.asarray(payloads, dtype=np.float64)
        rows = rows.reshape(rows.shape[0], -1)
        end = self._size + rows.shape[0]
        if self._array is None:
            self._array = np.empty((max(4, end), rows.shape[1]), dtype=np.float64)
        elif end > self._array.shape[0]:
            grown = np.empty(
                (max(end, 2 * self._array.shape[0]), self._array.shape[1]),
                dtype=np.float64,
            )
            grown[: self._size] = self._array[: self._size]
            self._array = grown
        self._array[self._size : end] = rows
        self._size = end

    def set(self, idx: int, payload: Any) -> None:
        """Overwrite slot ``idx`` in place (the windowed solver
        recycles expired center slots)."""
        if self._vector:
            self._array[idx] = np.asarray(payload, dtype=np.float64).ravel()
        else:
            self._list[idx] = payload

    def view(self) -> Any:
        """All stored payloads (array slice or list)."""
        if self._vector:
            if self._array is None:
                return np.empty((0, 0), dtype=np.float64)
            return self._array[: self._size]
        return self._list

    def get(self, idx: int) -> Any:
        return self._array[idx] if self._vector else self._list[idx]

    def distances_from(self, payload: Any) -> np.ndarray:
        """Distances from ``payload`` to every stored payload."""
        if self._size == 0:
            return np.empty(0, dtype=np.float64)
        return self._metric.distance_many(payload, self.view())


class GrowingMetricDataset(MetricDataset):
    """A :class:`MetricDataset` over an append-only payload store.

    Points gain indices in arrival order and the set only grows (or
    overwrites recycled slots) — exactly the shape of the streaming
    solvers' center/watch/summary stores.  Because it *is* a
    ``MetricDataset``, the :mod:`repro.index` backends build over it
    directly, and the same dynamic-index machinery that serves
    Algorithm 1 serves summaries that grow one arrival at a time:
    ``idx = ds.append(payload)`` then ``index.insert(idx)``.
    """

    def __init__(self, metric: Optional[Metric] = None) -> None:
        # Deliberately skips MetricDataset.__init__: the payload
        # container and size are live views of the store, exposed via
        # the _points/_n property overrides below (never assigned).
        self.metric = metric if metric is not None else EuclideanMetric()
        self._store = PayloadStore(self.metric)
        self.n_cross_blocks = 0
        self.n_cross_evals = 0
        self._adaptive_block_bytes = DEFAULT_BLOCK_BYTES

    @property
    def _points(self) -> Any:
        return self._store.view()

    @property
    def _n(self) -> int:
        return len(self._store)

    def append(self, payload: Any) -> int:
        """Store a payload; returns its permanent index."""
        return self._store.append(payload)

    def extend(self, payloads: Sequence[Any]) -> None:
        """Store payloads under the next indices, in order."""
        self._store.extend(payloads)

    def set(self, idx: int, payload: Any) -> None:
        """Overwrite a recycled slot in place."""
        self._store.set(idx, payload)

    # PayloadStore-compatible accessors so solver code reads the same
    # whether it holds a bare store or an indexable dataset.
    def view(self) -> Any:
        return self._store.view()

    def get(self, idx: int) -> Any:
        return self._store.get(idx)
