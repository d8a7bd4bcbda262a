"""The :class:`NeighborIndex` interface: pluggable neighbor search.

Every solver in this package asks the data one question: *which points
lie within radius ``r`` of a query* — the ε-neighborhoods of DBSCAN,
the ``2r̄ + τ`` merge graphs over Gonzalez centers, the streaming
probes.  The PR-1 batched distance engine answers it with dense
blocked cross products, which is optimal for small sets but turns
quadratic once the net size ``(Δ/r̄)^D`` explodes in high dimensions.

This subpackage factors the question out behind an index interface, the
same move scikit-learn makes with its ``neighbors`` backends: callers
build a :class:`NeighborIndex` over a (subset of a) dataset and issue
queries; the backend decides how to prune.  Three backends ship:

- :class:`~repro.index.brute.BruteForceIndex` — the PR-1 engine behind
  the interface; works for any metric, optimal for small sets;
- :class:`~repro.index.grid.GridIndex` — a uniform-cell table over
  vector metrics, cell width tied to the expected query radius so
  candidates come from adjacent cells only;
- :class:`~repro.index.covertree.CoverTreeIndex` — adapter over
  :class:`repro.covertree.tree.CoverTree` for general metric spaces.

Backends are selected by name through :mod:`repro.index.registry`
(``auto`` picks by metric type / size) or forced globally with the
``REPRO_DEFAULT_INDEX`` environment variable.

Contract
--------
- Queries are **global dataset indices**
  (:meth:`NeighborIndex.range_query_batch_csr`), so backends can route
  exact-filter evaluations through the instrumented
  :class:`~repro.metricspace.dataset.MetricDataset` kernels and the
  ``n_cross_evals`` attribution of PR 1 stays meaningful.  Streaming
  consumers whose query payloads are *not* dataset points use
  :meth:`NeighborIndex.range_query_points_csr` instead.
- Answers come in one shape, the flat CSR form of
  :class:`~repro.index.csr.CSRQueryResult`: one ``(offsets, ids,
  dists)`` triple per batch, whose flat arrays feed ``np.bincount`` /
  segment reductions directly.  Each row holds **global point indices
  sorted ascending**, paired with true (non-reduced) distances aligned
  to them.  Sorted order makes every backend bit-compatible with the
  dense ``np.nonzero`` scans it replaces, so downstream tie-breaking
  (argmin on candidate lists) is identical across backends.
- A stored query point always reports itself (distance 0).
- Instrumentation: ``n_range_queries`` counts queries answered and
  ``n_candidates`` counts the exact-filter distance evaluations spent
  answering them.  Solvers surface both via
  ``TimingBreakdown.counters`` next to ``n_cross_evals`` so speedups
  stay attributable.

Dynamic indexes
---------------
Every backend accepts :meth:`insert` / :meth:`insert_batch` and
:meth:`delete` / :meth:`delete_batch` after :meth:`build`, growing and
shrinking the stored set without a full rebuild: the brute backend
appends rows to (or drops them from) its block store, the grid adds or
drops the ids' cell rows, and the cover tree inserts natively and
tombstones deletions (see :class:`~repro.index.covertree.CoverTreeIndex`).
An index that has seen inserts and deletions answers every query
exactly as one built fresh over its stored set
(``tests/test_index_dynamic.py`` and ``tests/test_index_deletion.py``
pin this per backend).  This is what lets Algorithm 1 maintain one
incremental index over its growing center set instead of materializing
the dense ``|E|²`` center matrix, lets the streaming solver index its
summary as it grows, and lets the windowed models evict expired
centers.  Deleting every stored point is allowed: the emptied index
answers all queries with zero hits and accepts inserts again.

Deletion adds one contract point: a deleted id's payload must still be
the payload it was *indexed* with at :meth:`delete_batch` time, because
backends may locate points by cached structure built from it.  The
cover tree keeps deleted ids in its tree until its next rebuild, so a
caller that recycles payload slots (the windowed models) deletes first
and overwrites an id only once it is no longer listed in
:attr:`CoverTreeIndex.tombstones <repro.index.covertree.CoverTreeIndex.tombstones>`,
or re-inserts it before the next query.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Dict, Optional, Sequence

import numpy as np

from repro.index.csr import CSRQueryResult, in_sorted
from repro.metricspace.dataset import IndexArray, MetricDataset


class NeighborIndex(ABC):
    """Abstract neighbor-search structure over (a subset of) a dataset.

    Lifecycle: construct with backend-specific knobs, then
    :meth:`build` once against a dataset, then query.  Counters
    accumulate across queries; :meth:`reset_counters` zeroes them.
    """

    #: Registry name of the backend (set by subclasses).
    name: str = "abstract"

    def __init__(self) -> None:
        self.dataset: Optional[MetricDataset] = None
        #: Global indices of the stored points: sorted ascending after
        #: :meth:`build`, then in insertion order as :meth:`insert_batch`
        #: appends (query *results* stay sorted by global index either
        #: way — that is the contract, not the internal order).
        self.stored: Optional[np.ndarray] = None
        self.radius_hint: Optional[float] = None
        self.n_range_queries = 0
        self.n_candidates = 0

    # ------------------------------------------------------------------
    # Lifecycle

    def build(
        self,
        dataset: MetricDataset,
        indices: Optional[IndexArray] = None,
        radius_hint: Optional[float] = None,
    ) -> "NeighborIndex":
        """Index the points of ``dataset`` selected by ``indices``.

        Parameters
        ----------
        dataset:
            The metric space to index.
        indices:
            Global indices of the points to store (default: all).
            Duplicates are rejected; order does not matter.
        radius_hint:
            The radius the caller expects to query at.  Backends may
            use it to tune their structure (the grid ties its cell
            width to it); queries at other radii remain correct.

        Returns ``self`` so builds chain into expressions.
        """
        if indices is None:
            stored = np.arange(dataset.n, dtype=np.intp)
        else:
            stored = np.sort(np.asarray(indices, dtype=np.intp).ravel())
            if _has_duplicates(stored):
                raise ValueError("index build received duplicate point indices")
            if len(stored) and (stored[0] < 0 or stored[-1] >= dataset.n):
                raise ValueError("index build received out-of-range point indices")
        if len(stored) == 0:
            raise ValueError("cannot build an index over zero points")
        if radius_hint is not None and radius_hint < 0:
            raise ValueError(f"radius_hint must be non-negative, got {radius_hint}")
        self.dataset = dataset
        self.stored = stored
        self.radius_hint = radius_hint
        # A fresh build is a fresh instrumentation scope: rebuilding a
        # pre-configured instance must not carry counters across fits.
        self.reset_counters()
        self._build()
        return self

    @abstractmethod
    def _build(self) -> None:
        """Backend hook: construct the search structure over
        ``self.stored``."""

    # ------------------------------------------------------------------
    # Dynamic growth

    def insert(self, index: int) -> None:
        """Add one dataset point to the stored set (see
        :meth:`insert_batch`)."""
        self.insert_batch(np.asarray([index], dtype=np.intp))

    def insert_batch(self, indices: IndexArray) -> None:
        """Add dataset points to a built index in place.

        ``indices`` are global dataset indices, none of which may
        already be stored.  After the call the index answers every
        range query exactly as one built fresh over the union (the
        incremental-equivalence contract).  The dataset
        itself may have grown since :meth:`build` (streaming summaries
        append payloads); new indices only need to be valid *now*.
        """
        self._require_built()
        new = np.asarray(indices, dtype=np.intp)
        if new.size == 0:
            return
        # One sort, then binary searches: ``np.unique``/``np.isin`` cost
        # milliseconds per call at tens of thousands of ids.
        order = np.sort(new)
        if _has_duplicates(order):
            raise ValueError("insert_batch received duplicate point indices")
        if order[0] < 0 or order[-1] >= self.dataset.n:
            raise ValueError("insert_batch received out-of-range point indices")
        if in_sorted(self.stored, order).any():
            raise ValueError("insert_batch received already-stored point indices")
        self.stored = np.concatenate([self.stored, new])
        self._insert(new)

    @abstractmethod
    def _insert(self, new: np.ndarray) -> None:
        """Backend hook: extend the structure with the points ``new``
        (already appended to ``self.stored``)."""

    # ------------------------------------------------------------------
    # Dynamic shrinkage

    def delete(self, index: int) -> None:
        """Remove one stored point (see :meth:`delete_batch`)."""
        self.delete_batch(np.asarray([index], dtype=np.intp))

    def delete_batch(self, indices: IndexArray) -> None:
        """Remove dataset points from a built index in place.

        ``indices`` are global dataset indices, all of which must be
        currently stored (duplicates rejected).  After the call the
        index answers every query exactly as one built fresh over the
        survivors.  Each removed id's payload must still be the payload
        it was indexed with — callers that overwrite payload slots
        delete *before* recycling (see the module docstring).  Deleting
        every stored point is allowed: the emptied index answers all
        queries with zero hits and accepts :meth:`insert_batch` again.
        """
        self._require_built()
        drop = np.asarray(indices, dtype=np.intp)
        if drop.size == 0:
            return
        order = np.sort(drop)
        if _has_duplicates(order):
            raise ValueError("delete_batch received duplicate point indices")
        dead = in_sorted(self.stored, order)
        if int(dead.sum()) != drop.size:
            raise ValueError("delete_batch received point indices not stored")
        # Order-preserving compaction: survivors keep their relative
        # order, so a sorted stored array stays sorted.
        self.stored = self.stored[~dead]
        self._delete(drop)

    @abstractmethod
    def _delete(self, removed: np.ndarray) -> None:
        """Backend hook: drop the points ``removed`` (already compacted
        out of ``self.stored``) from the structure."""

    def spawn(self) -> "NeighborIndex":
        """An unbuilt sibling carrying this backend's configuration.

        Callers that need a *second* index of the same kind (e.g. the
        DBSCAN++ core-point assignment) spawn it so the original's
        built state survives and constructor knobs (grid cell width,
        projection dims, ...) are preserved."""
        clone = copy.copy(self)
        clone.dataset = None
        clone.stored = None
        clone.radius_hint = None
        clone.reset_counters()
        return clone

    def _require_built(self) -> MetricDataset:
        if self.dataset is None or self.stored is None:
            raise RuntimeError(
                f"{type(self).__name__} queried before build() was called"
            )
        return self.dataset

    @property
    def n_stored(self) -> int:
        """Number of stored points."""
        return 0 if self.stored is None else int(len(self.stored))

    # ------------------------------------------------------------------
    # Queries

    @abstractmethod
    def range_query_batch_csr(
        self, queries: IndexArray, radius, with_distances: bool = True
    ) -> CSRQueryResult:
        """Stored points within ``radius`` of each dataset point in
        ``queries``, as one :class:`~repro.index.csr.CSRQueryResult`:
        row ``i`` holds query ``i``'s hits, global indices sorted
        ascending, with true distances aligned to them.

        ``radius`` may be a single float shared by every query or an
        array of per-query radii aligned with ``queries`` (the Gonzalez
        flush prunes each old center at its own group radius).

        ``with_distances=False`` lets consumers that only need the
        neighbor *sets* (core counting, merge edges) skip the
        reduced→true expansion — a ``sqrt``/``arccos`` per hit that
        the dense reduced-threshold paths never paid; ``dists`` is then
        ``None``.  Scalar-radius queries in this mode additionally route
        through the certified mixed-precision cascade
        (:meth:`Metric.cross_certified`) where the backend supports it —
        decisions only, never distances, so the float32 tier applies.
        """

    @abstractmethod
    def range_query_points_csr(
        self, payloads: Sequence, radius, with_distances: bool = True
    ) -> CSRQueryResult:
        """Range queries for payloads that are *not* dataset points.

        The streaming solvers probe arriving stream elements against an
        index over their center/summary stores; those queries cannot be
        phrased as global indices.  Semantics otherwise match
        :meth:`range_query_batch_csr`.
        """

    # ------------------------------------------------------------------
    # Instrumentation

    def counters(self) -> Dict[str, int]:
        """Snapshot of the instrumentation counters, keyed exactly as
        solvers surface them in ``TimingBreakdown.counters``."""
        return {
            "n_range_queries": int(self.n_range_queries),
            "n_candidates": int(self.n_candidates),
        }

    def reset_counters(self) -> None:
        """Zero the query/candidate counters."""
        self.n_range_queries = 0
        self.n_candidates = 0

    def fold_counters_into(
        self, timings, before: "Dict[str, int] | None" = None
    ) -> None:
        """Accumulate this index's counters into a
        :class:`~repro.utils.timer.TimingBreakdown`.

        With ``before`` (an earlier :meth:`counters` snapshot) only the
        *delta* since the snapshot is folded, so one shared index can
        attribute its queries to the phase that issued them.
        """
        before = before or {}
        for counter, value in self.counters().items():
            timings.count(counter, value - before.get(counter, 0))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_stored={self.n_stored}, "
            f"radius_hint={self.radius_hint})"
        )


def _has_duplicates(ordered: np.ndarray) -> bool:
    """Whether the sorted id array ``ordered`` repeats an id."""
    return bool(ordered.size > 1 and (ordered[1:] == ordered[:-1]).any())


def check_radius(radius: float) -> float:
    """Validate a query radius (non-negative and finite)."""
    radius = float(radius)
    if radius < 0 or not np.isfinite(radius):
        raise ValueError(f"query radius must be non-negative and finite, got {radius}")
    return radius


def check_radii(radius, n_queries: int):
    """Validate a radius argument that may be scalar or per-query.

    Scalars pass through :func:`check_radius`.  Array-likes must align
    with the query batch (one non-negative finite radius per query) and
    come back as a float64 array.  Backends use the return type to pick
    between the shared-threshold block scan (scalar) and the per-row
    threshold scan (array).
    """
    if np.ndim(radius) == 0:
        return check_radius(radius)
    radii = np.asarray(radius, dtype=np.float64)
    if radii.shape != (int(n_queries),):
        raise ValueError(
            f"per-query radii must align with the query batch: expected "
            f"shape ({n_queries},), got {radii.shape}"
        )
    if radii.size and (not np.isfinite(radii).all() or radii.min() < 0):
        raise ValueError("per-query radii must be non-negative and finite")
    return radii

