"""Cover-tree backend: the general-metric neighbor index.

Adapter over :class:`repro.covertree.tree.CoverTree` — the structure
the paper itself uses for the Step-(2) BCP queries — exposing it behind
the :class:`~repro.index.base.NeighborIndex` interface.  Unlike the
grid this needs nothing but the metric axioms, so it serves edit
distance, Jaccard, Hamming and every other non-vector metric; queries
cost ``O(2^O(D) log Φ)`` distance evaluations under the paper's
doubling-dimension assumption (Claim 1).

``n_candidates`` reports the tree's actual distance evaluations
(construction excluded), so the counter stays comparable with the
exact-filter counts of the other backends.

The CSR batch entry points (``range_query_batch_csr`` /
``range_query_points_csr``) come from the generic base-class adapter:
the tree traverses one query at a time regardless, so concatenating the
tuple-list answer costs nothing extra and keeps the consumer-facing
format uniform across backends.

Deletion uses tombstones.  Removing a node would mean re-parenting its
subtree under the covering and separation invariants, and first-in,
first-out expiry (the windowed models) removes the oldest points, which
sit at the top of the tree.  A deleted id therefore stays in the tree,
listed in :attr:`CoverTreeIndex.tombstones`, and every answer masks it
out; kNN over-fetches ``k + #tombstones``.  The delete that leaves fewer
than :attr:`CoverTreeIndex.COMPACT_LIVE_FRACTION` of the tree's points
live rebuilds it over the stored points, and so does the insert of a
tombstoned id (the tree still holds it, with a payload that may since
have changed).  The tombstones therefore depend only on the order of
inserts and deletes, never on when queries run.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.covertree.tree import CoverTree
from repro.index.base import (
    NeighborIndex,
    QueryResult,
    check_k,
    check_radii,
    check_radius,
)
from repro.index.csr import in_sorted
from repro.metricspace.dataset import IndexArray


class CoverTreeIndex(NeighborIndex):
    """Neighbor index over a cover tree; works for any metric."""

    name = "covertree"

    #: A delete rebuilds the tree once fewer than this fraction of its
    #: points are live (the rest being tombstones).
    COMPACT_LIVE_FRACTION = 0.5

    def _build(self) -> None:
        # Insertion in ascending index order keeps construction
        # deterministic for a given stored set.  Large vector-metric
        # builds take the level-batched bulk construction (one
        # ``Metric.cross`` call per sibling pick instead of per-node
        # Python candidate juggling); queries are exact either way.
        self.tree = CoverTree(self.dataset, indices=np.sort(self.stored), bulk=None)
        self.n_build_evals = self.tree.n_distance_evals
        #: Compaction rebuilds since the last :meth:`build`.
        self.n_rebuilds = 0
        #: Deleted ids the tree still holds (sorted).  Their payloads
        #: must not change until a rebuild clears them or they are
        #: re-inserted; the windowed models quarantine their slots.
        self.tombstones = np.empty(0, dtype=np.intp)

    def _rebuild(self) -> None:
        """Rebuild over the stored points; the cost adds to the
        lifetime construction cost instead of restarting it."""
        spent, rebuilds = self.n_build_evals, self.n_rebuilds
        self._build()
        self.n_build_evals += spent
        self.n_rebuilds = rebuilds + 1

    def _insert(self, new: np.ndarray) -> None:
        if in_sorted(new, self.tombstones).any():
            # The tree still holds a tombstoned id with its old payload.
            self._rebuild()
            return
        before = self.tree.n_distance_evals
        for idx in new:
            self.tree.insert(int(idx))
        # Insert evaluations are construction cost, not query cost.
        self.n_build_evals += self.tree.n_distance_evals - before

    def _delete(self, removed: np.ndarray) -> None:
        self.tombstones = np.union1d(self.tombstones, removed)
        live = self.n_stored
        if live < self.COMPACT_LIVE_FRACTION * (live + self.tombstones.size):
            self._rebuild()

    def counters(self) -> dict:
        """Query counters plus the construction cost — the tree's
        build evaluations dominate for cheap vector metrics (see
        ROADMAP), so attribution tables must show them.
        ``n_build_evals`` sums the build and every compaction rebuild,
        which ``n_rebuilds`` counts."""
        out = super().counters()
        out["n_build_evals"] = int(getattr(self, "n_build_evals", 0))
        out["n_rebuilds"] = int(getattr(self, "n_rebuilds", 0))
        return out

    def _live(self, hits: List) -> QueryResult:
        """The ``(index, distance)`` hits of a tree query as arrays, with
        tombstoned ids masked out."""
        ids = np.asarray([i for i, _ in hits], dtype=np.intp)
        dists = np.asarray([d for _, d in hits], dtype=np.float64)
        if self.tombstones.size:
            keep = ~in_sorted(ids, self.tombstones)
            ids, dists = ids[keep], dists[keep]
        return ids, dists

    def _query(self, payload, radius: float) -> QueryResult:
        """One range query by payload: live hits sorted by index."""
        tree = self.tree
        self.n_range_queries += 1
        before = tree.n_distance_evals
        hits = tree.range_query(payload, radius)
        self.n_candidates += tree.n_distance_evals - before
        ids, dists = self._live(hits)
        order = np.argsort(ids, kind="stable")
        return ids[order], dists[order]

    def range_query(
        self, query: int, radius: float, with_distances: bool = True
    ) -> QueryResult:
        # The tree traversal computes true distances anyway, so
        # with_distances costs nothing here and is ignored.
        dataset = self._require_built()
        return self._query(dataset.point(int(query)), check_radius(radius))

    def range_query_batch(
        self, queries: IndexArray, radius, with_distances: bool = True
    ) -> List[QueryResult]:
        queries = np.asarray(queries)
        radius = check_radii(radius, len(queries))
        if isinstance(radius, np.ndarray):
            # Per-query radii: the tree queries one at a time anyway.
            return [
                self.range_query(int(q), float(r))
                for q, r in zip(queries, radius)
            ]
        return [self.range_query(int(q), radius) for q in queries]

    def range_query_points(
        self, payloads, radius, with_distances: bool = True
    ) -> List[QueryResult]:
        # The tree queries by payload natively.
        self._require_built()
        radius = check_radii(radius, len(payloads))
        if isinstance(radius, np.ndarray):
            return [self._query(p, float(r)) for p, r in zip(payloads, radius)]
        return [self._query(p, radius) for p in payloads]

    def knn(self, query: int, k: int) -> QueryResult:
        dataset = self._require_built()
        k = check_k(k)
        tree = self.tree
        self.n_range_queries += 1
        before = tree.n_distance_evals
        # Over-fetch so the answer survives tombstone masking: every
        # masked hit could displace a live one.
        hits = tree.knn(dataset.point(int(query)), k + self.tombstones.size)
        self.n_candidates += tree.n_distance_evals - before
        # CoverTree.knn already sorts by (distance, index).
        ids, dists = self._live(hits)
        return ids[:k], dists[:k]
