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

The tree traverses one query at a time, so a batch is one traversal
per query, each row's hits sorted by id, concatenated into the CSR
answer by :func:`~repro.index.csr.csr_from_rows`.

Deletion uses tombstones.  Removing a node would mean re-parenting its
subtree under the covering and separation invariants, and first-in,
first-out expiry (the windowed models) removes the oldest points, which
sit at the top of the tree.  A deleted id therefore stays in the tree,
listed in :attr:`CoverTreeIndex.tombstones`, and every answer masks it
out.  The delete that leaves fewer than
:attr:`CoverTreeIndex.COMPACT_LIVE_FRACTION` of the tree's points live
rebuilds it over the stored points, and so does the insert of a
tombstoned id (the tree still holds it, with a payload that may since
have changed).  The tombstones therefore depend only on the order of
inserts and deletes, never on when queries run.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.covertree.tree import CoverTree
from repro.index.base import CSRQueryResult, NeighborIndex, check_radii
from repro.index.csr import csr_from_rows, in_sorted
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

    def _query(self, payload, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """One tree traversal: the live hits within ``radius`` of
        ``payload`` as ``(ids, distances)``, tombstones masked out and
        sorted by id."""
        tree = self.tree
        self.n_range_queries += 1
        before = tree.n_distance_evals
        hits = tree.range_query(payload, radius)
        self.n_candidates += tree.n_distance_evals - before
        ids = np.asarray([i for i, _ in hits], dtype=np.intp)
        dists = np.asarray([d for _, d in hits], dtype=np.float64)
        if self.tombstones.size:
            keep = ~in_sorted(ids, self.tombstones)
            ids, dists = ids[keep], dists[keep]
        order = np.argsort(ids, kind="stable")
        return ids[order], dists[order]

    def _batch(
        self, payloads: Sequence, radius, with_distances: bool
    ) -> CSRQueryResult:
        """One traversal per payload, at its own radius when ``radius``
        is per-query.  The traversal computes true distances anyway;
        ``with_distances=False`` only drops them from the answer."""
        radii = np.broadcast_to(radius, (len(payloads),))
        return csr_from_rows(
            [self._query(p, float(r)) for p, r in zip(payloads, radii)],
            with_distances,
        )

    def range_query_batch_csr(
        self, queries: IndexArray, radius, with_distances: bool = True
    ) -> CSRQueryResult:
        dataset = self._require_built()
        queries = np.asarray(queries, dtype=np.intp)
        radius = check_radii(radius, len(queries))
        return self._batch(
            [dataset.point(int(q)) for q in queries], radius, with_distances
        )

    def range_query_points_csr(
        self, payloads: Sequence, radius, with_distances: bool = True
    ) -> CSRQueryResult:
        # The tree queries by payload natively.
        self._require_built()
        radius = check_radii(radius, len(payloads))
        return self._batch(payloads, radius, with_distances)
