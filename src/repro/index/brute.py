"""Brute-force backend: the PR-1 batched engine behind the index API.

Every query scans all stored points with the blocked, reduced-space
cross kernels of :class:`~repro.metricspace.dataset.MetricDataset` —
``O(n_stored)`` candidates per query, no pruning, any metric.  This is
the correctness reference the other backends are tested against, and
the fastest choice for small stored sets where numpy throughput beats
any per-query pruning overhead.

Answers are assembled natively in CSR form: one ``np.flatnonzero``
and one ``bincount`` per evaluated block instead of a per-row Python
loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.index.base import CSRQueryResult, NeighborIndex, check_radii
from repro.metricspace.dataset import (
    CERTIFIED_BYTES_PER_ENTRY,
    IndexArray,
    rows_per_block,
)


class BruteForceIndex(NeighborIndex):
    """Linear-scan neighbor index over the batched distance engine."""

    name = "brute"

    def _build(self) -> None:
        # Nothing to precompute: the stored index array *is* the
        # structure.  When it covers the whole dataset, targets=None
        # lets the kernels skip the gather entirely.
        self._all = self.n_stored == self.dataset.n

    def _insert(self, new: np.ndarray) -> None:
        # Re-sorting keeps the scan order — and therefore every query
        # answer — bit-identical to a fresh build over the union.
        self.stored = np.sort(self.stored)
        self._all = self.n_stored == self.dataset.n

    def _delete(self, removed: np.ndarray) -> None:
        # The base class already compacted ``self.stored`` preserving
        # order (sorted stays sorted — the _FlatCollector invariant);
        # only the whole-dataset shortcut needs refreshing.
        self._all = self.n_stored == self.dataset.n

    def _targets(self):
        # targets=None (skip the gather) only while the stored set still
        # covers the whole dataset — growable datasets may have gained
        # points since build/insert.
        return None if self._all and self.n_stored == self.dataset.n else self.stored

    class _FlatCollector:
        """Accumulates per-block hit triples into one CSR result.

        ``self.stored`` is sorted ascending (build sorts, insert
        re-sorts) and blocks cover consecutive query rows, so the flat
        parts concatenate into row-major ascending-within-row order
        with no sort at all.
        """

        def __init__(self, index: "BruteForceIndex", with_distances: bool) -> None:
            self._stored = index.stored
            self._metric = index.dataset.metric
            self._with_distances = with_distances
            self._counts: List[np.ndarray] = []
            self._ids: List[np.ndarray] = []
            self._dists: List[np.ndarray] = []

        def add_block(self, hits: np.ndarray, block: Optional[np.ndarray]) -> None:
            # One flat scan: a 2-D np.nonzero is several times slower.
            rows, cols = np.divmod(np.flatnonzero(hits), hits.shape[1])
            self._counts.append(np.bincount(rows, minlength=hits.shape[0]))
            self._ids.append(self._stored[cols])
            if self._with_distances:
                self._dists.append(
                    np.asarray(
                        self._metric.expand_reduced(block[rows, cols]),
                        dtype=np.float64,
                    )
                )

        def finish(self, n_queries: int) -> CSRQueryResult:
            if not self._counts:
                return CSRQueryResult.empty(n_queries, self._with_distances)
            counts = np.concatenate(self._counts)
            offsets = np.zeros(n_queries + 1, dtype=np.intp)
            np.cumsum(counts, out=offsets[1:])
            return CSRQueryResult(
                offsets,
                np.concatenate(self._ids),
                np.concatenate(self._dists) if self._with_distances else None,
            )

    def range_query_batch_csr(
        self, queries: IndexArray, radius, with_distances: bool = True
    ) -> CSRQueryResult:
        dataset = self._require_built()
        queries = np.asarray(queries, dtype=np.intp)
        radius = check_radii(radius, len(queries))
        if self.n_stored == 0:  # deleted to empty
            self.n_range_queries += len(queries)
            return CSRQueryResult.empty(len(queries), with_distances)
        metric = dataset.metric
        targets = self._targets()
        flat = self._FlatCollector(self, with_distances)
        if isinstance(radius, np.ndarray):
            red_radii = metric.reduce_thresholds(radius)
            pos = 0
            for _, block in dataset.cross_blocks(
                queries=queries, targets=targets, reduced=True
            ):
                rows = block.shape[0]
                flat.add_block(block <= red_radii[pos : pos + rows, None], block)
                pos += rows
        elif not with_distances:
            # Decision-only scalar queries ride the certified
            # mixed-precision cascade.
            for _, mask in dataset.cross_blocks(
                queries=queries, targets=targets, certified_threshold=radius
            ):
                flat.add_block(mask, None)
        else:
            red_radius = metric.reduce_threshold(radius)
            for _, block in dataset.cross_blocks(
                queries=queries, targets=targets, reduced=True
            ):
                flat.add_block(block <= red_radius, block)
        self.n_range_queries += len(queries)
        self.n_candidates += len(queries) * self.n_stored
        return flat.finish(len(queries))

    def range_query_points_csr(
        self, payloads: Sequence, radius, with_distances: bool = True
    ) -> CSRQueryResult:
        dataset = self._require_built()
        radius = check_radii(radius, len(payloads))
        if self.n_stored == 0:  # deleted to empty
            self.n_range_queries += len(payloads)
            return CSRQueryResult.empty(len(payloads), with_distances)
        metric = dataset.metric
        per_query = isinstance(radius, np.ndarray)
        red_radii = metric.reduce_thresholds(radius) if per_query else None
        certified = not per_query and not with_distances
        red_radius = None if per_query else metric.reduce_threshold(radius)
        stored_payloads = dataset.gather(self.stored)
        flat = self._FlatCollector(self, with_distances)
        step = rows_per_block(
            self.n_stored,
            bytes_per_entry=CERTIFIED_BYTES_PER_ENTRY if certified else 8,
        )
        for lo in range(0, len(payloads), step):
            chunk = payloads[lo : lo + step]
            if certified:
                mask = metric.cross_certified(chunk, stored_payloads, radius)
                dataset.n_cross_blocks += 1
                dataset.n_cross_evals += mask.size
                flat.add_block(mask, None)
                continue
            block = metric.reduced_cross(chunk, stored_payloads)
            dataset.n_cross_blocks += 1
            dataset.n_cross_evals += block.size
            if per_query:
                hits = block <= red_radii[lo : lo + block.shape[0], None]
            else:
                hits = block <= red_radius
            flat.add_block(hits, block)
        self.n_range_queries += len(payloads)
        self.n_candidates += len(payloads) * self.n_stored
        return flat.finish(len(payloads))
