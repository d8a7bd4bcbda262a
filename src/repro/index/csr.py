"""Flat CSR-style batch query results and segment reductions.

Every batched range query answers in one shape,
:class:`CSRQueryResult`: all hits of a batch concatenated row-major into
``ids`` (and optionally ``dists``), delimited by ``offsets`` exactly
like a compressed-sparse-row matrix.  Consumers that fan out over
queries — streaming passes 1 and 3, the pass-2 recount, the merge
graphs, the windowed refresh — reduce over it with the segment helpers
below instead of paying one interpreter iteration per query.  ``brute``
and ``grid`` produce it natively with one ``np.flatnonzero`` per
evaluated block; the cover tree concatenates its per-query traversals
with :func:`csr_from_rows`.

Within each row the ids keep the interface contract of
:mod:`repro.index.base`: global indices sorted ascending, distances
aligned.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CSRQueryResult",
    "csr_from_parts",
    "csr_from_rows",
    "in_sorted",
    "segment_argmin",
]


class CSRQueryResult:
    """Batched range-query answer in compressed-sparse-row form.

    Attributes
    ----------
    offsets:
        ``intp`` array of length ``n_queries + 1``; query ``i``'s hits
        occupy the flat slice ``[offsets[i], offsets[i + 1])``.
    ids:
        All hit ids concatenated row-major — global dataset indices,
        sorted ascending *within* each row (the interface contract).
    dists:
        True distances aligned with ``ids``, or ``None`` when the query
        ran with ``with_distances=False``.
    """

    __slots__ = ("offsets", "ids", "dists")

    def __init__(
        self,
        offsets: np.ndarray,
        ids: np.ndarray,
        dists: Optional[np.ndarray] = None,
    ) -> None:
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.ids = np.asarray(ids, dtype=np.intp)
        self.dists = None if dists is None else np.asarray(dists, dtype=np.float64)
        if self.offsets.ndim != 1 or self.offsets.shape[0] < 1:
            raise ValueError("offsets must be a 1-d array of length n_queries + 1")
        if int(self.offsets[-1]) != self.ids.shape[0]:
            raise ValueError(
                f"offsets[-1] ({int(self.offsets[-1])}) must equal "
                f"len(ids) ({self.ids.shape[0]})"
            )
        if self.dists is not None and self.dists.shape != self.ids.shape:
            raise ValueError("dists must align with ids")

    @classmethod
    def empty(cls, n_queries: int, with_distances: bool = True) -> "CSRQueryResult":
        """A result with ``n_queries`` rows and zero hits."""
        return cls(
            np.zeros(n_queries + 1, dtype=np.intp),
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.float64) if with_distances else None,
        )

    @property
    def n_queries(self) -> int:
        return self.offsets.shape[0] - 1

    def counts(self) -> np.ndarray:
        """Hits per query (``np.diff(offsets)``)."""
        return np.diff(self.offsets)

    def query_rows(self) -> np.ndarray:
        """The query index of every flat entry (aligned with ``ids``)."""
        return np.repeat(
            np.arange(self.n_queries, dtype=np.intp), self.counts()
        )

    def row(self, i: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Query ``i``'s answer as a ``(ids, dists)`` tuple view."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return (
            self.ids[lo:hi],
            None if self.dists is None else self.dists[lo:hi],
        )

    def __len__(self) -> int:
        return self.n_queries

    def __repr__(self) -> str:
        return (
            f"CSRQueryResult(n_queries={self.n_queries}, "
            f"n_hits={self.ids.shape[0]}, "
            f"with_distances={self.dists is not None})"
        )


def csr_from_parts(
    n_queries: int,
    qidx_parts: Sequence[np.ndarray],
    id_parts: Sequence[np.ndarray],
    dist_parts: Optional[Sequence[np.ndarray]],
) -> CSRQueryResult:
    """Assemble a CSR result from flat ``(query, id[, dist])`` triples.

    ``qidx_parts`` carry the query index of every hit.  Parts may arrive
    in any order (the grid emits them block by block and pair slice by
    pair slice), so one sort by ``(query, id)`` restores the row-major,
    ascending-within-row layout of the interface contract.  Each
    ``(query, id)`` pair may occur at most once.
    """
    if not qidx_parts:
        return CSRQueryResult.empty(n_queries, dist_parts is not None)
    qidx = np.concatenate(qidx_parts)
    ids = np.concatenate(id_parts)
    # One int64 key per hit: n_queries · (max id + 1) stays far below
    # 2^63 for any batch over a dataset that fits in memory.
    span = int(ids.max()) + 1 if ids.size else 1
    # Stable (run-merging) sort: blocks and pair slices arrive as long
    # ascending runs.
    order = np.argsort(qidx.astype(np.int64) * span + ids, kind="stable")
    counts = np.bincount(qidx, minlength=n_queries)
    offsets = np.zeros(n_queries + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    dists = (
        np.concatenate(dist_parts)[order] if dist_parts is not None else None
    )
    return CSRQueryResult(offsets, ids[order], dists)


def csr_from_rows(
    rows: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]],
    with_distances: bool,
) -> CSRQueryResult:
    """Concatenate per-query ``(ids, dists)`` rows into CSR form.

    The cover tree's assembly: it traverses one query at a time, so its
    rows arrive one by one.  ``brute`` and ``grid`` build the flat
    arrays directly instead.
    """
    counts = np.asarray([len(ids) for ids, _ in rows], dtype=np.intp)
    offsets = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    if len(rows) == 0 or int(offsets[-1]) == 0:
        return CSRQueryResult.empty(len(rows), with_distances)
    ids = np.concatenate([ids for ids, _ in rows])
    dists = (
        np.concatenate(
            [np.asarray(d, dtype=np.float64) for ids, d in rows if len(ids)]
        )
        if with_distances
        else None
    )
    return CSRQueryResult(offsets, ids, dists)


def in_sorted(values: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Membership of each of ``values`` in the sorted array ``pool`` by
    binary search (``np.isin`` sorts or tables both sides per call)."""
    if pool.size == 0:
        return np.zeros(np.shape(values), dtype=bool)
    at = np.minimum(np.searchsorted(pool, values), pool.size - 1)
    return pool[at] == values


def segment_argmin(
    values: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """First-occurrence argmin of every CSR segment, fully vectorized.

    Returns ``(argpos, minima)``: per segment, the *flat* position into
    ``values`` of its first minimum (``-1`` for empty segments) and the
    minimum itself (``+inf`` for empty segments).  First-occurrence
    tie-breaking matches ``np.argmin`` run on each row slice, so
    consumers replacing per-row argmin loops keep bit-identical
    decisions.
    """
    offsets = np.asarray(offsets, dtype=np.intp)
    n = offsets.shape[0] - 1
    argpos = np.full(n, -1, dtype=np.intp)
    minima = np.full(n, np.inf, dtype=np.float64)
    counts = np.diff(offsets)
    nonempty = np.flatnonzero(counts > 0)
    if nonempty.size == 0:
        return argpos, minima
    values = np.asarray(values, dtype=np.float64)
    # ``reduceat`` over the non-empty starts only: empty segments occupy
    # zero width, so dropping their starts keeps the ranges aligned
    # (and sidesteps reduceat's empty-slice quirk).
    starts = offsets[:-1][nonempty]
    minima[nonempty] = np.minimum.reduceat(values, starts)
    rows = np.repeat(np.arange(n, dtype=np.intp), counts)
    flat_pos = np.arange(values.shape[0], dtype=np.intp)
    at_min = np.where(
        values == minima[rows], flat_pos, values.shape[0]
    )
    argpos[nonempty] = np.minimum.reduceat(at_min, starts)
    return argpos, minima
