"""Flat ragged groups and their pairwise expansions.

The batch solvers hold per-center groups of points (the cover sets,
core points per cover set, summary points per center) and evaluate
candidate pairs between the groups of neighboring centers.  Flattening
the groups into one array plus offsets turns every such expansion into
a few vectorized index computations followed by one aligned pair-kernel
call, instead of one Python-level block per center pair.  The center
graph the groups are composed with is the CSR answer of
:func:`repro.index.netgraph.net_neighbor_sets`.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.index.csr import CSRQueryResult
from repro.metricspace.dataset import (
    DEFAULT_BLOCK_BYTES, MetricDataset, pairs_per_slice,
)


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The flat positions ``[starts[k], starts[k] + lengths[k])`` for
    every ``k``, concatenated in order."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - lengths), lengths)


class FlatGroups:
    """Ragged groups (e.g. summary points per center) flattened for
    vectorized cartesian-product expansion.

    Group ``j`` is ``flat[starts[j] : starts[j] + sizes[j]]``; indexing
    the object with ``j`` returns that slice.
    """

    def __init__(self, flat: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
        self.flat = flat
        self.starts = starts
        self.sizes = sizes

    @classmethod
    def from_assignment(cls, items: np.ndarray, assign: np.ndarray, m: int):
        """Group ``items`` by ``assign`` (values in ``[0, m)``); each
        group keeps the items' order."""
        order = np.argsort(assign, kind="stable")
        boundaries = np.searchsorted(assign[order], np.arange(m + 1))
        return cls(items[order], boundaries[:-1], np.diff(boundaries))

    def __getitem__(self, j) -> np.ndarray:
        lo = self.starts[j]
        return self.flat[lo : lo + self.sizes[j]]

    def take(self, groups: np.ndarray) -> "FlatGroups":
        """The groups ``groups`` (repeats allowed), re-flattened in that
        order."""
        sizes = self.sizes[groups]
        flat = self.flat[concat_ranges(self.starts[groups], sizes)]
        return FlatGroups(flat, np.cumsum(sizes) - sizes, sizes)

    def expand(self, graph: CSRQueryResult, rows: np.ndarray) -> "FlatGroups":
        """One group per entry of ``rows``: the members of every group
        that row of ``graph`` lists, concatenated in the row's order."""
        lo = graph.offsets[rows]
        counts = graph.offsets[rows + 1] - lo
        listed = self.take(graph.ids[concat_ranges(lo, counts)])
        # A row's members end where its last listed group ends.
        ends = np.r_[0, np.cumsum(listed.sizes)][np.r_[0, np.cumsum(counts)]]
        return FlatGroups(listed.flat, ends[:-1], np.diff(ends))

    def cartesian(
        self,
        src_groups: np.ndarray,
        other: "FlatGroups",
        tgt_groups: np.ndarray,
    ):
        """For each aligned (src group, tgt group) pair, emit the
        cartesian product of their members as two flat COO arrays."""
        a = self.sizes[src_groups]
        b = other.sizes[tgt_groups]
        counts = a * b
        tot = int(counts.sum())
        if tot == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        pair_of = np.repeat(np.arange(counts.size), counts)
        local = np.arange(tot) - np.repeat(np.cumsum(counts) - counts, counts)
        b_rep = b[pair_of]
        rows = self.flat[self.starts[src_groups][pair_of] + local // b_rep]
        cols = other.flat[other.starts[tgt_groups][pair_of] + local % b_rep]
        return rows, cols


def rectangle_slices(
    n_rows: np.ndarray, n_cols: np.ndarray, slice_len: int
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Walk the cells of many ``n_rows[k] × n_cols[k]`` rectangles in
    row-major order, at most ``slice_len`` cells at a time.

    Yields ``(rect, row, col)``: per cell, its rectangle and its local
    coordinates.  Only one slice's index arrays exist at a time, so the
    expansion of a large product never materializes whole; a rectangle
    larger than a slice is split across slices.  A slice is cut into
    row segments first (one division per rectangle, not per cell), and
    its cells are repeats of those.
    """
    n_cols = np.asarray(n_cols, dtype=np.int64)
    counts = np.asarray(n_rows, dtype=np.int64) * n_cols
    ends = np.cumsum(counts)
    begins = ends - counts
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, slice_len):
        hi = min(lo + slice_len, total)
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right"))
        rects = np.arange(first, last + 1)
        # Each rectangle's cells in the slice, as local offsets [a, b);
        # empty rectangles get a = b and no rows.
        width = np.maximum(n_cols[rects], 1)
        a = np.maximum(begins[rects], lo) - begins[rects]
        b = np.minimum(ends[rects], hi) - begins[rects]
        r0 = a // width
        n_seg = np.where(b > a, (b - 1) // width + 1 - r0, 0)
        seg = np.repeat(np.arange(rects.size), n_seg)
        row = np.arange(seg.size) - np.repeat(np.cumsum(n_seg) - n_seg - r0, n_seg)
        # Each row segment's columns [c0, c1).
        start = row * width[seg]
        c0 = np.maximum(a[seg] - start, 0)
        take = np.minimum(b[seg] - start, width[seg]) - c0
        yield (
            np.repeat(rects[seg], take),
            np.repeat(row, take),
            np.arange(hi - lo) - np.repeat(np.cumsum(take) - take - c0, take),
        )


def walk_slice_len(dataset: MetricDataset) -> int:
    """Pairs per slice of a flat (point, candidate) walk.

    Half of :func:`~repro.metricspace.dataset.pairs_per_slice` at
    ``DEFAULT_BLOCK_BYTES``: besides the gathered operands that function
    budgets for, a slice holds about four int64 index arrays per pair,
    which weigh as much as the operands at low dimension.
    """
    return pairs_per_slice(dataset, DEFAULT_BLOCK_BYTES // 2)


def count_within(
    dataset: MetricDataset,
    members: FlatGroups,
    candidates: FlatGroups,
    threshold: float,
) -> np.ndarray:
    """For each member of group ``k`` of ``members``, the number of
    members of group ``k`` of ``candidates`` within ``threshold`` of it.

    The member × candidate rectangles are walked with
    :func:`rectangle_slices`, each slice of :func:`walk_slice_len` pairs
    one certified aligned kernel call
    (:meth:`MetricDataset.pair_certified`), so no pair array ever exists
    whole.  Returns counts aligned with ``members.flat``.
    """
    counts = np.zeros(members.flat.size, dtype=np.int64)
    for rect, row, col in rectangle_slices(
        members.sizes, candidates.sizes, walk_slice_len(dataset)
    ):
        # Local coordinates become flat positions in place.
        row += members.starts[rect]
        col += candidates.starts[rect]
        del rect
        within = dataset.pair_certified(
            members.flat[row], candidates.flat[col], threshold
        )
        counts += np.bincount(row[within], minlength=counts.size)
    return counts
