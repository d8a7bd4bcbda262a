"""Flat ragged groups and their pairwise expansions.

The batch solvers hold per-center groups of points (core points per
cover set, summary points per center) and evaluate candidate pairs
between the groups of neighboring centers.  Flattening the groups into
one array plus offsets turns every such expansion into a few vectorized
index computations followed by one aligned pair-kernel call, instead of
one Python-level block per center pair.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np


class FlatGroups:
    """Ragged groups (e.g. summary points per center) flattened for
    vectorized cartesian-product expansion."""

    def __init__(self, flat: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
        self.flat = flat
        self.starts = starts
        self.sizes = sizes

    @classmethod
    def from_lists(cls, lists) -> "FlatGroups":
        sizes = np.asarray([len(x) for x in lists], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(sizes)])[:-1]
        if sizes.sum():
            flat = np.concatenate(
                [np.asarray(x, dtype=np.int64) for x in lists if len(x)]
            )
        else:
            flat = np.empty(0, dtype=np.int64)
        return cls(flat, starts, sizes)

    @classmethod
    def from_assignment(cls, items: np.ndarray, assign: np.ndarray, m: int):
        order = np.argsort(assign, kind="stable")
        boundaries = np.searchsorted(assign[order], np.arange(m + 1))
        return cls(items[order], boundaries[:-1], np.diff(boundaries))

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


def neighbor_center_pairs(neighbors: List[np.ndarray]):
    """Flatten the enlarged neighbor lists into aligned (center,
    neighbor-center) pair arrays."""
    m = len(neighbors)
    center_rep = np.repeat(
        np.arange(m), [len(neighbors[j]) for j in range(m)]
    )
    if m and center_rep.size:
        cand = np.concatenate([np.asarray(neighbors[j]) for j in range(m)])
    else:
        cand = np.empty(0, dtype=np.int64)
    return center_rep, cand.astype(np.int64)


def rectangle_slices(
    n_rows: np.ndarray, n_cols: np.ndarray, slice_len: int
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Walk the cells of many ``n_rows[k] × n_cols[k]`` rectangles in
    row-major order, at most ``slice_len`` cells at a time.

    Yields ``(rect, row, col)``: per cell, its rectangle and its local
    coordinates.  Only one slice's index arrays exist at a time, so the
    expansion of a large product never materializes whole; a rectangle
    larger than a slice is split across slices.
    """
    counts = np.asarray(n_rows, dtype=np.int64) * np.asarray(n_cols, dtype=np.int64)
    ends = np.cumsum(counts)
    begins = ends - counts
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, slice_len):
        hi = min(lo + slice_len, total)
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right"))
        rects = np.arange(first, last + 1)
        take = np.minimum(ends[rects], hi) - np.maximum(begins[rects], lo)
        rect = np.repeat(rects, take)
        local = np.arange(lo, hi) - begins[rect]
        width = n_cols[rect]
        yield rect, local // width, local % width
