"""Uniform-cell grid backend for vector metrics.

The grid bins every stored point into an integer cell of a uniform
lattice over a *projection* onto the few highest-variance coordinates
(``max_grid_dims``, default 3).  A range query at radius ``r`` gathers
candidates only from the cells whose box lower bound can reach the
query cell — with the cell width tied to the expected query radius
(``radius_hint``, e.g. the solver's ε or the ``2r̄ + ε`` merge-graph
threshold), that is the ``O(3^g)`` adjacent cells — and then filters
them exactly through the metric's kernels.

Correctness rests on one fact: the *view distance* computed from the
grid coordinates lower-bounds the true metric distance, so cell pruning
can only discard points that are provably out of range:

- **Euclidean / Minkowski family** — coordinates are the raw payloads;
  any coordinate-subset distance lower-bounds the full-space distance.
- **Angular (cosine)** — coordinates are the unit-normalized rows and
  query radii are mapped to *chord* lengths (``2 sin(θ/2)``, strictly
  increasing on ``[0, π]``), reducing the spherical problem to a
  Euclidean one.

Projecting keeps the neighbor-cell enumeration bounded (``3^g`` instead
of ``3^d``) at the price of looser candidate sets in high ambient
dimension — the exact filter restores correctness, and the benchmark
``benchmarks/bench_index_backends.py`` measures the trade.

Flat cell table
---------------
The index keeps one integer cell row per stored point (clipped to
``±2^62`` before the int64 cast, which only shrinks cell gaps, so every
box lower bound stays valid).  Inserts append rows and deletes drop
them; the lattice itself (projection dims, origin, width) stays fixed
for the index's lifetime.  Before the next query the rows are
materialized into one sorted table: a collision-free key per occupied
cell (the row's raw bytes — exact for any finite input, no hashing),
CSR starts, and the ids of each cell in ascending order.

One-pass queries
----------------
A range-query batch is answered in one vectorized pass, whatever its
size.  Queries are grouped by cell; each group's cell expands into the
offsets of its stencil (cached per lattice shape, with each offset's box
lower bound), one ``searchsorted`` looks the ``cell + offset`` keys up
in the table, and every query keeps the found cells within its own
radius.  A group whose radius spans more cells than are occupied scans
the occupied-cell table instead.  The (query, candidate) pairs are then
decided slice by slice with the aligned pair kernels, except that a
group whose block is big enough to engage the float32 cascade
(``CASCADE_MIN_ELEMENTS``) — or, for queries decided on float64
distances, to leave the difference kernel — gets one block kernel
call.  One sort of the hits by (query, id) produces the CSR result, so
Python-level iterations scale with the number of such blocks and pair
slices, never with the number of queries.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.index.base import CSRQueryResult, NeighborIndex, check_radii
from repro.index.csr import csr_from_parts, in_sorted
from repro.metricspace.base import Metric
from repro.metricspace.counting import unwrap
from repro.metricspace.cosine import CosineMetric, unit_rows
from repro.metricspace.dataset import (
    CERTIFIED_BYTES_PER_ENTRY,
    IndexArray,
    pairs_per_slice,
    rows_per_block,
)
from repro.metricspace.euclidean import DIFF_KERNEL_MAX, EuclideanMetric
from repro.metricspace.minkowski import (
    ChebyshevMetric,
    ManhattanMetric,
    MinkowskiMetric,
)
from repro.metricspace.precision import CASCADE_MIN_ELEMENTS

#: Relative slack on cell-pruning comparisons so float rounding can only
#: *add* candidate cells, never drop one.
_SLACK = 1.0 + 1e-9

#: Cell coordinates are clipped to ±2^62 before the int64 cast: far
#: enough from the int64 range that ``cell + offset`` never overflows.
_CELL_LIMIT = float(2**62)


def _keys(rows: np.ndarray) -> np.ndarray:
    """One collision-free scalar key per integer cell row: the row's raw
    bytes as a void scalar.  Their (byte-wise) order is not numeric, but
    it is a total order consistent with equality — all a sorted lookup
    table needs."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).reshape(-1)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Flags marking the first entry of each run of equal values."""
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return first


def _expand(
    starts: np.ndarray, counts: np.ndarray, budget: Optional[int] = None
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Ragged expansion in bounded slices.

    Yields ``(owner, position)`` arrays covering ``position = starts[i]
    + k`` for every ``0 <= k < counts[i]``, in order, at most ``budget``
    entries per slice (one slice when ``budget`` is ``None``; rows
    longer than a slice are split).  Always yields at least once.
    """
    ends = np.cumsum(counts)
    shift = ends - counts - starts  # flat index minus position, per row
    total = int(ends[-1]) if ends.size else 0
    if budget is None or total <= budget:
        owner = np.repeat(np.arange(len(counts)), counts)
        yield owner, np.arange(total) - shift[owner]
        return
    for lo in range(0, total, budget):
        hi = min(lo + budget, total)
        r0, r1 = np.searchsorted(ends, [lo, hi - 1], side="right")
        span = np.minimum(ends[r0 : r1 + 1], hi) - np.maximum(
            ends[r0 : r1 + 1] - counts[r0 : r1 + 1], lo
        )
        owner = np.repeat(np.arange(r0, r0 + span.size), span)
        yield owner, np.arange(lo, hi) - shift[owner]


def _norm(per_dim: np.ndarray, p: float) -> np.ndarray:
    """``p``-norm over the last axis of per-dimension gaps."""
    if p == math.inf:
        return per_dim.max(axis=-1)
    return np.sum(per_dim**p, axis=-1) ** (1.0 / p)


@functools.lru_cache(maxsize=64)
def _stencil(g: int, reach: int, p: float) -> Tuple[np.ndarray, np.ndarray]:
    """Offsets of the ``g``-dim cube of Chebyshev radius ``reach``,
    ordered shell by shell (the cube of any smaller reach ``r`` is the
    first ``(2r+1)^g`` rows), and each offset's box lower bound in cell
    widths under the ``p``-norm view.  Shared by every index: it depends
    on nothing but the lattice's shape."""
    axes = np.arange(-reach, reach + 1, dtype=np.int64)
    offs = np.stack(np.meshgrid(*([axes] * g), indexing="ij"), axis=-1)
    offs = offs.reshape(-1, g)
    offs = offs[np.argsort(np.abs(offs).max(axis=1), kind="stable")]
    # Any point of a cell at offset o is >= (|o|-1) widths away per dim.
    bounds = _norm(np.maximum(np.abs(offs) - 1, 0).astype(np.float64), p)
    offs.flags.writeable = bounds.flags.writeable = False
    return offs, bounds


def _max_reach(g: int, n_cells: int) -> int:
    """The widest reach whose stencil cube, ``(2r+1)^g`` offsets, is no
    larger than ``max(64, n_cells)``; wider queries scan the occupied
    cells instead."""
    cap = max(64, n_cells)
    reach = int((cap ** (1.0 / g) - 1.0) // 2)
    while (2 * reach + 3) ** g <= cap:
        reach += 1
    while reach > 0 and (2 * reach + 1) ** g > cap:
        reach -= 1
    return reach


class _GridView:
    """Euclidean-compatible coordinate view of a vector metric.

    ``coords`` maps payload rows to grid coordinates, ``view_radius``
    maps true-metric radii to the view geometry, and ``p`` is the norm
    that aggregates per-dim cell gaps into a view-space lower bound.
    """

    def __init__(self, metric: Metric) -> None:
        metric = unwrap(metric)
        self._chord = isinstance(metric, CosineMetric)
        if isinstance(metric, ChebyshevMetric):
            self.p = math.inf
        elif isinstance(metric, ManhattanMetric):
            self.p = 1.0
        elif isinstance(metric, MinkowskiMetric):
            self.p = metric.p
        elif isinstance(metric, (EuclideanMetric, CosineMetric)):
            self.p = 2.0
        else:
            raise TypeError(
                f"GridIndex does not support {type(metric).__name__}; "
                "use the covertree or brute backend for general metrics"
            )

    @staticmethod
    def supports(metric: Metric) -> bool:
        """Whether :class:`GridIndex` can serve this metric."""
        return isinstance(
            unwrap(metric),
            (EuclideanMetric, MinkowskiMetric, ManhattanMetric,
             ChebyshevMetric, CosineMetric),
        )

    def coords(self, payloads: np.ndarray) -> np.ndarray:
        if self._chord:
            return unit_rows(payloads)
        arr = np.asarray(payloads, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        return arr

    def view_radius(self, radius):
        """Scalar or per-query radii mapped into view space."""
        if self._chord:
            return 2.0 * np.sin(np.clip(radius, 0.0, np.pi) / 2.0)
        return radius


class GridIndex(NeighborIndex):
    """Uniform-cell index for vector metrics over a flat cell table.

    Parameters
    ----------
    cell_width:
        Lattice pitch in view space.  Default: the build-time
        ``radius_hint`` (so range queries at the hinted radius touch
        only adjacent cells), falling back to a data-spread heuristic
        aiming at ``O(1)`` points per cell.
    max_grid_dims:
        Cap on the number of projected dimensions ``g`` (neighbor-cell
        enumeration is ``O((2·reach+1)^g)``).
    """

    name = "grid"

    def __init__(
        self, cell_width: Optional[float] = None, max_grid_dims: int = 3
    ) -> None:
        super().__init__()
        if cell_width is not None and cell_width <= 0:
            raise ValueError(f"cell_width must be positive, got {cell_width}")
        if max_grid_dims < 1:
            raise ValueError(f"max_grid_dims must be >= 1, got {max_grid_dims}")
        self.cell_width = cell_width
        self.max_grid_dims = int(max_grid_dims)

    @staticmethod
    def supports(metric: Metric) -> bool:
        """Whether this backend can index datasets under ``metric``."""
        return _GridView.supports(metric)

    # ------------------------------------------------------------------
    # The lattice and the cell table

    #: Below this stored-set size the projection variance is estimated
    #: from a dataset sample instead — an index built over one or two
    #: points (the incremental Gonzalez/streaming case) has no variance
    #: signal of its own, and the lattice dims are fixed at build time.
    VARIANCE_SAMPLE_MIN = 32

    def _build(self) -> None:
        dataset = self.dataset
        if not dataset.metric.is_vector_metric:
            raise TypeError("GridIndex requires a vector metric")
        self._view = _GridView(dataset.metric)
        coords = self._view.coords(dataset.gather(self.stored))
        # Project onto the highest-variance dimensions: the most
        # discriminative cheap sketch of the data.
        var_coords = coords
        if len(self.stored) < self.VARIANCE_SAMPLE_MIN:
            # Strictly increasing: the step is never below one.
            sample = np.linspace(
                0, dataset.n - 1, min(dataset.n, 1024)
            ).astype(np.intp)
            try:
                var_coords = self._view.coords(dataset.gather(sample))
            except ValueError:
                # e.g. a zero vector in the sample under the angular
                # view; the stored points' own (weak) signal stands.
                var_coords = coords
        variances = var_coords.var(axis=0)
        g = min(coords.shape[1], self.max_grid_dims)
        self._dims = np.sort(np.argsort(variances)[::-1][:g])
        proj = coords[:, self._dims]
        self._origin = proj.min(axis=0)
        self._width = self._pick_width(proj)
        # ``_rows[i]`` is the cell of stored id ``_ids[i]``; the sorted
        # table and the stencil are derived lazily from the lattice.
        self._ids = self.stored
        self._rows = self._cell_rows(coords)
        self._table: Optional[Tuple[np.ndarray, ...]] = None

    def _pick_width(self, proj: np.ndarray) -> float:
        if self.cell_width is not None:
            return float(self.cell_width)
        if self.radius_hint is not None:
            hinted = self._view.view_radius(self.radius_hint)
            if hinted > 0:
                return float(hinted)
        # Heuristic: aim at ~one occupied cell per stored point along
        # each projected axis, bounded away from degenerate spans.
        spans = proj.max(axis=0) - self._origin
        per_axis = max(1.0, float(len(proj)) ** (1.0 / proj.shape[1]))
        width = float(spans.max()) / per_axis
        return width if width > 0 else 1.0

    def _cell_rows(self, coords: np.ndarray) -> np.ndarray:
        """Integer cell rows of view coordinates, clipped to ±2^62 before
        the int64 cast (clipping only shrinks cell gaps, so the box
        lower bounds stay valid for points past the int64 range)."""
        cells = np.floor((coords[:, self._dims] - self._origin) / self._width)
        return np.clip(cells, -_CELL_LIMIT, _CELL_LIMIT).astype(np.int64)

    def _insert(self, new: np.ndarray) -> None:
        """Append the new points' cell rows; the lattice is fixed, and
        points outside the original bounding box simply land in new
        cells, so no rebuild is ever needed."""
        coords = self._view.coords(self.dataset.gather(new))
        self._ids = np.concatenate([self._ids, new])
        self._rows = np.concatenate([self._rows, self._cell_rows(coords)])
        self._table = None

    def _delete(self, removed: np.ndarray) -> None:
        """Drop the removed ids' rows.  The stored rows locate them, so
        deletion never reads (possibly recycled) payloads."""
        keep = ~in_sorted(self._ids, np.sort(removed))
        self._ids = self._ids[keep]
        self._rows = self._rows[keep]
        self._table = None

    def _cells(self) -> Tuple[np.ndarray, ...]:
        """The flat cell table ``(keys, rows, starts, ids)``: one sorted
        key and integer row per occupied cell, CSR ``starts`` into
        ``ids``, and each cell's stored ids ascending.  Materialized
        after any build, insert or delete, at the next query."""
        if self._table is None:
            by_id = np.argsort(self._ids, kind="stable")
            keys = _keys(self._rows)[by_id]
            order = np.argsort(keys, kind="stable")
            perm = by_id[order]
            keys = keys[order]
            first = _run_starts(keys)
            starts = np.append(np.flatnonzero(first), len(keys)).astype(np.intp)
            self._table = (
                keys[first], self._rows[perm][first], starts, self._ids[perm]
            )
        return self._table

    def _reach(
        self, rows: np.ndarray, view_r: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row, cell, bound)`` triples: for each cell row, the table
        positions of the occupied cells whose box lower bound — in cell
        widths, also returned — is within its view radius.

        A row's stencil is the cube of reach ``floor(r/w) + 1``; when
        that cube holds more offsets than there are occupied cells
        (radius spanning many cell widths), the row scans the occupied
        cells instead, which bounds it at ``O(#occupied cells)``.
        """
        keys, cell_rows, _, _ = self._cells()
        g = len(self._dims)
        with np.errstate(over="ignore"):
            limit = view_r * (_SLACK / self._width)
            reach = np.floor(view_r / self._width) + 1.0
        scan = reach > _max_reach(g, len(keys))
        budget = pairs_per_slice(self.dataset)
        parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        near = np.flatnonzero(~scan)
        if near.size:
            reach = reach[near].astype(np.intp)
            offs, bounds = _stencil(g, int(reach.max()), self._view.p)
            sizes = (2 * reach + 1) ** g
            for owner, t in _expand(np.zeros_like(sizes), sizes, budget):
                r = near[owner]
                lb = bounds[t]
                ok = lb <= limit[r]
                r, t, lb = r[ok], t[ok], lb[ok]
                want = _keys(np.take(rows, r, axis=0) + np.take(offs, t, axis=0))
                u = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
                hit = keys[u] == want
                parts.append((r[hit], u[hit], lb[hit]))
        if scan.any():
            far = np.flatnonzero(scan)
            per = np.full(far.size, len(keys), dtype=np.intp)
            for owner, u in _expand(np.zeros_like(per), per, budget):
                r = far[owner]
                # Gaps in float64: clipped rows may differ by 2^63.
                gaps = np.abs(
                    np.take(cell_rows, u, axis=0)
                    - np.take(rows, r, axis=0).astype(np.float64)
                )
                lb = _norm(np.maximum(gaps - 1.0, 0.0), self._view.p)
                ok = lb <= limit[r]
                parts.append((r[ok], u[ok], lb[ok]))
        r, u, lb = (np.concatenate(column) for column in zip(*parts))
        return r, u, lb

    # ------------------------------------------------------------------
    # Range queries

    def _count(self, n: int) -> None:
        """Attribute ``n`` exact-filter evaluations (one kernel call)."""
        self.n_candidates += n
        self.dataset.n_cross_blocks += 1
        self.dataset.n_cross_evals += n

    def _range(
        self, qpay: np.ndarray, radius, with_distances: bool
    ) -> CSRQueryResult:
        """One vectorized pass over a batch of query payloads.

        ``radius`` is a scalar or per-query array (see
        :func:`~repro.index.base.check_radii`).  Scalar decision-only
        queries ride the certified kernels (the float32 cascade on big
        blocks); the rest compare reduced distances against per-row
        reduced thresholds, and distances are expanded once at the end.
        """
        dataset = self.dataset
        metric = dataset.metric
        m = len(qpay)
        self.n_range_queries += m
        if m == 0 or self.n_stored == 0:  # deleted to empty
            return CSRQueryResult.empty(m, with_distances)
        per_query = isinstance(radius, np.ndarray)
        certified = not per_query and not with_distances
        if per_query:
            red = metric.reduce_thresholds(radius)
            view_r = np.asarray(self._view.view_radius(radius), dtype=np.float64)
        else:
            red = np.full(m, metric.reduce_threshold(radius))
            view_r = np.full(m, self._view.view_radius(radius), dtype=np.float64)
        # Queries sharing a cell form a group: its cells are looked up
        # once, at the group's widest radius (the union of its queries'
        # own stencils), and filtered to each query's radius below.
        qrows = self._cell_rows(self._view.coords(qpay))
        qkeys = _keys(qrows)
        order = np.argsort(qkeys, kind="stable")
        first = _run_starts(qkeys[order])
        group_at = np.append(np.flatnonzero(first), m)
        members = np.diff(group_at)
        widest = np.maximum.reduceat(view_r[order], group_at[:-1])
        group, u, lb = self._reach(np.take(qrows, order[first], axis=0), widest)
        _, _, starts, ids = self._cells()
        cell_n = np.diff(starts)
        qidx: List[np.ndarray] = []
        hit_ids: List[np.ndarray] = []
        reduced: List[np.ndarray] = []
        # A group is evaluated as one block when a block kernel beats
        # per-pair gathers: when it engages the float32 cascade or, for
        # distance queries, when the float64 block leaves the difference
        # kernel for the gram expansion.  Smaller groups ride the aligned
        # pair kernels, whose difference kernel is bit-identical to the
        # small blocks they replace.
        block_min = CASCADE_MIN_ELEMENTS
        if not certified:
            block_min = min(block_min, DIFF_KERNEL_MAX // qpay.shape[1] + 1)
        big = members * np.bincount(
            group, weights=cell_n[u], minlength=members.size
        ) >= block_min
        if big.any():
            by_group = np.argsort(group, kind="stable")
            cells_at = np.searchsorted(group[by_group], np.arange(members.size + 1))
            for gid in np.flatnonzero(big):
                sub = order[group_at[gid] : group_at[gid + 1]]
                own = u[by_group[cells_at[gid] : cells_at[gid + 1]]]
                _, pos = next(_expand(starts[own], cell_n[own]))
                cand = np.sort(ids[pos])
                targets = dataset.gather(cand)
                step = rows_per_block(
                    cand.size,
                    bytes_per_entry=CERTIFIED_BYTES_PER_ENTRY if certified else 8,
                )
                for lo in range(0, sub.size, step):
                    rows = sub[lo : lo + step]
                    queries = np.take(qpay, rows, axis=0)
                    if certified:
                        hits = metric.cross_certified(queries, targets, radius)
                    else:
                        block = metric.reduced_cross(queries, targets)
                        hits = block <= red[rows, None]
                    self._count(hits.size)
                    # One flat scan: a 2-D np.nonzero is several times slower.
                    r, c = np.divmod(np.flatnonzero(hits), hits.shape[1])
                    qidx.append(rows[r])
                    hit_ids.append(cand[c])
                    if with_distances:
                        reduced.append(block[r, c])
            small = ~big[group]
            group, u, lb = group[small], u[small], lb[small]
        # Every member of a small group pairs with the group's cells
        # within its own radius, then with those cells' points.
        pair, pos = next(_expand(group_at[group], members[group]))
        q = order[pos]
        with np.errstate(over="ignore"):
            ok = lb[pair] <= view_r[q] * (_SLACK / self._width)
        q, u = q[ok], u[pair[ok]]
        for owner, pos in _expand(starts[u], cell_n[u], pairs_per_slice(dataset)):
            if owner.size == 0:
                continue
            rows, cand = q[owner], ids[pos]
            queries = np.take(qpay, rows, axis=0)
            targets = dataset.gather(cand)
            if certified:
                hits = metric.pair_certified(queries, targets, radius)
            else:
                value = metric.reduced_pair_distances(queries, targets)
                hits = value <= red[rows]
            self._count(rows.size)
            qidx.append(rows[hits])
            hit_ids.append(cand[hits])
            if with_distances:
                reduced.append(value[hits])
        dists = None
        if with_distances:
            flat = np.concatenate(reduced) if reduced else np.empty(0)
            dists = [np.asarray(metric.expand_reduced(flat), dtype=np.float64)]
        return csr_from_parts(m, qidx, hit_ids, dists)

    def range_query_batch_csr(
        self, queries: IndexArray, radius, with_distances: bool = True
    ) -> CSRQueryResult:
        dataset = self._require_built()
        queries = np.asarray(queries, dtype=np.intp)
        radius = check_radii(radius, len(queries))
        return self._range(dataset.gather(queries), radius, with_distances)

    def range_query_points_csr(
        self, payloads, radius, with_distances: bool = True
    ) -> CSRQueryResult:
        self._require_built()
        radius = check_radii(radius, len(payloads))
        return self._range(
            np.asarray(payloads, dtype=np.float64), radius, with_distances
        )
