"""Algorithm 1: Radius-guided Gonzalez's algorithm (Section 2).

The classical Gonzalez k-center algorithm repeatedly picks the point
farthest from the chosen centers.  The radius-guided variant replaces the
center count ``k`` with an upper bound ``r̄`` on the covering radius: it
keeps adding farthest points until every point is within ``r̄`` of some
center.  The output center set ``E`` is therefore an ``r̄``-net of the
data — an ``r̄``-packing (centers pairwise ``> r̄`` apart) that covers
every point within ``r̄``.

Under the paper's Assumption 1 (inliers with constant doubling dimension
``D``), the number of iterations is ``O((Δ/r̄)^D) + z`` (Lemma 1) and each
iteration costs ``O(n)`` distance evaluations.

Batched implementation
----------------------
The textbook loop evaluates ``|E| · n`` distances, one full scan per
center.  This implementation feeds the same greedy sequence through the
batched distance engine instead:

- **active-set pruning** — once a point is within ``r̄`` of some center
  it can never again be the farthest point, so it leaves the working
  set; distance updates only touch the shrinking *active* (uncovered)
  set.  The selected center sequence matches the sequential greedy one
  whenever farthest distances are distinct; on exact ties the batched
  selection may break them differently (any choice yields a valid
  ``r̄``-net with the same covering/packing guarantees).
- **round batching** — centers are selected in rounds of up to
  ``round_size``.  Within a round, the next pick is certified using only
  the current top-``k`` candidates (everything outside the top-``k`` has
  a stale distance that can only shrink, so it cannot overtake the
  certified bound); the accumulated round centers are then applied to
  the whole active set with *one* many-to-many ``cross`` block instead
  of one scan per center.
- **reduced space** — all comparisons, minima and argminima run on the
  metric's monotone surrogate (squared distances for Euclidean), so hot
  blocks skip the ``sqrt`` entirely.
- **net-pruned by-products** — the nearest-center assignment of covered
  points is refined against only the centers within ``2r̄`` of their
  covering center, and the harvested ε-ball counts scan only the cover
  sets of centers within ``ε + r̄`` (both bounds are pure
  triangle-inequality facts), instead of rescanning all ``n`` points
  per center.

Incremental center index
------------------------
Earlier revisions harvested a dense ``(|E|, |E|)`` center-distance
matrix as a by-product — quadratic memory that ROADMAP.md flagged as
*the* blocker for GIST/DEEP1B-scale nets.  The loop now maintains a
**dynamic** :class:`~repro.index.base.NeighborIndex` over the growing
center set instead (``insert_batch`` after every round), and every
center-center question becomes a range query against it:

- the round flush's Feder–Greene pair pruning queries each pre-flush
  center that still owns active points at its *own* radius ``2·(max
  distance in its group)`` against a throwaway index over just that
  round's pending centers — per-query radii, so one wide outlier
  group cannot inflate every other group's query, and every harvested
  pair is a certified (old center, new center) steal candidate;
- the final nearest-center refinement queries all centers at ``2r̄``;
- the harvested ε-ball counts query at ``ε + max group radius``;
- the exact/approx merge graphs
  (:func:`repro.index.netgraph.net_neighbor_sets`) reuse the very same
  index instance — no second build.

Peak center-structure memory therefore scales with the *realized*
neighbor degree, ``O(|E|·deg)``, never ``O(|E|²)``; the run reports it
as the ``peak_center_matrix_bytes`` counter (surfaced through
``TimingBreakdown.counters``).  The dense matrix remains available as
the lazily computed :attr:`GonzalezNet.center_distances` property for
tests and small-scale inspection, but no solver path materializes it.

The optional **ε-ball counts** ``|B(e, ε) ∩ X|`` per center are still
harvested when requested; Algorithm 2 uses them to classify centers as
core points without extra work (Lemma 10).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.index.base import NeighborIndex
from repro.index.registry import (
    IndexSpec,
    build_dynamic_index,
    build_index,
    resolve_grown_index_name,
)
from repro.metricspace.dataset import MetricDataset, pairs_per_slice
from repro.utils.validation import check_epsilon

#: Centers selected per batched round; bounds the size of the in-round
#: candidate working set between consecutive pair-list flushes.
DEFAULT_ROUND_SIZE = 256

#: Candidate-set size at which the in-round sequential pick switches
#: from the eager argmax loop (O(k) per pick) to the lazy priority
#: queue (O(log k) per pick plus per-candidate refreshes).
LAZY_PICK_MIN = 64

#: Relative slack applied to triangle-inequality pruning radii so a
#: float rounding wobble can only *add* candidates, never drop one.
_PRUNE_SLACK = 1.0 + 1e-12


@dataclass
class GonzalezNet:
    """The output of Algorithm 1 plus harvested by-products.

    Attributes
    ----------
    dataset:
        The metric space the net was built on.
    r_bar:
        The covering-radius upper bound ``r̄`` used for the run.
    centers:
        Point indices of the centers ``E`` in insertion order.
    center_of:
        For each point ``p``, the *position* (into ``centers``) of its
        closest center ``c_p``.  Ties keep the earliest-inserted center.
    dist_to_center:
        ``dis(p, c_p)`` for each point; all entries are ``<= r̄``.
    index:
        The incremental :class:`~repro.index.base.NeighborIndex` the
        run maintained over the center set — handed straight to
        :func:`repro.index.netgraph.net_neighbor_sets` so the merge
        graphs need no second build.  ``None`` for nets assembled
        without one (the cover-tree extraction path).
    ball_counts_eps:
        The ε used for the harvested ball counts, if any.
    ball_counts:
        ``|B(e, ε) ∩ X|`` for each center (only if requested).
    counters:
        Construction instrumentation: ``peak_center_matrix_bytes``
        (peak bytes of center-pair working set — the ``O(|E|·deg)``
        replacement of the old dense ``|E|²·8`` matrix),
        ``net_range_queries`` / ``net_candidates`` (index work spent
        inside the loop), and ``net_build_evals`` for tree backends.
    iterations:
        Number of centers added == number of loop iterations + 1.
    """

    dataset: MetricDataset
    r_bar: float
    centers: List[int]
    center_of: np.ndarray
    dist_to_center: np.ndarray
    index: Optional[NeighborIndex] = None
    ball_counts_eps: Optional[float] = None
    ball_counts: Optional[np.ndarray] = None
    counters: Dict[str, int] = field(default_factory=dict)
    _center_distances: Optional[np.ndarray] = field(default=None, repr=False)
    _cover_sets: Optional[List[np.ndarray]] = field(default=None, repr=False)
    _position_of: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_centers(self) -> int:
        """``|E|``."""
        return len(self.centers)

    @property
    def has_dense_center_matrix(self) -> bool:
        """Whether the dense center matrix is *already* materialized
        (cover-tree nets, or after a :attr:`center_distances` access).
        Consumers use this to pick the free dense threshold scan over
        re-querying; nothing should materialize the matrix to get it."""
        return self._center_distances is not None

    @property
    def center_distances(self) -> np.ndarray:
        """Dense symmetric ``(|E|, |E|)`` center-distance matrix.

        Computed lazily (``O(|E|²)`` evaluations and memory) and
        cached; kept for tests, notebooks, and small nets.  No solver
        path touches it — the incremental :attr:`index` answers every
        center-center query sparsely.
        """
        if self._center_distances is None:
            dense = self.dataset.cross(self.centers, self.centers)
            dense = np.minimum(dense, dense.T)
            np.fill_diagonal(dense, 0.0)
            self._center_distances = dense
        return self._center_distances

    def positions_of(self) -> np.ndarray:
        """Point-index → center-position lookup (``-1`` off-centers)."""
        if self._position_of is None:
            lookup = np.full(self.dataset.n, -1, dtype=np.int64)
            lookup[np.asarray(self.centers, dtype=np.intp)] = np.arange(
                self.n_centers
            )
            self._position_of = lookup
        return self._position_of

    @property
    def iterations(self) -> int:
        """Iterations executed by Algorithm 1 (== ``|E|``)."""
        return len(self.centers)

    def cover_sets(self) -> List[np.ndarray]:
        """The cover sets ``C_e``: point indices assigned to each center.

        Computed lazily from ``center_of`` and cached.  Every point
        belongs to exactly one cover set, and ``C_e ⊆ B(e, r̄)``.
        """
        if self._cover_sets is None:
            order = np.argsort(self.center_of, kind="stable")
            sorted_assign = self.center_of[order]
            boundaries = np.searchsorted(
                sorted_assign, np.arange(self.n_centers + 1)
            )
            self._cover_sets = [
                order[boundaries[j] : boundaries[j + 1]]
                for j in range(self.n_centers)
            ]
        return self._cover_sets

    def neighbor_centers(self, threshold: float) -> List[np.ndarray]:
        """Neighbor ball-center sets at a distance ``threshold``.

        For each center position ``j``, returns the positions of centers
        ``e`` with ``dis(e, e_j) <= threshold`` (including ``j`` itself).
        With ``threshold = 2r̄ + ε`` this is the paper's ``A_p`` of
        Eq. (1) for every ``p`` with ``c_p = e_j``; Algorithm 2 uses the
        enlarged ``threshold = 4r̄ + ε`` of Eq. (13).

        Answered with sparse range queries through :attr:`index` when
        the net carries one (nothing quadratic is materialized); nets
        without an index — or with the dense matrix already in hand —
        threshold that matrix directly.
        """
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        m = self.n_centers
        if self.index is not None and not self.has_dense_center_matrix:
            from repro.index.netgraph import center_neighbor_sets

            return center_neighbor_sets(self, float(threshold), self.index)
        rows, cols = np.nonzero(self.center_distances <= threshold)
        split = np.searchsorted(rows, np.arange(m + 1))
        return [cols[split[j] : split[j + 1]] for j in range(m)]

    def ball_count_for(self, eps: float) -> np.ndarray:
        """``|B(e, ε) ∩ X|`` for each center.

        Served from the harvested counts when ``ε`` matches; otherwise
        recomputed with blocked cross kernels over all points
        (``O(|E| n)`` evaluations — the same order as the textbook
        Algorithm 1 itself).
        """
        eps = check_epsilon(eps)
        if self.ball_counts is not None and self.ball_counts_eps == eps:
            return self.ball_counts
        red_eps = self.dataset.metric.reduce_threshold(eps)
        counts = np.empty(self.n_centers, dtype=np.int64)
        pos = 0
        for chunk, block in self.dataset.cross_blocks(
            queries=self.centers, reduced=True
        ):
            counts[pos : pos + len(chunk)] = np.count_nonzero(
                block <= red_eps, axis=1
            )
            pos += len(chunk)
        return counts

    def max_cover_radius(self) -> float:
        """The realized covering radius ``max_p dis(p, c_p)`` (``<= r̄``)."""
        return float(self.dist_to_center.max())

    def packing_violated(self) -> bool:
        """Sanity check: ``True`` if two centers are ``<= r̄`` apart
        (should never happen; used by tests)."""
        m = self.n_centers
        if m < 2:
            return False
        if self.index is not None and not self.has_dense_center_matrix:
            results = self.index.range_query_batch_csr(
                np.asarray(self.centers, dtype=np.intp),
                self.r_bar,
                with_distances=False,
            )
            # Each center reports itself at distance 0; any second hit
            # is a packing violation.
            return bool((results.counts() > 1).any())
        off_diag = self.center_distances[~np.eye(m, dtype=bool)]
        return bool(off_diag.min() <= self.r_bar)


def _group_boundaries(assign: np.ndarray, m: int):
    """Stable grouping of positions by assigned center: returns
    ``(order, boundaries)`` with group ``j`` at
    ``order[boundaries[j]:boundaries[j+1]]``."""
    order = np.argsort(assign, kind="stable")
    boundaries = np.searchsorted(assign[order], np.arange(m + 1))
    return order, boundaries




def _lazy_sequential_picks(
    cand: np.ndarray,
    top_cross: np.ndarray,
    red_r: float,
    bound: float,
    budget: float,
) -> List[int]:
    """In-round farthest-first picks via a lazy priority queue.

    Cached candidate distances are *upper bounds* (picks only shrink
    them), so a candidate is refreshed only when it surfaces at the top
    of the max-heap: fold in the picks made since its last sync, and if
    its value survives unchanged it is certified as the true farthest
    candidate — the classic lazy-greedy argument.  A pick therefore
    costs ``O(log k)`` heap work plus one refresh, instead of the eager
    loop's ``O(k)`` argmax + full update.

    The produced pick sequence is *identical* to the eager loop's,
    including exact-tie breaking: the heap orders by ``(-value,
    position)``, matching ``np.argmax``'s first-maximum rule on the
    fully-updated array.

    ``cand`` is mutated (lazily synced); callers must not reuse it as
    an up-to-date distance array afterwards.
    """
    heap = [(-v, i) for i, v in enumerate(cand.tolist())]
    heapq.heapify(heap)
    synced = np.zeros(cand.size, dtype=np.int64)
    picks: List[int] = []
    while heap and len(picks) < budget:
        neg_v, pos = heapq.heappop(heap)
        v = -neg_v
        if v > cand[pos]:
            continue  # stale duplicate; a fresher entry is in the heap
        n_picks = len(picks)
        if synced[pos] < n_picks:
            fresh = min(float(cand[pos]), float(top_cross[picks[synced[pos]:], pos].min()))
            synced[pos] = n_picks
            if fresh < v:
                cand[pos] = fresh
                heapq.heappush(heap, (-fresh, pos))
                continue
        if v <= red_r or v < bound:
            break
        picks.append(pos)
        synced[pos] = len(picks)
    return picks


def _expand_pairs(order, boundaries, ks, js, vals=None):
    """Expand center-pair adjacency into a COO point-center pair list.

    For every adjacent center pair ``(k, j)``, emits the members of
    group ``k`` (positions into ``order``'s domain) paired with center
    ``j``.  Fully vectorized; returns ``(points, centers)`` arrays of
    equal length — plus ``vals`` repeated per emitted member when a
    per-pair value array (e.g. the pair's center-center distance) is
    supplied.
    """
    starts = boundaries[ks]
    lengths = boundaries[ks + 1] - starts
    nonempty = lengths > 0
    starts, lengths, js = starts[nonempty], lengths[nonempty], js[nonempty]
    if vals is not None:
        vals = np.asarray(vals)[nonempty]
    if lengths.size == 0:
        empty = np.empty(0, dtype=np.int64)
        if vals is not None:
            return empty, empty, np.empty(0, dtype=np.float64)
        return empty, empty
    ends = np.cumsum(lengths)
    flat = (
        np.arange(ends[-1])
        - np.repeat(ends - lengths, lengths)
        + np.repeat(starts, lengths)
    )
    if vals is not None:
        return order[flat], np.repeat(js, lengths), np.repeat(vals, lengths)
    return order[flat], np.repeat(js, lengths)


def radius_guided_gonzalez(
    dataset: MetricDataset,
    r_bar: float,
    eps_for_counts: Optional[float] = None,
    first_index: int = 0,
    max_centers: Optional[int] = None,
    round_size: Optional[int] = None,
    index: IndexSpec = None,
) -> GonzalezNet:
    """Run Algorithm 1 on ``dataset`` with radius bound ``r̄``.

    Parameters
    ----------
    dataset:
        The input metric space ``(X, dis)``.
    r_bar:
        Upper bound on the covering radius; the loop stops once
        ``d_max <= r̄``.
    eps_for_counts:
        If given, harvest ``|B(e, ε)|`` per center (computed with
        net-pruned batch kernels, see module docstring).
    first_index:
        The arbitrary starting point ``p_0`` (deterministic default 0).
    max_centers:
        Optional hard cap on ``|E|`` as a runaway guard for adversarial
        inputs; ``None`` (default) matches the paper exactly.
    round_size:
        Centers selected per batched round (performance knob; the
        output is independent of it except for exact-tie breaking, see
        module docstring).  ``None`` (default) picks
        ``DEFAULT_ROUND_SIZE`` for vector metrics and single-pick
        rounds for scalar metrics, whose candidate blocks would cost
        real distance evaluations.
    index:
        Backend spec (see :mod:`repro.index`) for the incremental
        center index the loop maintains; ``None`` defers to the
        process default.  The pick sequence and every output field are
        backend-independent — the backend only changes how the
        center-center range queries are pruned.  The built index rides
        along on :attr:`GonzalezNet.index` for downstream reuse.

    Returns
    -------
    GonzalezNet

    Notes
    -----
    Total cost is ``O(|E| · n)`` distance evaluations worst-case, where
    ``|E| = O((Δ/r̄)^D) + z`` under Assumption 1 (Lemma 1); the batched
    active-set implementation typically evaluates far fewer because
    covered points leave the working set.  Peak center-structure
    memory is ``O(|E|·deg)``, reported as the
    ``peak_center_matrix_bytes`` counter.
    """
    if r_bar <= 0 or not np.isfinite(r_bar):
        raise ValueError(f"r_bar must be positive and finite, got {r_bar}")
    if round_size is None:
        # Scalar metrics pay real distance evaluations for the k x k
        # candidate blocks, which only amortize numpy overhead; their
        # rounds degrade to single picks (still with pair-pruned
        # flushes, which do save evaluations).
        round_size = (
            DEFAULT_ROUND_SIZE if dataset.metric.is_vector_metric else 1
        )
    if round_size < 1:
        raise ValueError(f"round_size must be >= 1, got {round_size}")
    n = dataset.n
    if not 0 <= first_index < n:
        raise ValueError(f"first_index {first_index} out of range for n={n}")

    harvest_counts = eps_for_counts is not None
    if harvest_counts:
        eps_for_counts = check_epsilon(eps_for_counts)

    metric = dataset.metric
    red_r = metric.reduce_threshold(r_bar)

    centers: List[int] = [first_index]
    red_dist = np.asarray(
        dataset.reduced_distances_from(first_index), dtype=np.float64
    )
    # True distances mirror red_dist for the triangle-inequality pruning
    # below (scaled comparisons like d(c,e) < 2 d(p,e) are not
    # expressible in a generic monotone reduced space).
    true_dist = np.asarray(metric.expand_reduced(red_dist), dtype=np.float64)
    center_of = np.zeros(n, dtype=np.int64)
    active = np.flatnonzero(red_dist > red_r)
    position_of = np.full(n, -1, dtype=np.int64)
    position_of[first_index] = 0
    # The incremental center index: queried by every round flush, the
    # final refinement and the ball-count harvest, then handed to the
    # caller on the net.  The hint matches the widest post-loop query
    # radius so grid cells come out usefully sized.  Name specs resolve
    # through the grown-index policy: auto resolves against the
    # dataset size (the worst-case |E|, since the index starts from one
    # center) and an auto-picked grid is probe-validated on a dataset
    # sample, falling back to brute on degenerate projections.
    hint = 2.0 * r_bar + (eps_for_counts if harvest_counts else 0.0)
    index_spec: IndexSpec = index
    if index_spec is None or isinstance(index_spec, str):
        index_spec = resolve_grown_index_name(
            index, dataset, n, radius_hint=hint
        )
    center_index = build_dynamic_index(
        index_spec, dataset, indices=[first_index], radius_hint=hint
    )
    # The round flush probes each round's pending centers through a
    # throwaway index over *only those centers* (at most one round's
    # worth of points).  Reuse the resolved backend family, but never
    # the center_index instance itself — building an instance spec
    # twice would rebuild it in place.
    flush_spec: IndexSpec = (
        type(index_spec) if isinstance(index_spec, NeighborIndex) else index_spec
    )
    flush_counters: Dict[str, int] = {}
    net_counters: Dict[str, int] = {"peak_center_matrix_bytes": 0}

    def track_pairs(n_pairs: int, bytes_per_pair: int = 24) -> None:
        """Record the peak concurrent center-pair working set — the
        quantity that used to be the dense ``|E|²·8`` matrix."""
        net_counters["peak_center_matrix_bytes"] = max(
            net_counters["peak_center_matrix_bytes"], n_pairs * bytes_per_pair
        )

    flush_base = 1  # centers already reflected in red_dist/center_of
    round_cap = int(np.clip(active.size // 64, min(8, round_size), round_size))

    def flush_pending() -> None:
        """Fold all pending centers into red_dist/center_of/active."""
        nonlocal flush_base, active
        base = flush_base
        if len(centers) == base:
            active = active[red_dist[active] > red_r]
            return
        pending = np.asarray(centers[base:], dtype=np.intp)
        act_assign = center_of[active]
        group_max = np.zeros(base, dtype=np.float64)
        np.maximum.at(group_max, act_assign, true_dist[active])
        # (new center, old center) pairs that can possibly steal points:
        # a pending center c can take a point p from old group e only if
        # d(p, c) < d(p, e) <= g_e, hence d(c, e) < 2·g_e by the
        # triangle inequality — a *per-group* bound.  Each old center
        # with active points queries a throwaway index over just this
        # round's pending centers at its own radius 2·g_e, so every
        # harvested hit is a certified steal pair.  An earlier revision
        # queried the pending side against the full center index at the
        # *global* bound 2·max(g_e) — one distant outlier group
        # inflated every query to the widest group's radius and dragged
        # in center-center pairs no group could use.  Stale true
        # distances are upper bounds, so the pruning is a superset of
        # the exact one either way.
        qpos = np.flatnonzero(group_max > 0.0)
        es = np.empty(0, dtype=np.int64)
        js_new = np.empty(0, dtype=np.int64)
        d_ce = np.empty(0, dtype=np.float64)
        if qpos.size:
            radii = 2.0 * group_max[qpos] * _PRUNE_SLACK
            pending_index = build_index(
                flush_spec, dataset, indices=pending,
                radius_hint=float(radii.max()),
            )
            results = pending_index.range_query_batch_csr(
                np.asarray(centers[:base], dtype=np.intp)[qpos], radii
            )
            for counter, value in pending_index.counters().items():
                flush_counters[counter] = (
                    flush_counters.get(counter, 0) + int(value)
                )
            if results.ids.size:
                track_pairs(results.ids.size)
                es = np.repeat(qpos, results.counts())
                js_new = position_of[results.ids] - base
                d_ce = results.dists
        if es.size:
            # Sort only the actives whose group is actually reachable.
            affected = np.zeros(base, dtype=bool)
            affected[es] = True
            sub_active = active[affected[act_assign]]
            order, boundaries = _group_boundaries(center_of[sub_active], base)
            pair_pos, pair_new, pair_d = _expand_pairs(
                order, boundaries, es, js_new, vals=d_ce
            )
            pair_point = sub_active[pair_pos]
            # Per-point tightening of the group-level bound: pair_d is
            # dis(new center, the point's current center).
            keep = pair_d < 2.0 * true_dist[pair_point] * _PRUNE_SLACK
            pair_point, pair_new = pair_point[keep], pair_new[keep]
            if pair_point.size:
                d = dataset.pair(pair_point, pending[pair_new], reduced=True)
                # All updates stay confined to the pair set: strictly
                # improved points reset to a sentinel so the position
                # minimum picks the winning (earliest) new center; on
                # exact ties the frozen (earlier) center survives.
                old = red_dist[pair_point]
                np.minimum.at(red_dist, pair_point, d)
                strict = d < old
                improved_points = pair_point[strict]
                center_of[improved_points] = len(centers)
                hit = d <= red_dist[pair_point]
                np.minimum.at(center_of, pair_point[hit], base + pair_new[hit])
                true_dist[improved_points] = metric.expand_reduced(
                    red_dist[improved_points]
                )
        active = active[red_dist[active] > red_r]
        flush_base = len(centers)

    while active.size:
        if max_centers is not None and len(centers) >= max_centers:
            break
        cur = red_dist[active]
        k = min(round_cap, active.size)
        if active.size > k:
            part = np.argpartition(cur, active.size - k)
            top = part[active.size - k :]
            # Everything outside the top-k is <= this (possibly stale)
            # bound, and both stale and true distances only shrink, so a
            # certified in-round pick >= the bound is the true global
            # farthest point.
            bound = float(cur[part[active.size - k]])
        else:
            top = np.arange(active.size)
            bound = -np.inf
        top_idx = active[top]
        cand = cur[top].copy()
        # All candidate-candidate distances up front: the in-round picks
        # then touch no distance kernel at all.
        top_cross = dataset.cross(top_idx, top_idx, reduced=True)

        round_centers: List[int] = []
        # Batch-greedy waves: in descending candidate order, the picks
        # are exactly the sequential greedy picks as long as no earlier
        # pick reduces a later candidate (checked against top_cross), so
        # each whole prefix is certified in one vectorized step.  Rounds
        # full of mutually distant candidates (scattered outliers)
        # collapse to a few waves; interacting picks fall through to the
        # sequential loop below.
        kk = cand.size
        while True:
            order_desc = np.argsort(-cand, kind="stable")
            sorted_cand = cand[order_desc]
            mutual = top_cross[np.ix_(order_desc, order_desc)]
            reduces = mutual < sorted_cand[None, :]
            np.fill_diagonal(reduces, False)
            stop = (sorted_cand <= red_r) | (sorted_cand < bound)
            if kk > 1:
                cum = np.logical_or.accumulate(reduces, axis=0)
                stop[1:] |= cum[np.arange(kk - 1), np.arange(1, kk)]
            prefix = int(np.argmax(stop)) if bool(stop.any()) else kk
            if max_centers is not None:
                prefix = min(prefix, max_centers - len(centers) - len(round_centers))
            if prefix <= 0:
                break
            picks = order_desc[:prefix]
            round_centers.extend(int(top_idx[p]) for p in picks)
            np.minimum(cand, top_cross[picks].min(axis=0), out=cand)
            # Re-certifying pays for itself only on sizable waves.
            if prefix < 16:
                break

        budget = (
            np.inf
            if max_centers is None
            else max_centers - len(centers) - len(round_centers)
        )
        if cand.size >= LAZY_PICK_MIN:
            # Interacting tail of the round: lazy-priority-queue picks
            # (see _lazy_sequential_picks) instead of one O(k) argmax +
            # full distance update per pick.
            round_centers.extend(
                int(top_idx[p])
                for p in _lazy_sequential_picks(cand, top_cross, red_r, bound, budget)
            )
        else:
            while budget > 0:
                best = int(np.argmax(cand))
                best_val = float(cand[best])
                if best_val <= red_r or best_val < bound:
                    break
                round_centers.append(int(top_idx[best]))
                budget -= 1
                np.minimum(cand, top_cross[best], out=cand)
        round_cap = int(
            np.clip(4 * len(round_centers), min(8, round_size), round_size)
        )

        if round_centers:
            base = len(centers)
            centers.extend(round_centers)
            position_of[np.asarray(round_centers, dtype=np.intp)] = (
                base + np.arange(len(round_centers))
            )
        flush_pending()
        if round_centers:
            # The flush probed the pending centers through its own
            # throwaway index; only now do they join the center index.
            center_index.insert_batch(
                np.asarray(round_centers, dtype=np.intp)
            )

    flush_pending()
    m = len(centers)
    centers_arr = np.asarray(centers, dtype=np.intp)

    # Refine covered points to their *nearest* center: the frozen
    # assignment is within r̄, so any closer center must lie within 2r̄
    # of it.  The candidate (point, center) pairs come from one range
    # query per center against the finished index (O(|E|·deg) pairs)
    # and are evaluated with one aligned pair kernel — no per-group
    # Python loop, no dense adjacency.
    covered = red_dist <= red_r
    cov_idx = np.flatnonzero(covered)
    if m > 1 and cov_idx.size:
        order, boundaries = _group_boundaries(center_of[cov_idx], m)
        results = center_index.range_query_batch_csr(
            centers_arr, 2.0 * r_bar * _PRUNE_SLACK, with_distances=False
        )
        ks = results.query_rows()
        js = position_of[results.ids]
        self_hit = ks != js
        ks, js = ks[self_hit], js[self_hit]
        track_pairs(ks.size, bytes_per_pair=16)
        pair_pos, pair_center = _expand_pairs(order, boundaries, ks, js)
        if pair_pos.size:
            pair_point = cov_idx[pair_pos]
            total = pair_point.size
            pair_slice = pairs_per_slice(dataset)
            best = red_dist.copy()
            if total <= pair_slice:
                d = dataset.pair(
                    pair_point, centers_arr[pair_center], reduced=True
                )
                np.minimum.at(best, pair_point, d)
                hit = d <= best[pair_point]
                pos = np.where(red_dist <= best, center_of, m)
                np.minimum.at(pos, pair_point[hit], pair_center[hit])
            else:
                # Memory-bounded two-phase: min pass, then tie pass.
                for lo in range(0, total, pair_slice):
                    sl = slice(lo, lo + pair_slice)
                    d = dataset.pair(
                        pair_point[sl], centers_arr[pair_center[sl]], reduced=True
                    )
                    np.minimum.at(best, pair_point[sl], d)
                pos = np.where(red_dist <= best, center_of, m)
                for lo in range(0, total, pair_slice):
                    sl = slice(lo, lo + pair_slice)
                    d = dataset.pair(
                        pair_point[sl], centers_arr[pair_center[sl]], reduced=True
                    )
                    hit = d <= best[pair_point[sl]]
                    np.minimum.at(pos, pair_point[sl][hit], pair_center[sl][hit])
            center_of = pos
            red_dist = best

    # d(e, e) = 0 exactly by the metric axioms; pin it so block-kernel
    # cancellation jitter (the squared-norm trick) cannot leak in.
    center_of[centers_arr] = np.arange(m)
    red_dist[centers_arr] = metric.reduce_threshold(0.0)

    true_dist = np.asarray(metric.expand_reduced(red_dist), dtype=np.float64)

    counts: Optional[np.ndarray] = None
    if harvest_counts:
        counts = pruned_ball_counts(
            dataset, centers_arr, center_index, eps_for_counts,
            points=np.arange(n, dtype=np.intp), assign=center_of,
            dists=true_dist, position_of=position_of,
            track_pairs=track_pairs,
        )

    # Construction instrumentation lives on the net; the index counters
    # restart from zero so downstream consumers (the merge graphs) see
    # clean per-phase deltas.
    index_counters = dict(center_index.counters())
    for counter, value in flush_counters.items():
        index_counters[counter] = index_counters.get(counter, 0) + value
    for counter, value in index_counters.items():
        key = {"n_range_queries": "net_range_queries",
               "n_candidates": "net_candidates",
               "n_build_evals": "net_build_evals"}.get(counter, counter)
        net_counters[key] = int(value)
    center_index.reset_counters()

    net = GonzalezNet(
        dataset=dataset,
        r_bar=float(r_bar),
        centers=centers,
        center_of=center_of,
        dist_to_center=true_dist,
        index=center_index,
        ball_counts_eps=eps_for_counts if harvest_counts else None,
        ball_counts=counts,
        counters=net_counters,
    )
    net._position_of = position_of
    return net


def pruned_ball_counts(
    dataset: MetricDataset,
    centers_arr: np.ndarray,
    center_index: NeighborIndex,
    eps: float,
    *,
    points: np.ndarray,
    assign: np.ndarray,
    dists: np.ndarray,
    position_of: Optional[np.ndarray] = None,
    track_pairs=None,
) -> np.ndarray:
    """Per-center contributions ``|B(e, ε) ∩ points|`` via cover pruning.

    ``points``, ``assign`` and ``dists`` are aligned arrays: for each
    listed point, the *position* (into ``centers_arr``) of a center
    within ``dists`` of it.  With ``points = arange(n)`` this is the
    classical harvested ball count of Algorithm 1; the sharded engine
    calls it per shard (each shard's points against the *merged* center
    set) and sums the results — ``|B(e, ε) ∩ X| = Σ_s |B(e, ε) ∩ X_s|``.

    Two triangle-inequality facts bound the work per center pair
    ``(k, j)`` with group radius ``g_k = max_{p: assign=k} d(p, e_k)``:

    - ``d(e_k, e_j) > ε + g_k``  →  no point of group ``k`` can be
      within ε of ``e_j`` (skip the group entirely);
    - ``d(e_k, e_j) + g_k < ε``  →  every point of group ``k`` is
      within ε of ``e_j`` (count the whole group without evaluating
      anything).

    The annulus pairs come from one range query per *occupied* center
    against ``center_index`` at that center's own bound ``ε + g_k``
    (per-query radii) — ``O(|E|·deg)`` pairs, never a dense matrix.
    Only groups in the annulus between the two bounds are evaluated,
    with the certified aligned pair kernel over the COO pair list.
    """
    m = len(centers_arr)
    counts = np.zeros(m, dtype=np.int64)
    points = np.asarray(points, dtype=np.intp)
    if points.size == 0:
        return counts
    if position_of is None:
        position_of = np.full(dataset.n, -1, dtype=np.int64)
        position_of[centers_arr] = np.arange(m)
    if track_pairs is None:
        def track_pairs(n_pairs, bytes_per_pair=24):
            return None

    order, boundaries = _group_boundaries(assign, m)
    group_sizes = np.diff(boundaries)
    group_radius = np.zeros(m, dtype=np.float64)
    np.maximum.at(group_radius, assign, dists)

    # Row thresholds fold the group radius in.  The wholesale bound
    # keeps a strict margin so kernel rounding in a direct evaluation
    # can never disagree with the wholesale decision.
    reach_at = (eps + group_radius) * _PRUNE_SLACK
    whole_at = eps * (1.0 - 1e-12) - group_radius
    # Centers with no assigned points (a shard never touches most of
    # the merged center set) contribute nothing — skip their queries.
    qpos = np.flatnonzero(group_sizes > 0)
    if qpos.size == 0:
        return counts
    results = center_index.range_query_batch_csr(
        centers_arr[qpos], reach_at[qpos]
    )
    ks = np.repeat(qpos, results.counts())
    js = position_of[results.ids]
    d_kj = results.dists
    track_pairs(ks.size)
    whole = d_kj <= whole_at[ks]
    np.add.at(counts, js[whole], group_sizes[ks[whole]])
    ks, js = ks[~whole], js[~whole]
    pair_point, pair_center = _expand_pairs(
        points[order], boundaries, ks, js
    )
    pair_slice = pairs_per_slice(dataset)
    for lo in range(0, pair_point.size, pair_slice):
        sl = slice(lo, lo + pair_slice)
        within = dataset.pair_certified(
            pair_point[sl], centers_arr[pair_center[sl]], eps
        )
        counts += np.bincount(
            pair_center[sl][within], minlength=m
        ).astype(np.int64)
    return counts
