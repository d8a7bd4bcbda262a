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
  ``round_size``.  Each in-round pick is the argmax over the current
  top-``k`` candidates (everything outside the top-``k`` has a stale
  distance that can only shrink, so it cannot overtake the certified
  bound); the round's centers then reach the active set through one
  pair-pruned flush (see below) instead of one scan per center.
- **reduced space** — all comparisons, minima and argminima run on the
  metric's monotone surrogate (squared distances for Euclidean), so hot
  blocks skip the ``sqrt`` entirely.
- **net-pruned by-products** — the nearest-center assignment of
  covered non-center points is refined against only the centers within
  ``2r̄`` of their covering center (a center is its own nearest
  center), and the harvested ε-ball counts scan only the cover sets of
  centers within ``ε + r̄`` (both bounds are pure triangle-inequality
  facts), instead of rescanning all ``n`` points per center.

Incremental center index
------------------------
The round flush needs no center index: it probes each old center that
still owns active points at its *own* radius ``2·(max distance in its
group)`` against just that round's pending centers — per-query radii,
so one wide outlier group cannot inflate every other group's probe, and
every hit is a certified (old center, new center) steal candidate.  A
probe block of at most ``CASCADE_MIN_ELEMENTS`` pairs is one brute
block; a larger one queries a throwaway index of the resolved backend
over the pending centers, so rounds with many interacting centers keep
their pruning.  The loop's centers then join a **dynamic**
:class:`~repro.index.base.NeighborIndex` in one ``insert_batch`` (it
was built on the first center, which fixes a grid's lattice), and
every later center-center question is a range query against it:

- the final nearest-center refinement queries, at ``2r̄``, the centers
  that own covered non-center points;
- the harvested ε-ball counts query at ``ε + max group radius``;
- the exact/approx merge graphs
  (:func:`repro.index.netgraph.net_neighbor_sets`) reuse the very same
  index instance — no second build.

Each of these answers is a CSR batch, and the point groups it fans out
to (the cover sets, :meth:`GonzalezNet.cover`) are one
:class:`~repro.core.flatgroups.FlatGroups`.  Peak center-structure
memory therefore scales with the *realized* neighbor degree,
``O(|E|·deg)``, never ``O(|E|²)``; the run reports it as the
``peak_center_matrix_bytes`` counter (surfaced through
``TimingBreakdown.counters``).

The optional **ε-ball counts** ``|B(e, ε) ∩ X|`` per center are still
harvested when requested; Algorithm 2 uses them to classify centers as
core points without extra work (Lemma 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.flatgroups import FlatGroups, concat_ranges
from repro.index.base import NeighborIndex
from repro.index.registry import (
    IndexSpec,
    build_index,
    resolve_grown_index_name,
)
from repro.metricspace.dataset import MetricDataset, pairs_per_slice
from repro.metricspace.precision import CASCADE_MIN_ELEMENTS, PRUNE_SLACK
from repro.utils.validation import check_epsilon

#: Centers selected per batched round; bounds the size of the in-round
#: candidate working set between consecutive pair-list flushes.
DEFAULT_ROUND_SIZE = 256


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
        (peak bytes of the ``O(|E|·deg)`` center-pair working set),
        ``net_range_queries`` / ``net_candidates`` (probe and index
        work, a brute block counting all its pairs), ``net_build_evals``
        for tree backends, and ``net_flush_rounds`` /
        ``net_brute_flushes`` (round flushes that probed, and those
        whose probe was one brute block).
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
    _cover: Optional[FlatGroups] = field(default=None, repr=False)
    _position_of: Optional[np.ndarray] = field(default=None, repr=False)
    _radii: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_centers(self) -> int:
        """``|E|``."""
        return len(self.centers)

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

    def cover(self) -> FlatGroups:
        """The cover sets ``C_e``: group ``j`` holds the point indices
        assigned to center position ``j``, ascending.

        Computed lazily from ``center_of`` and cached.  Every point
        belongs to exactly one cover set, and ``C_e ⊆ B(e, r̄)``.
        """
        if self._cover is None:
            self._cover = FlatGroups.from_assignment(
                np.arange(self.dataset.n), self.center_of, self.n_centers
            )
        return self._cover

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

    def realized_radii(self) -> np.ndarray:
        """Each center's realized radius ``rad(e) = max_{p ∈ C_e}
        dis(p, e)`` (``0`` for a singleton or empty cover set), the
        per-center bound Lemma 2 needs; computed once and cached."""
        if self._radii is None:
            radii = np.zeros(self.n_centers, dtype=np.float64)
            np.maximum.at(radii, self.center_of, self.dist_to_center)
            self._radii = radii
        return self._radii

    def packing_violated(self) -> bool:
        """Sanity check: ``True`` if two centers are ``<= r̄`` apart
        (should never happen; used by tests)."""
        m = self.n_centers
        if m < 2:
            return False
        if self.index is not None:
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
    # The incremental center index: queried by the final refinement
    # and the ball-count harvest, then handed to the caller on the net.
    # The hint matches the widest post-loop query radius so grid cells
    # come out usefully sized.  Name specs resolve through the
    # grown-index policy: auto resolves against the dataset size (the
    # worst-case |E|, since the index starts from one center) and an
    # auto-picked grid is probe-validated on a dataset sample, falling
    # back to brute on degenerate projections.
    hint = 2.0 * r_bar + (eps_for_counts if harvest_counts else 0.0)
    index_spec: IndexSpec = index
    if index_spec is None or isinstance(index_spec, str):
        index_spec = resolve_grown_index_name(
            index, dataset, n, radius_hint=hint
        )
    center_index = build_index(
        index_spec, dataset, indices=[first_index], radius_hint=hint
    )
    # A round flush whose probe block is too large for one brute block
    # builds a throwaway index over the pending centers.  It reuses the
    # resolved backend family, but never the center_index instance
    # itself — building an instance spec twice would rebuild it in
    # place.
    flush_spec: IndexSpec = (
        type(index_spec) if isinstance(index_spec, NeighborIndex) else index_spec
    )
    flush_counters: Dict[str, int] = {"n_range_queries": 0, "n_candidates": 0}
    net_counters: Dict[str, int] = {
        "peak_center_matrix_bytes": 0,
        "net_flush_rounds": 0,
        "net_brute_flushes": 0,
    }

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
        # (old center, new center) pairs that can possibly steal points:
        # a pending center c can take a point p from old group e only if
        # d(p, c) < d(p, e) <= g_e, hence d(c, e) < 2·g_e by the
        # triangle inequality — a *per-group* bound.  Each old center
        # with active points probes the pending centers at its own
        # radius 2·g_e, so one distant outlier group cannot inflate
        # every other group's reach, and every hit is a certified steal
        # candidate.  Stale true distances are upper bounds, so the
        # pruning is a superset of the exact one; any superset gives the
        # same fold below, which is why the probe's backend (one brute
        # block or a throwaway index) cannot change the net.
        qpos = np.flatnonzero(group_max > 0.0)
        if qpos.size:
            net_counters["net_flush_rounds"] += 1
            queries = np.asarray(centers[:base], dtype=np.intp)[qpos]
            radii = 2.0 * group_max[qpos] * PRUNE_SLACK
            if qpos.size * pending.size <= CASCADE_MIN_ELEMENTS:
                # A small probe is one brute block: no index to build,
                # and every pair it evaluates counts as a candidate.
                net_counters["net_brute_flushes"] += 1
                block = dataset.cross(queries, pending, reduced=True)
                rows, js_new = np.nonzero(
                    block <= metric.reduce_thresholds(radii)[:, None]
                )
                counts = np.bincount(rows, minlength=qpos.size)
                d_ce = metric.expand_reduced(block[rows, js_new])
                flush_counters["n_range_queries"] += qpos.size
                flush_counters["n_candidates"] += block.size
            else:
                pending_index = build_index(
                    flush_spec, dataset, indices=pending,
                    radius_hint=float(radii.max()),
                )
                results = pending_index.range_query_batch_csr(queries, radii)
                for counter, value in pending_index.counters().items():
                    flush_counters[counter] = (
                        flush_counters.get(counter, 0) + int(value)
                    )
                counts = results.counts()
                js_new = position_of[results.ids] - base
                d_ce = results.dists
            track_pairs(js_new.size)
            # Fan each group's hits out to its active members straight
            # from the probe's rows: a point gathers the row of its
            # current center.  The pairs come out point-major; the min
            # and tie scatters below do not depend on their order.
            row_of = np.zeros(base, dtype=np.intp)
            row_of[qpos] = np.arange(qpos.size)
            act_rows = row_of[act_assign]
            sizes = counts[act_rows]
            starts = np.cumsum(counts) - counts
            hits = concat_ranges(starts[act_rows], sizes)
            pair_point = np.repeat(active, sizes)
            pair_new = js_new[hits]
            # Per-point tightening of the group-level bound: d_ce is
            # dis(new center, the point's current center).
            keep = d_ce[hits] < 2.0 * true_dist[pair_point] * PRUNE_SLACK
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
        # A pick's own entry is d(e, e) = 0 by the metric axioms; pinning
        # it keeps cancellation jitter from re-picking the same point.
        np.fill_diagonal(top_cross, metric.reduce_threshold(0.0))

        # Farthest-first picks; argmax breaks ties by the first
        # maximum, as the textbook traversal does.
        round_centers: List[int] = []
        budget = np.inf if max_centers is None else max_centers - len(centers)
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

    flush_pending()
    m = len(centers)
    centers_arr = np.asarray(centers, dtype=np.intp)
    # The loop never queries the center index, so its centers join in
    # one batch; the one-center build above already fixed a grid's
    # lattice, so every backend answers as if they had joined round by
    # round.
    center_index.insert_batch(centers_arr[1:])

    # Refine covered non-center points to their *nearest* center (the
    # centers' own rows are pinned below): the frozen assignment is
    # within r̄, so any closer center must lie within 2r̄ of it.  The
    # candidate (point, center) pairs come from one range query per
    # center that owns such a point, against the finished index
    # (O(|E|·deg) pairs), and are evaluated with one aligned pair
    # kernel — no per-group Python loop, no dense adjacency.
    cov_idx = np.flatnonzero(red_dist <= red_r)
    cov_idx = cov_idx[position_of[cov_idx] < 0]
    if m > 1 and cov_idx.size:
        owners = np.unique(center_of[cov_idx])
        results = center_index.range_query_batch_csr(
            centers_arr[owners], 2.0 * r_bar * PRUNE_SLACK,
            with_distances=False,
        )
        ks = owners[results.query_rows()]
        js = position_of[results.ids]
        self_hit = ks != js
        ks, js = ks[self_hit], js[self_hit]
        track_pairs(ks.size, bytes_per_pair=16)
        groups = FlatGroups.from_assignment(cov_idx, center_of[cov_idx], m).take(ks)
        pair_point = groups.flat
        pair_center = np.repeat(js, groups.sizes)
        if pair_point.size:
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
            assign=center_of, dists=true_dist, position_of=position_of,
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
    assign: np.ndarray,
    dists: np.ndarray,
    position_of: np.ndarray,
    track_pairs,
) -> np.ndarray:
    """Per-center ball counts ``|B(e, ε) ∩ X|`` via cover pruning.

    ``assign`` and ``dists`` give, for each point, the *position* (into
    ``centers_arr``) of its center and the distance to it; every group
    holds at least its own center.  This is the harvested ball count
    of Algorithm 1.

    Two triangle-inequality facts bound the work per center pair
    ``(k, j)`` with group radius ``g_k = max_{p: assign=k} d(p, e_k)``:

    - ``d(e_k, e_j) > ε + g_k``  →  no point of group ``k`` can be
      within ε of ``e_j`` (skip the group entirely);
    - ``d(e_k, e_j) + g_k < ε``  →  every point of group ``k`` is
      within ε of ``e_j`` (count the whole group without evaluating
      anything).

    The annulus pairs come from one range query per center against
    ``center_index`` at that center's own bound ``ε + g_k`` (per-query
    radii) — ``O(|E|·deg)`` pairs, never a dense matrix.  Only groups
    in the annulus between the two bounds are evaluated, with the
    certified aligned pair kernel over the COO pair list.
    """
    m = len(centers_arr)
    counts = np.zeros(m, dtype=np.int64)
    groups = FlatGroups.from_assignment(np.arange(assign.size), assign, m)
    group_radius = np.zeros(m, dtype=np.float64)
    np.maximum.at(group_radius, assign, dists)

    # Row thresholds fold the group radius in.  The wholesale bound
    # keeps a strict margin so kernel rounding in a direct evaluation
    # can never disagree with the wholesale decision.
    reach_at = (eps + group_radius) * PRUNE_SLACK
    whole_at = eps * (1.0 - 1e-12) - group_radius
    results = center_index.range_query_batch_csr(centers_arr, reach_at)
    ks = results.query_rows()
    js = position_of[results.ids]
    d_kj = results.dists
    track_pairs(ks.size)
    whole = d_kj <= whole_at[ks]
    np.add.at(counts, js[whole], groups.sizes[ks[whole]])
    annulus = groups.take(ks[~whole])
    pair_point = annulus.flat
    pair_center = np.repeat(js[~whole], annulus.sizes)
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
