"""Sparse center-center merge graphs over a Gonzalez net.

The exact and approximate solvers both need, per center ``e``, the
centers whose cover sets can hold a point within the solver's radius
``τ`` of a point of ``C_e`` (the paper's neighbor ball-center sets
``A_p`` of Eq. (1) / Eq. (13)).  Lemma 2's triangle inequality bounds
them: ``p ∈ C_e`` and ``q ∈ C_e'`` with ``dis(p, q) <= τ`` force
``dis(e, e') <= rad(e) + τ + rad(e')``, where ``rad(e)`` is the
realized radius of ``C_e`` (:meth:`GonzalezNet.realized_radii`).  When
every radius is ``r̄`` this is the uniform threshold ``2r̄ + τ``, which
the approximate solver keeps; the exact solver passes the realized
radii, so its singleton cover sets (radius 0) join only the centers an
ε-region query around them can reach.

Algorithm 1 maintains an incremental
:class:`~repro.index.base.NeighborIndex` over its center set as it
runs, so :func:`net_neighbor_sets` answers the merge graph by
**reusing that very index** whenever the caller's spec resolves to the
same backend: no second build, no dense ``|E|²`` matrix.  Nets
assembled without an index (the cover-tree extraction path) get a
fresh backend built over their centers.

The answer is one :class:`~repro.index.csr.CSRQueryResult` in
center-position space: row ``j`` lists the positions of the centers
the bound keeps for ``e_j`` (``j`` included), ascending, and the graph
is symmetric.  The solvers read it as it is, with no per-center lists.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.index.base import NeighborIndex
from repro.index.csr import CSRQueryResult
from repro.index.registry import IndexSpec, build_index, resolve_index_name
from repro.metricspace.precision import PRUNE_SLACK
from repro.utils.timer import TimingBreakdown


def center_neighbor_sets(
    net, radii, tau: float, index: NeighborIndex
) -> CSRQueryResult:
    """Lemma 2's center graph: ``e`` and ``e'`` are neighbors when
    ``dis(e, e') <= radii[e] + τ + radii[e']``.

    ``index`` must be built over exactly ``net.centers``, and
    ``radii`` (one per center, or one for all) must bound every cover
    set's radius; they never exceed ``r̄``.  The graph is symmetric, its
    rows list center positions ascending, and it is a subset of the
    uniform graph at ``2r̄ + τ``.

    - **Per-center queries.**  Center ``e`` asks for the centers within
      ``2·radii[e] + τ`` and keeps ``e'`` within ``radii[e] + τ +
      radii[e']``; the larger-radius side of every pair finds it, and
      one sort makes the graph symmetric.  Both tests compare the
      index's float64 distances, so both are widened by the metric's
      rounding band (:meth:`Metric.reduced_band`): a pair the band
      cannot decide is kept, and the graph is a certified superset of
      what Lemma 2 needs.
    - **The cap.**  A row whose widened query would come within a band
      of ``2r̄ + τ`` is answered by the uniform query itself: one
      certified threshold test at ``2r̄ + τ`` for all such rows (the
      float32 cascade of :mod:`repro.metricspace.precision` on brute
      and grid), with no distances and no filter.  So is every row of a
      metric that states no band.  With every radius ``r̄`` (the
      approximate solver) all rows take it: the uniform graph.
    """
    centers = np.asarray(net.centers, dtype=np.intp)
    m = len(centers)
    metric = net.dataset.metric
    positions = net.positions_of()
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (m,))
    cap = 2.0 * net.r_bar + tau
    band = metric.reduced_band(net.dataset.gather(centers))
    free = np.zeros(m, dtype=bool)
    if band is not None:
        widest = float(band.max())
        # A radius too large to reduce overflows to inf, which caps its row.
        with np.errstate(over="ignore"):
            reach = (
                metric.reduce_thresholds((2.0 * radii + tau) * PRUNE_SLACK)
                + band + widest
            )
        # A second band below the cap keeps every pair a free row
        # keeps inside the uniform graph.
        free = reach + band + widest < metric.reduce_threshold(cap)
    src, dst = [], []
    capped = np.flatnonzero(~free)
    if capped.size:
        csr = index.range_query_batch_csr(
            centers[capped], cap, with_distances=False
        )
        if capped.size == m:
            # The uniform graph: one sort of the key row·|E| + position
            # orders each row.
            row_base = csr.query_rows() * m
            keys = row_base + positions[csr.ids]
            keys.sort()
            return CSRQueryResult(csr.offsets, keys - row_base)
        src.append(capped[csr.query_rows()])
        dst.append(positions[csr.ids])
    rows = np.flatnonzero(free)
    csr = index.range_query_batch_csr(
        centers[rows],
        np.asarray(metric.expand_reduced(reach[rows])) * PRUNE_SLACK,
    )
    e, f = rows[csr.query_rows()], positions[csr.ids]
    keep = metric.reduce_thresholds(csr.dists) <= (
        metric.reduce_thresholds((radii[e] + tau + radii[f]) * PRUNE_SLACK)
        + band[e] + band[f]
    )
    src.append(e[keep])
    dst.append(f[keep])
    src, dst = np.concatenate(src), np.concatenate(dst)
    # Capped rows answer one certified threshold and are symmetric
    # already; a pair with a free end is listed from both ends, then
    # once.  One sort of row·|E| + position orders every row.
    mirror = free[src] | free[dst]
    keys = np.concatenate([src * m + dst, dst[mirror] * m + src[mirror]])
    keys.sort()
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    offsets = np.searchsorted(keys, np.arange(m + 1) * m)
    return CSRQueryResult(
        offsets, keys - np.repeat(np.arange(m) * m, np.diff(offsets))
    )


def net_neighbor_sets(
    net,
    radii,
    tau: float,
    spec: IndexSpec,
    timings: Optional[TimingBreakdown] = None,
) -> CSRQueryResult:
    """:func:`center_neighbor_sets` through the configured index backend.

    Resolution order: an explicit :class:`NeighborIndex` instance spec
    is built over the centers as requested; a ``None``/``"auto"`` spec
    reuses whatever incremental index the net carries (building
    *anything* would be a second build the carried index makes
    redundant); an explicit backend name reuses the carried index only
    when it matches, and otherwise builds as requested.  Index counter
    *deltas* flow into ``timings`` so ``TimingBreakdown.counters`` stays
    comparable across backends and phases.
    """
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    dataset = net.dataset
    net_index = net.index
    hint = 2.0 * net.r_bar + tau
    if isinstance(spec, NeighborIndex):
        index = build_index(spec, dataset, indices=net.centers, radius_hint=hint)
    else:
        name = resolve_index_name(spec, dataset, net.n_centers)
        deferred = spec is None or (
            isinstance(spec, str) and spec.strip().lower() == "auto"
        )
        if net_index is not None and (deferred or net_index.name == name):
            index = net_index
        else:
            index = build_index(
                spec if not (spec is None or isinstance(spec, str)) else name,
                dataset,
                indices=net.centers,
                radius_hint=hint,
            )
    before = index.counters()
    if timings is not None:
        # Nested span: the merge-graph query batch shows up as a child
        # of whatever phase the caller has open (typically
        # ``neighbor_sets``), with the index counter deltas attributed
        # to it in the run trace.
        with timings.phase("index_queries"):
            neighbors = center_neighbor_sets(net, radii, tau, index)
            index.fold_counters_into(timings, before)
    else:
        neighbors = center_neighbor_sets(net, radii, tau, index)
    return neighbors
