"""Sparse center-center merge graphs over a Gonzalez net.

The exact and approximate solvers both need, per center ``e_j``, the
set of centers within a threshold (the paper's neighbor ball-center
sets ``A_p`` of Eq. (1) / Eq. (13)).  Algorithm 1 maintains an
incremental :class:`~repro.index.base.NeighborIndex` over its center
set as it runs, so :func:`net_neighbor_sets` answers the merge graph
by **reusing that very index** whenever the caller's spec resolves to
the same backend: no second build, no dense ``|E|²`` matrix.  Nets
assembled without an index (the cover-tree extraction path) get a
fresh backend built over their centers.

The answer is one :class:`~repro.index.csr.CSRQueryResult` in
center-position space: row ``j`` lists the positions of the centers
within the threshold of ``e_j``, ascending.  The solvers read it as it
is, with no per-center lists.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.index.base import NeighborIndex
from repro.index.csr import CSRQueryResult
from repro.index.registry import IndexSpec, build_index, resolve_index_name
from repro.utils.timer import TimingBreakdown


def center_neighbor_sets(
    net, threshold: float, index: NeighborIndex
) -> CSRQueryResult:
    """Neighbor ball-center sets via sparse range queries.

    ``index`` must be built over exactly ``net.centers``.  Returns the
    center graph: row ``j`` holds the ascending positions of the
    centers within ``threshold`` of ``e_j`` (``j`` included).

    The queries ask for membership only (``with_distances=False``), so
    brute/grid backends answer them through the certified
    mixed-precision cascade: float32 GEMM decisions with exact float64
    rescue of the uncertain band (see :mod:`repro.metricspace.precision`).
    """
    centers = np.asarray(net.centers, dtype=np.intp)
    csr = index.range_query_batch_csr(centers, threshold, with_distances=False)
    # Global ids map to center positions in insertion (not id) order,
    # so re-sort within each row: rows are already grouped, and one
    # sort of the unique key row·|E| + position orders each row.
    row_base = csr.query_rows() * len(centers)
    keys = row_base + net.positions_of()[csr.ids]
    keys.sort()
    return CSRQueryResult(csr.offsets, keys - row_base)


def net_neighbor_sets(
    net,
    threshold: float,
    spec: IndexSpec,
    timings: Optional[TimingBreakdown] = None,
) -> CSRQueryResult:
    """Merge-graph neighbor sets through the configured index backend.

    Resolution order: an explicit :class:`NeighborIndex` instance spec
    is built over the centers as requested; a ``None``/``"auto"`` spec
    reuses whatever incremental index the net carries (building
    *anything* would be a second build the carried index makes
    redundant); an explicit backend name reuses the carried index only
    when it matches, and otherwise builds as requested.  Index counter
    *deltas* flow into ``timings`` so ``TimingBreakdown.counters`` stays
    comparable across backends and phases.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    dataset = net.dataset
    net_index = net.index
    if isinstance(spec, NeighborIndex):
        index = build_index(
            spec, dataset, indices=net.centers, radius_hint=threshold
        )
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
                radius_hint=threshold,
            )
    before = index.counters()
    if timings is not None:
        # Nested span: the merge-graph query batch shows up as a child
        # of whatever phase the caller has open (typically
        # ``neighbor_sets``), with the index counter deltas attributed
        # to it in the run trace.
        with timings.phase("index_queries"):
            neighbors = center_neighbor_sets(net, threshold, index)
            index.fold_counters_into(timings, before)
    else:
        neighbors = center_neighbor_sets(net, threshold, index)
    return neighbors
