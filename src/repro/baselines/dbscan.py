"""The original DBSCAN algorithm (Ester, Kriegel, Sander & Xu, 1996).

Metric-generic: the baseline labeled *DBSCAN* in the paper's Figure 3,
and the reference the exact metric solver is tested against (same core
partition, same noise set).

One pass over row chunks answers the ε-region queries through a
:mod:`repro.index` backend.  A row's degree is final once its chunk is
answered, so each ε-edge ``(q, p)`` with ``q < p`` is decided from
``p``'s row: core–core edges join component roots, core–border edges
are kept (a border point has fewer than MinPts), nothing else is stored.
Clusters are numbered by their smallest core point, and a border point
joins the smallest-numbered cluster among its core neighbours.  These
are the labels of the classic seed-list BFS (the test-suite's oracle),
which grows one cluster at a time in that order and lets the first
cluster to reach a border point keep it.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import ClusteringResult
from repro.index.registry import IndexSpec, build_index
from repro.metricspace.dataset import DEFAULT_BLOCK_BYTES, MetricDataset, rows_per_block
from repro.obs.registry import CounterScope
from repro.utils.components import component_roots, first_seen_labels
from repro.utils.timer import TimingBreakdown
from repro.utils.validation import check_epsilon, check_min_pts

#: Byte budget of the hit ids one chunk of region queries may return: a
#: chunk holds ``rows_per_block(n, CHUNK_BYTES)`` rows, so its answer
#: stays this small even when every point is within ε of every other.
CHUNK_BYTES = 16 * DEFAULT_BLOCK_BYTES


class OriginalDBSCAN:
    """Textbook DBSCAN over one chunked pass of ε-region queries.

    Parameters
    ----------
    eps, min_pts:
        The DBSCAN parameters; a point counts itself in its
        ε-neighborhood.
    index:
        :mod:`repro.index` backend (name, instance, or ``"auto"``)
        answering the ε-region queries; every backend produces the
        identical clustering.  ``None`` (default) defers to the
        process-wide default, as in the paper's solvers; ``"brute"``
        is the quadratic scan of the original algorithm.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.metricspace import MetricDataset
    >>> pts = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [5.2], [99.0]])
    >>> result = OriginalDBSCAN(eps=0.5, min_pts=3).fit(MetricDataset(pts))
    >>> result.n_clusters, result.n_noise
    (2, 1)
    """

    def __init__(self, eps: float, min_pts: int, index: IndexSpec = None) -> None:
        self.eps = check_epsilon(eps)
        self.min_pts = check_min_pts(min_pts)
        self.index = index

    def fit(self, dataset: MetricDataset) -> ClusteringResult:
        """Cluster ``dataset`` with the original algorithm."""
        timings = TimingBreakdown()
        n = dataset.n
        eps = self.eps
        with CounterScope(timings, dataset=dataset):
            with timings.phase("build_index"):
                index = build_index(self.index, dataset, radius_hint=eps)

            core_mask = np.zeros(n, dtype=bool)
            roots = np.arange(n, dtype=np.int64)
            links, n_links = [], 0  # core–core root pairs not yet joined
            border, reach = [], []  # border point, a core neighbour of it
            step = rows_per_block(n, CHUNK_BYTES)
            for lo in range(0, n, step):
                rows = np.arange(lo, min(lo + step, n))
                with timings.phase("region_queries"):
                    hits = index.range_query_batch_csr(rows, eps, with_distances=False)
                with timings.phase("cluster"):
                    core_mask[rows] = hits.counts() >= self.min_pts
                    p, q = lo + hits.query_rows(), hits.ids
                    earlier = q < p
                    p, q = p[earlier], q[earlier]
                    p_core, q_core = core_mask[p], core_mask[q]
                    both = p_core & q_core
                    links.append((roots[p[both]], roots[q[both]]))
                    n_links += links[-1][0].size
                    # A join costs O(n) however few its edges, so they
                    # wait until there are n (or the last chunk is in).
                    if n_links >= n or lo + step >= n:
                        a, b = map(np.concatenate, zip(*links))
                        roots = component_roots(n, a, b)[roots]
                        links, n_links = [], 0
                    one = p_core != q_core
                    border.append(np.where(p_core, q, p)[one])
                    reach.append(np.where(p_core, p, q)[one])

            with timings.phase("cluster"):
                labels = np.full(n, -1, dtype=np.int64)
                core = np.flatnonzero(core_mask)
                labels[core] = first_seen_labels(roots[core])
                border, reach = np.concatenate(border), np.concatenate(reach)
                first = np.full(n, n, dtype=np.int64)
                np.minimum.at(first, border, labels[reach])
                labels = np.where(first < n, first, labels)

            index.fold_counters_into(timings)
        return ClusteringResult(
            labels=labels,
            core_mask=core_mask,
            timings=timings,
            stats={"algorithm": "dbscan", "eps": eps, "min_pts": self.min_pts},
        )


def dbscan(dataset: MetricDataset, eps: float, min_pts: int) -> ClusteringResult:
    """Convenience wrapper for :class:`OriginalDBSCAN`."""
    return OriginalDBSCAN(eps, min_pts).fit(dataset)
