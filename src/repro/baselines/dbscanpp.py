"""DBSCAN++ (Jang & Jiang, ICML 2019).

Subsample ``m = ratio * n`` points, compute core status only for the
sampled points (against the *full* dataset), cluster the sampled core
points by ε-connectivity, then assign every remaining point to the
cluster of its nearest sampled core point within ε.  The paper's
experiments use a 0.3 sampling ratio, which we adopt as the default.

Sampling can be uniform or the k-center (greedy farthest-point)
initialization the DBSCAN++ paper recommends for robustness.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.result import ClusteringResult
from repro.index.base import NeighborIndex
from repro.index.csr import segment_argmin
from repro.index.registry import IndexSpec, build_index
from repro.kcenter import gonzalez_kcenter
from repro.metricspace.dataset import MetricDataset
from repro.obs.registry import CounterScope
from repro.utils.components import component_roots, first_seen_labels
from repro.utils.rng import SeedLike, check_random_state
from repro.utils.timer import TimingBreakdown
from repro.utils.validation import check_epsilon, check_min_pts


class DBSCANPlusPlus:
    """DBSCAN++ with uniform or k-center subsampling.

    Parameters
    ----------
    eps, min_pts:
        The DBSCAN parameters.
    ratio:
        Fraction of points sampled (paper default 0.3).
    init:
        ``"uniform"`` or ``"kcenter"`` sampling.
    seed:
        RNG seed for uniform sampling / the k-center start point.
    index:
        :mod:`repro.index` backend for the ε-neighborhood queries: the
        core tests of the sampled points (against the full dataset),
        then the core–core merge and the nearest-core assignment
        (against one index over the unique core points).  ``None``
        (default) is the process default (``REPRO_DEFAULT_INDEX``, else
        ``auto``); every backend produces the identical clustering.
    """

    #: Queries issued per index batch; bounds the resident neighbor-id
    #: lists at one chunk's worth.
    QUERY_CHUNK = 2048

    def __init__(
        self,
        eps: float,
        min_pts: int,
        ratio: float = 0.3,
        init: Literal["uniform", "kcenter"] = "uniform",
        seed: SeedLike = 0,
        index: IndexSpec = None,
    ) -> None:
        self.eps = check_epsilon(eps)
        self.min_pts = check_min_pts(min_pts)
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        if init not in ("uniform", "kcenter"):
            raise ValueError(f"init must be 'uniform' or 'kcenter', got {init!r}")
        self.ratio = float(ratio)
        self.init = init
        self.seed = seed
        self.index = index

    def fit(self, dataset: MetricDataset) -> ClusteringResult:
        """Cluster ``dataset`` with DBSCAN++."""
        timings = TimingBreakdown()
        n = dataset.n
        eps = self.eps
        scope = CounterScope(timings, dataset=dataset)
        scope.__enter__()
        m = max(1, int(round(self.ratio * n)))
        with timings.phase("sample"):
            sample = self._sample(dataset, m)

        chunk = self.QUERY_CHUNK
        idx_all = build_index(self.index, dataset, radius_hint=eps)
        with timings.phase("label_cores"):
            # Chunked queries, keeping only the per-point counts:
            # retaining every neighbor-id list would cost O(sum |N(p)|)
            # memory on dense-eps workloads.
            core_rows = np.zeros(len(sample), dtype=bool)
            for lo in range(0, len(sample), chunk):
                hits = idx_all.range_query_batch_csr(
                    sample[lo : lo + chunk], eps, with_distances=False
                )
                core_rows[lo : lo + chunk] = hits.counts() >= self.min_pts
            core_arr = np.asarray(sample[core_rows], dtype=np.int64)
        idx_all.fold_counters_into(timings)

        with timings.phase("merge"):
            # Each core id maps to its *first* position in core_arr;
            # repeated sampled ids (k-center sampling on data with exact
            # duplicates) join their first occurrence.
            n_core = len(core_arr)
            uniq, first = np.unique(core_arr, return_index=True)
            core_position = np.full(n, -1, dtype=np.int64)
            core_position[uniq] = first
            roots = np.arange(n_core, dtype=np.int64)
            if n_core:
                # One index over the unique core points serves the merge
                # and the assignment.  A pre-built instance spec spawns
                # an unbuilt sibling (same configuration), so idx_all is
                # not clobbered in place.
                idx_core = build_index(
                    self.index.spawn()
                    if isinstance(self.index, NeighborIndex)
                    else self.index,
                    dataset, indices=uniq, radius_hint=eps,
                )
                roots = component_roots(n_core, core_position[core_arr], roots)
            # Core-core ε-edges join component roots one chunk at a
            # time, so only one chunk's edges are ever held.
            for lo in range(0, n_core, chunk):
                hits = idx_core.range_query_batch_csr(
                    core_arr[lo : lo + chunk], eps, with_distances=False
                )
                i = lo + hits.query_rows()
                j = core_position[hits.ids]
                later = j > i
                roots = component_roots(
                    n_core, roots[i[later]], roots[j[later]]
                )[roots]
            comp = first_seen_labels(roots)

        with timings.phase("assign"):
            # Every point takes the cluster of its nearest core point
            # within ε; ties go to the lowest core id (rows are sorted by
            # id and segment_argmin keeps the first minimum).
            labels = np.full(n, -1, dtype=np.int64)
            core_mask = np.zeros(n, dtype=bool)
            core_mask[core_arr] = True
            if n_core:
                for lo in range(0, n, chunk):
                    hits = idx_core.range_query_batch_csr(
                        np.arange(lo, min(lo + chunk, n)), eps
                    )
                    argpos, _ = segment_argmin(hits.dists, hits.offsets)
                    found = np.flatnonzero(argpos >= 0)
                    labels[lo + found] = comp[core_position[hits.ids[argpos[found]]]]
                idx_core.fold_counters_into(timings)
        scope.__exit__(None, None, None)

        return ClusteringResult(
            labels=labels,
            core_mask=core_mask,
            timings=timings,
            stats={
                "algorithm": "dbscan++",
                "eps": eps,
                "min_pts": self.min_pts,
                "ratio": self.ratio,
                "n_sampled": m,
                "n_sampled_core": int(len(core_arr)),
                "core_mask_partial": True,
            },
        )

    def _sample(self, dataset: MetricDataset, m: int) -> np.ndarray:
        """The ``m`` sampled point ids, sorted: uniform without
        replacement, or a greedy farthest-point (Gonzalez) sample."""
        rng = check_random_state(self.seed)
        if self.init == "uniform":
            return np.sort(rng.choice(dataset.n, size=m, replace=False))
        first = int(rng.integers(dataset.n))
        result = gonzalez_kcenter(dataset, m, first_index=first)
        return np.sort(np.asarray(result.centers, dtype=np.int64))
