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
        Optional :mod:`repro.index` backend for the ε-neighborhood
        computations (core tests of the sampled points, core-core
        merging, and the final nearest-core assignment).  ``None``
        (default) keeps the dense blocked scans; any backend produces
        the identical clustering.
    """

    #: Queries issued per index batch on the index path; bounds the
    #: resident neighbor-id lists at one chunk's worth.
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
        rng = check_random_state(self.seed)
        m = max(1, int(round(self.ratio * n)))

        with timings.phase("sample"):
            if self.init == "uniform":
                sample = np.sort(rng.choice(n, size=m, replace=False))
            else:
                sample = self._kcenter_sample(dataset, m, rng)

        # When an index backend is configured, every ε-neighborhood
        # below runs through it: the sampled core tests reuse one batch
        # of range queries, the merge reuses those same answers, and
        # the assignment queries a second index over the core points.
        idx_all = (
            build_index(self.index, dataset, radius_hint=eps)
            if self.index is not None
            else None
        )

        red_eps = dataset.metric.reduce_threshold(eps)
        with timings.phase("label_cores"):
            core_rows = np.zeros(len(sample), dtype=bool)
            if idx_all is not None:
                # Chunked queries, keeping only the per-point counts:
                # retaining every neighbor-id list would cost
                # O(sum |N(p)|) memory on dense-eps workloads.
                for lo in range(0, len(sample), self.QUERY_CHUNK):
                    hits = idx_all.range_query_batch_csr(
                        sample[lo : lo + self.QUERY_CHUNK], eps,
                        with_distances=False,
                    )
                    core_rows[lo : lo + self.QUERY_CHUNK] = hits.counts() >= self.min_pts
            else:
                # One blocked pass: sampled rows against the full dataset.
                pos = 0
                for chunk, block in dataset.cross_blocks(
                    queries=sample, reduced=True
                ):
                    counts = np.count_nonzero(block <= red_eps, axis=1)
                    core_rows[pos : pos + len(chunk)] = counts >= self.min_pts
                    pos += len(chunk)
            core_arr = np.asarray(sample[core_rows], dtype=np.int64)

        with timings.phase("merge"):
            # Core-core ε-edges join component roots one chunk or block
            # at a time, so only one chunk's edges are ever held.
            n_core = len(core_arr)
            roots = np.arange(n_core, dtype=np.int64)
            if idx_all is not None:
                # Map each core point id to its *first* position in
                # core_arr; duplicate sampled points (k-center sampling
                # on data with exact duplicates) join their first
                # occurrence, reproducing the dense path's zero-distance
                # edges.
                core_position = np.full(n, -1, dtype=np.int64)
                uniq, first = np.unique(core_arr, return_index=True)
                core_position[uniq] = first
                roots = component_roots(n_core, core_position[core_arr], roots)
                for lo in range(0, n_core, self.QUERY_CHUNK):
                    hits = idx_all.range_query_batch_csr(
                        core_arr[lo : lo + self.QUERY_CHUNK], eps,
                        with_distances=False,
                    )
                    i = lo + hits.query_rows()
                    j = core_position[hits.ids]
                    later = j > i
                    roots = component_roots(
                        n_core, roots[i[later]], roots[j[later]]
                    )[roots]
            else:
                start = 0
                for chunk_pos, block in dataset.cross_blocks(
                    queries=core_arr, targets=core_arr, reduced=True
                ):
                    # One flat scan: a 2-D np.nonzero is several times slower.
                    rows, cols = np.divmod(
                        np.flatnonzero(block <= red_eps), block.shape[1]
                    )
                    rows += start
                    later = cols > rows
                    roots = component_roots(
                        n_core, roots[rows[later]], roots[cols[later]]
                    )[roots]
                    start += len(chunk_pos)
            comp = first_seen_labels(roots)

        with timings.phase("assign"):
            labels = np.full(n, -1, dtype=np.int64)
            core_mask = np.zeros(n, dtype=bool)
            core_mask[core_arr] = True
            if len(core_arr) > 0 and idx_all is not None:
                # A second, separate index over the (unique) core
                # points; when the spec is a pre-built instance, spawn
                # an unbuilt sibling (same configuration) so idx_all is
                # not clobbered in place.
                core_spec = (
                    self.index.spawn()
                    if isinstance(self.index, NeighborIndex)
                    else self.index
                )
                idx_core = build_index(
                    core_spec, dataset, indices=np.unique(core_arr),
                    radius_hint=eps,
                )
                for lo in range(0, n, self.QUERY_CHUNK):
                    chunk = np.arange(lo, min(lo + self.QUERY_CHUNK, n))
                    for off, (ids, dists) in enumerate(
                        idx_core.range_query_batch(chunk, eps)
                    ):
                        if len(ids):
                            labels[lo + off] = comp[
                                core_position[ids[np.argmin(dists)]]
                            ]
                idx_core.fold_counters_into(timings)
            elif len(core_arr) > 0:
                for chunk, block in dataset.cross_blocks(
                    targets=core_arr, reduced=True
                ):
                    amin = block.argmin(axis=1)
                    dmin = block[np.arange(block.shape[0]), amin]
                    ok = dmin <= red_eps
                    labels[chunk[ok]] = comp[amin[ok]]
        if idx_all is not None:
            idx_all.fold_counters_into(timings)
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

    @staticmethod
    def _kcenter_sample(
        dataset: MetricDataset, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Greedy farthest-point (Gonzalez) sample of size ``m``."""
        first = int(rng.integers(dataset.n))
        result = gonzalez_kcenter(dataset, m, first_index=first)
        return np.sort(np.asarray(result.centers, dtype=np.int64))
