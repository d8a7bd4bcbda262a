"""The paper's exact metric DBSCAN algorithm (Section 3).

The algorithm runs in three steps on top of the radius-guided Gonzalez
preprocessing (Algorithm 1 with ``r̄ = ε/2``).  All three read one
center graph (:func:`repro.index.netgraph.net_neighbor_sets`): Lemma 2
with each center's realized radius, which joins ``e`` and ``e'`` when
``dis(e, e') <= rad(e) + ε + rad(e')``.  A singleton cover set has
radius 0, so its row holds only the centers an ε-region query around it
reaches.

1. **Label core points** (Lemma 4, ``O(n z t_dis)``): centers are split
   into *dense* spheres ``E1`` (``|C_e| >= MinPts`` — every point inside
   is immediately core, because the cover-set diameter is ``<= 2r̄ <= ε``)
   and *sparse* spheres ``E2``, whose few points are checked against the
   candidate set ``∪_{e' ∈ A_e} C_{e'}``.
2. **Merge core points** (Lemma 5): core points sharing a cover set are
   directly ε-reachable; two neighboring cover sets join when their
   bichromatic closest pair (BCP) of core points is within ε.  All
   neighboring center pairs are decided together in three rounds of
   aligned pair-kernel slices over growing core-pair sub-blocks
   (1×1, 4×4, then the full block); after each round a numpy
   connected-components kernel drops the pairs whose centers are
   already connected, so only unlinked pairs pay for a full block.
3. **Label border points and outliers** (Lemma 6): each non-core point
   searches the core points of its neighboring cover sets; within ε it
   becomes a border point of the nearest core's cluster, otherwise noise.

Steps 1 and 3 pair every point of a sphere with every candidate of its
sphere's set, and walk all those pairs as flat slices of aligned
pair-kernel calls, as Step 2 walks its core-pair blocks
(:func:`repro.core.flatgroups.rectangle_slices`): no step loops over
spheres in Python.

The Gonzalez preprocessing can be computed once with ``r̄ = ε0/2`` for a
lower bound ``ε0`` and reused across parameter tuning (Remark 5):
pass a precomputed net via :meth:`MetricDBSCAN.fit`'s ``net=`` argument.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.flatgroups import (
    FlatGroups, count_within, rectangle_slices, walk_slice_len,
)
from repro.core.gonzalez import GonzalezNet, radius_guided_gonzalez
from repro.core.result import ClusteringResult
from repro.index.csr import CSRQueryResult, segment_argmin
from repro.index.netgraph import net_neighbor_sets
from repro.index.registry import IndexSpec
from repro.metricspace.dataset import (
    DEFAULT_BLOCK_BYTES, MetricDataset, pairs_per_slice,
)
from repro.obs.registry import CounterScope
from repro.utils.components import component_roots, first_seen_labels
from repro.utils.timer import TimingBreakdown
from repro.utils.validation import check_epsilon, check_min_pts

#: Step (2)'s rounds: each tests every still-open center pair's leading
#: ``lead × lead`` core-pair sub-block (``None``: the whole block), then
#: closes the pairs whose centers are connected by then, so most pairs
#: never reach their full block.
MERGE_SCHEDULE = (1, 4, None)


class MetricDBSCAN:
    """Exact metric DBSCAN via the radius-guided Gonzalez net.

    Steps (1)–(3) read the center graph of Lemma 2 at each center's
    realized radius.  Steps (1) and (3) evaluate all their (point,
    candidate) pairs as flat slices of aligned kernel calls; Step (2)
    decides all neighboring core-set pairs together in the rounds of
    :data:`MERGE_SCHEDULE`.  No step loops over spheres or builds cover
    trees.

    Parameters
    ----------
    eps:
        The DBSCAN radius ε.
    min_pts:
        The density threshold MinPts; a point counts itself, matching
        the paper's ``|B(p, ε) ∩ X| >= MinPts``.
    r_bar:
        Net radius for the preprocessing; any value ``<= ε/2`` is valid
        (Remark 5).  Defaults to ``ε/2``.
    dense_shortcut:
        Enable the dense-sphere fast path of Step (1).  Setting
        ``False`` forces the neighborhood count for every point — kept
        for the ablation bench.
    collect_border_memberships:
        Definition 1's footnote allows a border point to belong to
        *several* clusters.  The ``labels`` array always uses the
        nearest core's cluster; with this flag the result additionally
        carries ``stats["border_memberships"]``, a dict mapping each
        border point to the sorted list of every cluster owning a core
        point within ε of it.
    index:
        Neighbor-index backend (see :mod:`repro.index`): a backend name
        (``"brute"``, ``"grid"``, ``"covertree"``, ``"auto"``), a
        pre-configured :class:`~repro.index.base.NeighborIndex`, or
        ``None`` for the process default (``REPRO_DEFAULT_INDEX`` env
        var, else ``auto``).  The spec configures both the incremental
        center index Algorithm 1 maintains while the net grows and the
        center-center merge graph queries, which reuse that same index
        instance — no dense ``|E|²`` matrix is materialized on any
        path.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.metricspace import MetricDataset
    >>> pts = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [5.2], [99.0]])
    >>> result = MetricDBSCAN(eps=0.5, min_pts=3).fit(MetricDataset(pts))
    >>> result.n_clusters, result.n_noise
    (2, 1)
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        r_bar: Optional[float] = None,
        dense_shortcut: bool = True,
        collect_border_memberships: bool = False,
        index: IndexSpec = None,
    ) -> None:
        self.eps = check_epsilon(eps)
        self.min_pts = check_min_pts(min_pts)
        if r_bar is None:
            r_bar = self.eps / 2.0
        if r_bar <= 0 or r_bar > self.eps / 2.0 + 1e-12:
            raise ValueError(
                f"r_bar must be in (0, eps/2]; got r_bar={r_bar} for eps={self.eps}"
            )
        self.r_bar = float(r_bar)
        self.dense_shortcut = bool(dense_shortcut)
        self.collect_border_memberships = bool(collect_border_memberships)
        self.index = index

    # ------------------------------------------------------------------

    @staticmethod
    def precompute(
        dataset: MetricDataset,
        r_bar: float,
        first_index: int = 0,
        index: IndexSpec = None,
    ) -> GonzalezNet:
        """Run the Algorithm-1 preprocessing once for later reuse.

        For parameter tuning, choose ``r_bar = ε0/2`` where ``ε0`` lower
        bounds every ε you intend to try (Remark 5).  The incremental
        center index built during the run rides along on the net and is
        reused by every subsequent :meth:`fit`.
        """
        return radius_guided_gonzalez(
            dataset, r_bar, first_index=first_index, index=index
        )

    def fit(
        self, dataset: MetricDataset, net: Optional[GonzalezNet] = None
    ) -> ClusteringResult:
        """Cluster ``dataset`` and return the exact DBSCAN labeling.

        Parameters
        ----------
        dataset:
            The input metric space.
        net:
            Optional precomputed Gonzalez net (must satisfy
            ``net.r_bar <= eps/2`` and be built on the same payloads
            under the same metric, see :meth:`MetricDataset.same_space`).
        """
        timings = TimingBreakdown()
        eps = self.eps

        # The scope snapshots every counter source (dataset evals, the
        # process-global cascade stats, cache/counting metric wrappers)
        # and folds the per-run deltas into ``timings.counters`` when
        # the run ends — one merged registry per fit.
        with CounterScope(timings, dataset=dataset):
            if net is None:
                with timings.phase("gonzalez"):
                    net = radius_guided_gonzalez(
                        dataset, self.r_bar, index=self.index
                    )
                    for counter, value in net.counters.items():
                        timings.count(counter, value)
            else:
                if net.r_bar > eps / 2.0 + 1e-12:
                    raise ValueError(
                        f"precomputed net has r_bar={net.r_bar} > eps/2={eps / 2.0}; "
                        "rebuild with a smaller r_bar (Remark 5 requires r_bar <= eps/2)"
                    )
                if not net.dataset.same_space(dataset):
                    raise ValueError(
                        "precomputed net was built on a different dataset"
                    )
                timings.phases.setdefault("gonzalez", 0.0)

            with timings.phase("neighbor_sets"):
                neighbors = net_neighbor_sets(
                    net, net.realized_radii(), eps, self.index, timings
                )
                cover = net.cover()

            with timings.phase("label_cores"):
                core_mask = self._label_cores(dataset, net, neighbors, cover)

            with timings.phase("merge"):
                center_cluster, core_by_center = self._merge_cores(
                    dataset, net, neighbors, core_mask
                )

            with timings.phase("label_borders"):
                labels, border_memberships = self._label_all(
                    dataset, net, neighbors, core_mask, core_by_center,
                    center_cluster,
                )

        stats = {
            "algorithm": "our_exact",
            "eps": eps,
            "min_pts": self.min_pts,
            "r_bar": net.r_bar,
            "n_centers": net.n_centers,
            "n_core": int(np.count_nonzero(core_mask)),
        }
        if border_memberships is not None:
            stats["border_memberships"] = border_memberships
        return ClusteringResult(
            labels=labels,
            core_mask=core_mask,
            timings=timings,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Step (1)

    def _label_cores(
        self,
        dataset: MetricDataset,
        net: GonzalezNet,
        neighbors: CSRQueryResult,
        cover: FlatGroups,
    ) -> np.ndarray:
        """Label core points with the dense/sparse sphere split.

        Every (sparse-sphere member, Lemma-2 candidate) pair is decided
        by one certified threshold test, in flat slices over all sparse
        spheres at once (:func:`~repro.core.flatgroups.count_within`).
        """
        if self.dense_shortcut:
            dense = cover.sizes >= self.min_pts
        else:
            dense = np.zeros(net.n_centers, dtype=bool)
        # Every point of a dense sphere is core (its diameter is <= ε).
        core_mask = dense[net.center_of]
        sparse = np.flatnonzero(~dense & (cover.sizes > 0))
        members = cover.take(sparse)
        counts = count_within(
            dataset, members, cover.expand(neighbors, sparse), self.eps
        )
        core_mask[members.flat[counts >= self.min_pts]] = True
        return core_mask

    # ------------------------------------------------------------------
    # Step (2)

    def _merge_cores(
        self,
        dataset: MetricDataset,
        net: GonzalezNet,
        neighbors: CSRQueryResult,
        core_mask: np.ndarray,
    ) -> tuple:
        """Merge core points into clusters; returns per-center cluster ids.

        Neighboring centers ``j < k`` that both hold core points join
        when some core pair across their cover sets is within ε (the
        BCP test of Lemma 5), decided round by round per
        :data:`MERGE_SCHEDULE`.

        Returns
        -------
        (center_cluster, core_by_center):
            ``center_cluster[j]`` is the dense cluster id of center
            position ``j`` (``-1`` when the center has no core points);
            ``core_by_center`` groups the core point indices of each
            ``C_{e_j}`` (the paper's ``C̃_e``), ascending.
        """
        m = net.n_centers
        core = np.flatnonzero(core_mask)
        groups = FlatGroups.from_assignment(core, net.center_of[core], m)
        occupied = groups.sizes > 0
        src, dst = neighbors.query_rows(), neighbors.ids
        keep = (src < dst) & occupied[src] & occupied[dst]
        src, dst = src[keep], dst[keep]

        roots = np.arange(m, dtype=np.int64)
        done = 0
        for lead in MERGE_SCHEDULE:
            if src.size == 0:
                break
            hit = self._any_core_pair_within(
                dataset, groups, src, dst, done, lead
            )
            # Join the new links onto the components found so far: the
            # kernel runs on the old roots only, then every center
            # follows its old root to the new one.
            roots = component_roots(m, roots[src[hit]], roots[dst[hit]])[roots]
            still_open = roots[src] != roots[dst]
            src, dst = src[still_open], dst[still_open]
            done = lead

        center_cluster = np.full(m, -1, dtype=np.int64)
        center_cluster[occupied] = first_seen_labels(roots[occupied])
        return center_cluster, groups

    def _any_core_pair_within(
        self,
        dataset: MetricDataset,
        groups: FlatGroups,
        src: np.ndarray,
        dst: np.ndarray,
        done: int,
        lead: Optional[int],
    ) -> np.ndarray:
        """Whether some core pair of ``C̃_src[i] × C̃_dst[i]`` inside the
        leading ``lead × lead`` sub-block (``None``: the whole block),
        but outside the ``done × done`` one an earlier round decided,
        is within ε; one verdict per pair ``i``.

        Pairs are taken one slice length at a time and their cells are
        evaluated in slices of that length, so neither the per-pair
        bookkeeping nor the cell expansion ever exists whole.  A slice
        gathers one distance block's worth of operands
        (``DEFAULT_BLOCK_BYTES``), so the merge stays below the memory
        peak the fit's other phases already set.
        """
        slice_len = pairs_per_slice(dataset, DEFAULT_BLOCK_BYTES)
        hit = np.zeros(src.size, dtype=bool)
        for lo in range(0, src.size, slice_len):
            a, b = src[lo : lo + slice_len], dst[lo : lo + slice_len]
            n_rows, n_cols = groups.sizes[a], groups.sizes[b]
            if lead is not None:
                n_rows = np.minimum(n_rows, lead)
                n_cols = np.minimum(n_cols, lead)
            for pair, r, c in rectangle_slices(n_rows, n_cols, slice_len):
                new = (r >= done) | (c >= done)
                pair, r, c = pair[new], r[new], c[new]
                within = dataset.pair_certified(
                    groups.flat[groups.starts[a[pair]] + r],
                    groups.flat[groups.starts[b[pair]] + c],
                    self.eps,
                )
                hit[lo + pair[within]] = True
        return hit

    # ------------------------------------------------------------------
    # Step (3)

    def _label_all(
        self,
        dataset: MetricDataset,
        net: GonzalezNet,
        neighbors: CSRQueryResult,
        core_mask: np.ndarray,
        core_by_center: FlatGroups,
        center_cluster: np.ndarray,
    ):
        """Assign final labels: core via their center's cluster, border
        via the nearest core within ε, the rest noise.

        Each non-core point is paired with the core points of its
        sphere's neighboring cover sets, and all pairs are evaluated in
        flat slices, as in Step (1).  Each slice finds every point's
        minimum and then the first candidate attaining it (a min pass
        and a tie pass, :func:`~repro.index.csr.segment_argmin`); a
        later slice replaces it only with a strictly smaller one, so the
        nearest core is the first minimum in candidate order.

        Returns ``(labels, border_memberships)`` where the second item
        is ``None`` unless ``collect_border_memberships`` is set, in
        which case it maps each border point to the sorted cluster ids
        of every cluster with a core point within ε (Definition 1's
        footnote), read off the same pairs.
        """
        center_of = net.center_of
        labels = np.full(dataset.n, -1, dtype=np.int64)
        # Core points inherit their own center's cluster id.
        core_indices = np.flatnonzero(core_mask)
        labels[core_indices] = center_cluster[center_of[core_indices]]

        noncore = np.flatnonzero(~core_mask)
        spheres = FlatGroups.from_assignment(
            noncore, center_of[noncore], net.n_centers
        )
        rows = np.flatnonzero(spheres.sizes > 0)
        points = spheres.take(rows)
        candidates = core_by_center.expand(neighbors, rows)
        red_eps = dataset.metric.reduce_threshold(self.eps)
        best = np.full(points.flat.size, np.inf)
        nearest = np.zeros(points.flat.size, dtype=np.int64)
        within = []
        for rect, row, col in rectangle_slices(
            points.sizes, candidates.sizes, walk_slice_len(dataset)
        ):
            # Local coordinates become flat positions in place.
            row += points.starts[rect]
            col += candidates.starts[rect]
            del rect
            cand = candidates.flat[col]
            d = dataset.pair(points.flat[row], cand, reduced=True)
            # Cells are row-major: each point's pairs are one run.
            starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
            arg, low = segment_argmin(d, np.r_[starts, row.size])
            run = row[starts]
            better = low < best[run]
            best[run[better]] = low[better]
            nearest[run[better]] = cand[arg[better]]
            if self.collect_border_memberships:
                hit = d <= red_eps
                within.append((row[hit], cand[hit]))
        ok = best <= red_eps
        labels[points.flat[ok]] = center_cluster[center_of[nearest[ok]]]
        if not self.collect_border_memberships:
            return labels, None
        return labels, _memberships(
            points.flat, ok, within, center_cluster[center_of]
        )


def _memberships(points, ok, within, cluster_of) -> dict:
    """Border point -> sorted ids of the clusters owning a core point
    within ε, from the ``(row, core point)`` pairs of Step (3)."""
    row = np.concatenate([np.empty(0, dtype=np.int64)] + [r for r, _ in within])
    core = np.concatenate([np.empty(0, dtype=np.int64)] + [c for _, c in within])
    keep = ok[row]
    # One sort of row·span + cluster groups each point's clusters,
    # ascending; repeats drop out.
    span = max(int(cluster_of.max()) + 1, 1)
    keys = np.sort(row[keep] * span + cluster_of[core[keep]])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    row = keys // span
    heads = np.flatnonzero(np.diff(row, prepend=-1))
    return {
        int(points[row[h]]): clusters.tolist()
        for h, clusters in zip(heads, np.split(keys - row * span, heads[1:]))
    }


def metric_dbscan(
    dataset: MetricDataset,
    eps: float,
    min_pts: int,
    net: Optional[GonzalezNet] = None,
    **kwargs,
) -> ClusteringResult:
    """Convenience wrapper: ``MetricDBSCAN(eps, min_pts, **kwargs).fit(...)``."""
    return MetricDBSCAN(eps, min_pts, **kwargs).fit(dataset, net=net)
