"""Algorithm 2: ρ-approximate metric DBSCAN via core-point summary.

The solver mirrors the paper's pseudo-code:

1. run Algorithm 1 with ``r̄ = ρε/2`` (harvesting the per-center ε-ball
   counts, Lemma 10);
2. build the summary ``S*`` (:mod:`repro.core.summary`);
3. merge inside ``S*``: summary points within ``(1+ρ)ε`` share a cluster
   id, with the candidate search restricted to the enlarged neighbor
   sets of Eq. (13);
4. label everything else: a point whose center is in ``S*`` inherits
   that center's id (line 11-12); otherwise the nearest summary point
   within ``(1 + ρ/2)ε`` decides (line 14-15); otherwise the point is an
   outlier.

The output is a valid ρ-approximate DBSCAN solution (Theorem 2) and the
whole run costs ``O(n ((Δ/ρε)^D + z) t_dis)`` (Theorem 3).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.flatgroups import FlatGroups
from repro.core.gonzalez import GonzalezNet, radius_guided_gonzalez
from repro.core.result import ClusteringResult
from repro.core.summary import CoreSummary, build_summary
from repro.index.csr import CSRQueryResult
from repro.index.netgraph import net_neighbor_sets
from repro.index.registry import IndexSpec
from repro.metricspace.dataset import MetricDataset, pairs_per_slice
from repro.obs.registry import CounterScope
from repro.utils.components import component_labels
from repro.utils.timer import TimingBreakdown
from repro.utils.validation import check_epsilon, check_min_pts, check_rho


class ApproxMetricDBSCAN:
    """ρ-approximate metric DBSCAN (Algorithm 2).

    Parameters
    ----------
    eps, min_pts:
        The DBSCAN parameters.
    rho:
        Approximation parameter; the paper's analysis assumes
        ``ρ <= 2`` (Theorem 3) and the experiments use ``ρ = 0.5``.
    r_bar:
        Net radius for preprocessing, default ``ρε/2``; any smaller
        value also works (Remark 6).
    index:
        Neighbor-index backend — a name from :mod:`repro.index`, a
        pre-configured :class:`~repro.index.base.NeighborIndex`, or
        ``None`` for the process default.  Configures the incremental
        center index Algorithm 1 maintains and the enlarged merge
        graph of Eq. (13), which reuses that index instance instead of
        thresholding a dense center matrix.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.metricspace import MetricDataset
    >>> pts = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [5.2], [99.0]])
    >>> result = ApproxMetricDBSCAN(0.5, 3, rho=0.5).fit(MetricDataset(pts))
    >>> result.n_clusters, result.n_noise
    (2, 1)
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        rho: float = 0.5,
        r_bar: Optional[float] = None,
        index: IndexSpec = None,
    ) -> None:
        self.eps = check_epsilon(eps)
        self.min_pts = check_min_pts(min_pts)
        self.rho = check_rho(rho)
        default_r_bar = self.rho * self.eps / 2.0
        if r_bar is None:
            r_bar = default_r_bar
        if r_bar <= 0 or r_bar > default_r_bar * (1.0 + 1e-12):
            raise ValueError(
                f"r_bar must be in (0, rho*eps/2]; got {r_bar} with "
                f"rho*eps/2={default_r_bar}"
            )
        self.r_bar = float(r_bar)
        self.index = index

    @staticmethod
    def precompute(
        dataset: MetricDataset,
        r_bar: float,
        eps_for_counts: Optional[float] = None,
        first_index: int = 0,
        index: IndexSpec = None,
    ) -> GonzalezNet:
        """Run the Algorithm-1 preprocessing once for later reuse
        (Remark 6); pass ``eps_for_counts`` to harvest ball counts."""
        return radius_guided_gonzalez(
            dataset, r_bar, eps_for_counts=eps_for_counts,
            first_index=first_index, index=index,
        )

    def fit(
        self, dataset: MetricDataset, net: Optional[GonzalezNet] = None
    ) -> ClusteringResult:
        """Cluster ``dataset``; returns a ρ-approximate DBSCAN labeling."""
        timings = TimingBreakdown()
        eps, rho = self.eps, self.rho

        # Per-run counter registry: dataset eval deltas, cascade stats
        # and metric-wrapper counters all fold into ``timings.counters``
        # when the scope closes.
        with CounterScope(timings, dataset=dataset):
            if net is None:
                with timings.phase("gonzalez"):
                    net = radius_guided_gonzalez(
                        dataset, self.r_bar, eps_for_counts=eps,
                        index=self.index,
                    )
                    for counter, value in net.counters.items():
                        timings.count(counter, value)
            else:
                if net.r_bar > rho * eps / 2.0 + 1e-12:
                    raise ValueError(
                        f"precomputed net has r_bar={net.r_bar} > rho*eps/2="
                        f"{rho * eps / 2.0}; rebuild with a smaller r_bar"
                    )
                if not net.dataset.same_space(dataset):
                    raise ValueError(
                        "precomputed net was built on a different dataset"
                    )
                timings.phases.setdefault("gonzalez", 0.0)

            # Enlarged neighbor threshold 2r̄ + (1+ρ)ε (Eq. (13)
            # generalized to any r̄ <= ρε/2): every cover radius taken as
            # r̄, it captures every summary pair within (1+ρ)ε and every
            # point-to-summary pair within (1+ρ/2)ε.
            with timings.phase("neighbor_sets"):
                neighbors = net_neighbor_sets(
                    net, net.r_bar, (1.0 + rho) * eps, self.index, timings
                )

            with timings.phase("build_summary"):
                summary = build_summary(
                    dataset, net, eps, self.min_pts, neighbors
                )

            with timings.phase("merge_summary"):
                member_cluster = self._merge_summary(
                    dataset, net, summary, neighbors
                )

            with timings.phase("label_points"):
                labels = self._label_points(
                    dataset, net, summary, neighbors, member_cluster
                )

        return ClusteringResult(
            labels=labels,
            core_mask=summary.known_core_mask,
            timings=timings,
            stats={
                "algorithm": "our_approx",
                "eps": eps,
                "min_pts": self.min_pts,
                "rho": rho,
                "r_bar": net.r_bar,
                "n_centers": net.n_centers,
                "summary_size": summary.size,
                "core_mask_partial": True,
            },
        )

    # ------------------------------------------------------------------

    def _merge_summary(
        self,
        dataset: MetricDataset,
        net: GonzalezNet,
        summary: CoreSummary,
        neighbors: CSRQueryResult,
    ) -> np.ndarray:
        """Line 9 of Algorithm 2: connect summary points within
        ``(1+ρ)ε``; returns the dense cluster id of each summary point.

        Candidate pairs are evaluated with aligned pair-kernel slices;
        the edges within ``(1+ρ)ε`` then go through the numpy
        connected-components kernel in one call.
        """
        threshold = (1.0 + self.rho) * self.eps
        members = summary.members
        groups = summary.members_by_center

        # COO expansion of the candidate edges: every (center j, neighbor
        # center k) pair fans out to the cartesian product of their
        # summary points; one aligned pair kernel then evaluates all
        # edges at once.  si < t dedupes the symmetric halves before
        # evaluation.
        rows, cols = groups.cartesian(
            neighbors.query_rows(), groups, neighbors.ids
        )
        forward = rows < cols
        rows, cols = rows[forward], cols[forward]
        pair_slice = pairs_per_slice(dataset)
        edge = np.empty(rows.size, dtype=bool)
        for lo in range(0, rows.size, pair_slice):
            sl = slice(lo, lo + pair_slice)
            # Merge edges need only the ``<= (1+ρ)ε`` verdict.
            edge[sl] = dataset.pair_certified(
                members[rows[sl]], members[cols[sl]], threshold
            )
        return component_labels(summary.size, rows[edge], cols[edge])

    def _label_points(
        self,
        dataset: MetricDataset,
        net: GonzalezNet,
        summary: CoreSummary,
        neighbors: CSRQueryResult,
        member_cluster: np.ndarray,
    ) -> np.ndarray:
        """Lines 10-20 of Algorithm 2, batched.

        The line-11 fast path (inherit the cluster of an in-summary
        center) is one vectorized gather; the fallback search runs one
        many-to-many block per center whose sphere needs it.
        """
        n = dataset.n
        red_fallback = dataset.metric.reduce_threshold(
            (self.rho / 2.0 + 1.0) * self.eps
        )
        labels = np.full(n, -1, dtype=np.int64)
        members = summary.members
        # Summary points first: their own cluster ids.
        labels[members] = member_cluster

        in_summary = summary.member_position >= 0
        # Cluster id of each *center that is in S**, for the line-11 path.
        centers_arr = np.asarray(net.centers, dtype=np.int64)
        center_member_pos = np.where(
            summary.center_is_core, summary.member_position[centers_arr], -1
        )

        point_center_pos = center_member_pos[net.center_of]
        fast = ~in_summary & (point_center_pos >= 0)
        labels[fast] = member_cluster[point_center_pos[fast]]

        slow = np.flatnonzero(~in_summary & (point_center_pos < 0))
        if slow.size == 0:
            return labels
        # COO fallback: (slow point, candidate summary point) pairs via
        # the enlarged neighbor sets, reduced with min/argmin scatters.
        m = net.n_centers
        point_groups = FlatGroups.from_assignment(
            slow, net.center_of[slow], m
        )
        rows, cols = point_groups.cartesian(
            neighbors.query_rows(), summary.members_by_center, neighbors.ids
        )
        if rows.size == 0:
            return labels
        n_points = dataset.n
        best = np.full(n_points, np.inf)
        winner = np.full(n_points, summary.size, dtype=np.int64)
        pair_slice = pairs_per_slice(dataset)
        if rows.size <= pair_slice:
            d = dataset.pair(rows, members[cols], reduced=True)
            np.minimum.at(best, rows, d)
            hit = d <= best[rows]
            np.minimum.at(winner, rows[hit], cols[hit])
        else:
            # Memory-bounded two-phase: min pass, then tie pass.
            for lo in range(0, rows.size, pair_slice):
                sl = slice(lo, lo + pair_slice)
                d = dataset.pair(rows[sl], members[cols[sl]], reduced=True)
                np.minimum.at(best, rows[sl], d)
            for lo in range(0, rows.size, pair_slice):
                sl = slice(lo, lo + pair_slice)
                d = dataset.pair(rows[sl], members[cols[sl]], reduced=True)
                hit = d <= best[rows[sl]]
                np.minimum.at(winner, rows[sl][hit], cols[sl][hit])
        ok = slow[best[slow] <= red_fallback]
        labels[ok] = member_cluster[winner[ok]]
        return labels


def approx_metric_dbscan(
    dataset: MetricDataset,
    eps: float,
    min_pts: int,
    rho: float = 0.5,
    net: Optional[GonzalezNet] = None,
    **kwargs,
) -> ClusteringResult:
    """Convenience wrapper for :class:`ApproxMetricDBSCAN`."""
    return ApproxMetricDBSCAN(eps, min_pts, rho=rho, **kwargs).fit(dataset, net=net)
