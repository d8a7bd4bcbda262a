"""Core-point summary ``S*`` construction (Section 4.1).

The summary is the key device of the paper's approximate algorithm: a
small set that (a) is ``O((Δ/ρε)^D + z)`` in size (Lemma 9) and (b) can
regenerate valid ρ-approximate clusters (Theorem 2).  The construction
walks the centers of a ``r̄ = ρε/2`` Gonzalez net:

- a **core center** enters ``S*`` alone and *represents* every point of
  its cover set;
- a **non-core center** has ``|C_e| < MinPts`` members (Lemma 8 with
  ``ρ <= 2``), each of which is individually tested for core-ness (the
  candidate set again bounded by Lemma 2) and added to ``S*`` if core.

The candidate sets are composed from the net's cover sets and the CSR
center graph in one pass, the member tests run as flat slices of
aligned kernel calls over all sparse cover sets at once
(:func:`~repro.core.flatgroups.count_within`, shared with the exact
solver's Step 1), and the summary's per-center grouping is one
:class:`~repro.core.flatgroups.FlatGroups`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.flatgroups import FlatGroups, count_within
from repro.core.gonzalez import GonzalezNet
from repro.index.csr import CSRQueryResult
from repro.metricspace.dataset import MetricDataset


@dataclass
class CoreSummary:
    """The summary ``S*`` plus the bookkeeping the solver needs.

    Attributes
    ----------
    members:
        Point indices of ``S*``, grouped by center position and
        ascending within a center.
    member_position:
        ``member_position[p]`` is the position of point ``p`` inside
        ``members`` (``-1`` when ``p ∉ S*``).
    center_is_core:
        Per center position, whether the center point is a core point.
    known_core_mask:
        Points *proven* core during construction: the core centers plus
        the core members of sparse cover sets.  Points represented by a
        core center are never tested, so this mask is a subset of the
        true core set — exactly the information Algorithm 2 has.
    members_by_center:
        Group ``j`` holds the positions (into ``members``) of the
        summary points whose assigned center is center position ``j``.
    """

    members: np.ndarray
    member_position: np.ndarray
    center_is_core: np.ndarray
    known_core_mask: np.ndarray
    members_by_center: FlatGroups

    @property
    def size(self) -> int:
        """``|S*|``."""
        return int(self.members.shape[0])


def build_summary(
    dataset: MetricDataset,
    net: GonzalezNet,
    eps: float,
    min_pts: int,
    neighbors: CSRQueryResult,
) -> CoreSummary:
    """Construct ``S*`` per Algorithm 2 (lines 2--8).

    Parameters
    ----------
    dataset:
        The input metric space.
    net:
        A Gonzalez net with ``r̄ <= ρε/2`` (callers enforce this).
    eps, min_pts:
        The DBSCAN parameters.
    neighbors:
        The center graph of neighbor ball-center sets ``A_e``
        (:func:`repro.index.netgraph.net_neighbor_sets`) at a threshold
        of at least ``2 r̄ + ε``, so the Lemma-2 candidate bound
        applies.

    Notes
    -----
    Cost is ``O(((1/ρ)^D + z) n t_dis)`` (Lemma 10): the per-point core
    tests only happen inside sparse cover sets, whose sizes are below
    ``MinPts``.
    """
    cover = net.cover()
    centers = np.asarray(net.centers, dtype=np.int64)
    center_is_core = net.ball_count_for(eps) >= min_pts
    m = net.n_centers

    known_core = np.zeros(dataset.n, dtype=bool)
    known_core[centers[center_is_core]] = True
    # The center itself is already classified by the harvested ball
    # counts (it is not core here), so only the other sphere members
    # need testing — which skips singleton spheres entirely.  Their
    # pairs with the Lemma-2 candidates (|sphere| < MinPts rows, Lemma 8)
    # are decided in flat slices, as in the exact solver's Step 1.
    others = cover.sizes - (net.center_of[centers] == np.arange(m))
    sparse = np.flatnonzero(~center_is_core & (others > 0))
    spheres = cover.take(sparse)
    off_center = spheres.flat != np.repeat(centers[sparse], spheres.sizes)
    sizes = others[sparse]
    members = FlatGroups(spheres.flat[off_center], np.cumsum(sizes) - sizes, sizes)
    counts = count_within(
        dataset, members, cover.expand(neighbors, sparse), eps
    )
    known_core[members.flat[counts >= min_pts]] = True

    # S* is exactly the proven core points: a core center stands alone
    # for its cover set, whose other points are never tested.
    proven = np.flatnonzero(known_core)
    by_center = FlatGroups.from_assignment(proven, net.center_of[proven], m)
    members = by_center.flat
    member_position = np.full(dataset.n, -1, dtype=np.int64)
    member_position[members] = np.arange(members.size)
    return CoreSummary(
        members=members,
        member_position=member_position,
        center_is_core=center_is_core,
        known_core_mask=known_core,
        members_by_center=FlatGroups(
            np.arange(members.size), by_center.starts, by_center.sizes
        ),
    )
