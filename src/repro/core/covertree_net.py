"""Section 3.2: net extraction from a cover tree built on the whole input.

When the *entire* dataset (outliers included) has a low doubling
dimension, the paper replaces Algorithm 1 by building one cover tree on
``X`` and taking the node set of a fixed level as the center set ``E``.
This module packages that construction as a :class:`GonzalezNet`, so the
downstream exact/approximate solvers run unchanged.

Level choice: the paper takes ``i0 = ⌊log2(ε/2)⌋`` and treats ``T_{i0}``
as an ``ε/2``-net.  In the explicit cover tree, a point's ancestor at
conceptual level ``i`` is within ``Σ_{j<=i} 2^j <= 2^{i+1}``, so to
guarantee the covering radius ``<= ε/2`` required by the exact solver we
use ``i0 = ⌊log2(ε/4)⌋`` and verify the realized radius.  The packing
guarantee (centers ``> 2^{i0} >= ε/8`` apart) preserves the
``|A_p| = O(1)`` bound of Lemma 7 up to the constant.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from repro.core.gonzalez import GonzalezNet
from repro.covertree.tree import CoverTree
from repro.metricspace.dataset import MetricDataset
from repro.utils.validation import check_epsilon


def net_from_cover_tree(
    dataset: MetricDataset,
    eps: float,
    tree: Optional[CoverTree] = None,
) -> GonzalezNet:
    """Build the Section-3.2 center set from a cover tree level.

    Parameters
    ----------
    dataset:
        The input metric space (assumed low doubling dimension overall).
    eps:
        The DBSCAN radius; determines the net level.
    tree:
        An existing cover tree over all of ``dataset`` to reuse; built
        fresh when omitted.

    Returns
    -------
    GonzalezNet
        A net object with covering radius ``<= ε/2``, interchangeable
        with the output of Algorithm 1 (``r_bar`` is set to the realized
        bound ``ε/2``).
    """
    eps = check_epsilon(eps)
    if tree is None:
        # The level-net extraction relies on the classic construction's
        # separation invariant; the bulk build keeps queries exact but
        # only guarantees covering.
        tree = CoverTree(dataset, bulk=False)
    level = int(math.floor(math.log2(eps / 4.0)))
    center_list = tree.level_net(level)
    return _net_from_centers(dataset, center_list, r_bar=eps / 2.0)


def _net_from_centers(
    dataset: MetricDataset, centers: Iterable[int], r_bar: float
) -> GonzalezNet:
    """Assemble a :class:`GonzalezNet` from an explicit center set.

    Assigns every point to its nearest center (one batch distance pass
    per center, ``O(|E| n)`` evaluations — the same order as running
    Algorithm 1).  The net carries no center index; its merge graphs
    build one over the centers
    (:func:`repro.index.netgraph.net_neighbor_sets`).
    """
    centers = [int(c) for c in centers]
    if not centers:
        raise ValueError("center set must be non-empty")
    center_of = np.zeros(dataset.n, dtype=np.int64)
    dist_to_center = dataset.distances_from(centers[0])
    for j in range(1, len(centers)):
        d_new = dataset.distances_from(centers[j])
        closer = d_new < dist_to_center
        center_of[closer] = j
        np.minimum(dist_to_center, d_new, out=dist_to_center)
    realized = float(dist_to_center.max())
    if realized > r_bar * (1.0 + 1e-9):
        raise ValueError(
            f"cover-tree net has covering radius {realized:.6g} > r_bar={r_bar:.6g}; "
            "the dataset may violate the cover-tree invariants"
        )
    return GonzalezNet(
        dataset=dataset,
        r_bar=float(r_bar),
        centers=centers,
        center_of=center_of,
        dist_to_center=dist_to_center,
    )
