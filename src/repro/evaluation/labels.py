"""Label-array equivalence up to cluster-id relabeling.

Cluster ids carry no meaning across runs: the exact solver numbers
clusters by union-find traversal order, so two index backends (or two
solvers) can produce the same *partition* under different ids.
:func:`canonical_labels` rewrites a labeling into a canonical form —
noise stays ``-1``, clusters are renumbered ``0, 1, 2, …`` by order of
first appearance — and :func:`labels_equivalent_up_to_relabeling`
compares two labelings by comparing their canonical forms.

This is an *exact* partition check (noise must match point-for-point),
unlike ARI-style scores which reward near-agreement; use it where the
algorithm guarantees identical clusterings, and ARI bands where it
guarantees only approximation quality.
"""

from __future__ import annotations

import numpy as np


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Canonical relabeling: noise (< 0) → ``-1``, clusters renumbered
    by first appearance in index order.

    >>> canonical_labels(np.array([5, 5, -1, 2, 2, 5]))
    array([ 0,  0, -1,  1,  1,  0])
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-d, got shape {labels.shape}")
    out = np.full(labels.shape, -1, dtype=np.int64)
    clustered = labels >= 0
    if not np.any(clustered):
        return out
    ids = labels[clustered]
    # np.unique returns first-occurrence positions; ranking those
    # positions numbers clusters in order of first appearance.
    uniq, first_pos, inverse = np.unique(
        ids, return_index=True, return_inverse=True
    )
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first_pos, kind="stable")] = np.arange(len(uniq))
    out[clustered] = rank[inverse]
    return out


def labels_equivalent_up_to_relabeling(
    a: np.ndarray, b: np.ndarray
) -> bool:
    """``True`` iff ``a`` and ``b`` describe the same clustering —
    identical noise sets and identical cluster partition — regardless
    of which integer names each cluster.

    >>> labels_equivalent_up_to_relabeling(
    ...     np.array([0, 0, 1, -1]), np.array([7, 7, 3, -1]))
    True
    >>> labels_equivalent_up_to_relabeling(
    ...     np.array([0, 0, 1, -1]), np.array([0, 1, 1, -1]))
    False
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(canonical_labels(a), canonical_labels(b)))
