"""Connected components of a flat edge list, in numpy.

Every batch merge ends with a list of edges ``(a[i], b[i])`` over the
elements ``0..n-1`` that must become one dense cluster id per element.
Each round *hooks* the larger root of every edge that spans two trees
under the smaller one (``np.minimum.at`` keeps the smallest candidate,
so duplicate indices cannot make the result depend on which write a
fancy assignment keeps), then *jumps* pointers (``parent[parent]``)
until every element points at its root.  Every round hooks at least
one root, so the loop ends; roots are the smallest element of their
component.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _hook_and_jump(n: int, a, b) -> Tuple[np.ndarray, int]:
    """Component roots of ``0..n-1`` under the edges ``(a[i], b[i])``,
    plus the number of hooking rounds it took."""
    a = np.asarray(a, dtype=np.int64).ravel()
    b = np.asarray(b, dtype=np.int64).ravel()
    if a.shape != b.shape:
        raise ValueError(
            f"edge endpoint arrays differ in length: {a.size} vs {b.size}"
        )
    parent = np.arange(n, dtype=np.int64)
    rounds = 0
    while a.size:
        # An edge between two elements connects their roots just the
        # same, so the edge list shrinks to root pairs, smaller first.
        a, b = parent[a], parent[b]
        live = a != b
        if not live.any():
            break
        a, b = a[live], b[live]
        a, b = np.minimum(a, b), np.maximum(a, b)
        np.minimum.at(parent, b, a)
        rounds += 1
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return parent, rounds


def component_roots(n: int, a, b) -> np.ndarray:
    """Smallest element of each element's component (length ``n``)."""
    return _hook_and_jump(n, a, b)[0]


def first_seen_labels(keys: np.ndarray) -> np.ndarray:
    """Dense ids ``0..k-1`` for ``keys``, numbered in order of first
    appearance — applied to component roots read in some element order,
    this is :meth:`UnionFind.component_labels` over that order.

    The keys are element indices (non-negative integers), so no sort is
    needed: ``np.minimum.at`` scatters each key's first position, and a
    running count of the positions that are some key's first gives the
    ids, in O(#keys + max key)."""
    keys = np.asarray(keys, dtype=np.int64).ravel()
    if not keys.size:
        return np.empty(0, dtype=np.int64)
    first = np.full(int(keys.max()) + 1, keys.size, dtype=np.int64)
    np.minimum.at(first, keys, np.arange(keys.size))
    first = first[keys]
    head = np.zeros(keys.size, dtype=bool)
    head[first] = True
    return (np.cumsum(head) - 1)[first]


def component_labels(n: int, a, b) -> np.ndarray:
    """Dense component id of each element ``0..n-1`` under the edges
    ``(a[i], b[i])``, equal to ``UnionFind(n)`` fed the same unions and
    read through ``component_labels(range(n))``."""
    return first_seen_labels(component_roots(n, a, b))
