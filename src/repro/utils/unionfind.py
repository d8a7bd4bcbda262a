"""Disjoint-set (union-find) with path compression and union by rank.

Used by the baselines (grid merging in Gan--Tao, core graphs in
DBSCAN++, micro-cluster graphs in the streaming baselines).  The
package's own batch merges go through the vectorized kernel in
:mod:`repro.utils.components`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List


class UnionFind:
    """Union-find over the integers ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of elements.  Elements are the integers ``0..n-1``.

    Examples
    --------
    >>> uf = UnionFind(4)
    >>> uf.union(0, 1)
    True
    >>> uf.connected(0, 1)
    True
    >>> uf.connected(0, 2)
    False
    >>> uf.n_components
    3
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self._parent: List[int] = list(range(n))
        self._rank: List[int] = [0] * n
        self._n_components = n

    @property
    def n_elements(self) -> int:
        """Total number of elements managed by this structure."""
        return len(self._parent)

    @property
    def n_components(self) -> int:
        """Current number of disjoint components."""
        return self._n_components

    def find(self, x: int) -> int:
        """Return the canonical representative of ``x``'s component.

        Uses iterative path halving, so deep chains are flattened without
        recursion-limit concerns.
        """
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the components of ``a`` and ``b``.

        Returns
        -------
        bool
            ``True`` if a merge happened, ``False`` if the two elements
            were already in the same component.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self._n_components -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are currently in the same component."""
        return self.find(a) == self.find(b)

    def add(self) -> int:
        """Append a fresh singleton element and return its index."""
        idx = len(self._parent)
        self._parent.append(idx)
        self._rank.append(0)
        self._n_components += 1
        return idx

    def component_labels(self, elements: Iterable[int] | None = None) -> Dict[int, int]:
        """Map each element to a dense component label ``0..k-1``.

        Parameters
        ----------
        elements:
            Elements to label.  Defaults to all elements.  Labels are
            assigned in first-seen order, so the output is deterministic
            for a deterministic iteration order.
        """
        if elements is None:
            elements = range(len(self._parent))
        roots: Dict[int, int] = {}
        labels: Dict[int, int] = {}
        for x in elements:
            root = self.find(x)
            if root not in roots:
                roots[root] = len(roots)
            labels[x] = roots[root]
        return labels

    def components(self) -> List[List[int]]:
        """Return the list of components, each a sorted list of elements."""
        groups: Dict[int, List[int]] = {}
        for x in range(len(self._parent)):
            groups.setdefault(self.find(x), []).append(x)
        return [sorted(members) for members in groups.values()]
