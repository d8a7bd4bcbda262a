"""A vanilla cover tree over a :class:`~repro.metricspace.MetricDataset`.

The cover tree (Section 1.1.3 of the paper) is a hierarchy of nets: the
set of nodes at conceptual level ``i`` is a ``2^i``-net of the level
below.  We use the standard explicit representation in which each point
appears as a single node at its *insertion* level and conceptually
self-descends through every lower level; explicit children may therefore
sit at arbitrary levels below their parent.

Invariants maintained (for nodes interpreted at conceptual levels):

- *nesting*: ``T_i ⊆ T_{i-1}``;
- *covering*: an explicit child at level ``j`` is within ``2^(j+1)`` of
  its parent, hence every descendant of a conceptual level-``k`` node is
  within ``2^(k+1)`` of it;
- *separation*: distinct nodes at conceptual level ``i`` are ``> 2^i``
  apart.

Exact duplicates (distance 0) are stored in a per-node duplicate list so
the separation invariant never degenerates.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.metricspace.dataset import MetricDataset


class _Node:
    """One explicit cover-tree node."""

    __slots__ = ("index", "level", "children", "duplicates")

    def __init__(self, index: int, level: int) -> None:
        self.index = index
        self.level = level
        self.children: List[_Node] = []
        self.duplicates: List[int] = []


#: Stored-set size at which vector-metric construction switches to the
#: level-batched bulk build (``bulk=None`` auto policy): below it the
#: classic sequential insertion's small candidate batches are cheap
#: enough that restructuring cannot pay for itself.
BULK_BUILD_MIN = 1024


class CoverTree:
    """Cover tree over (a subset of) a metric dataset.

    Parameters
    ----------
    dataset:
        The underlying metric space.
    indices:
        Which points to insert.  Defaults to all of them, in index order
        (construction is deterministic).
    bulk:
        Construction strategy.  ``False`` inserts sequentially (the
        classic algorithm, maintaining the covering *and* separation
        invariants).  ``True`` uses the level-batched divisive build:
        each sibling pick evaluates its whole remaining member set with
        one ``Metric.cross`` block, which removes the per-node Python
        candidate juggling that dominates construction for cheap vector
        metrics.  Bulk trees satisfy the covering invariant (so every
        query remains exact) but may violate *separation* across
        sibling subtrees; use ``False`` when :meth:`level_net` packing
        matters.  ``None`` (default) picks bulk for vector metrics at
        ``>= BULK_BUILD_MIN`` points.

    Notes
    -----
    Construction costs ``O(2^O(D) n log Φ)`` distance evaluations for
    doubling dimension ``D`` and aspect ratio ``Φ`` (Claim 1 of the
    paper); queries cost ``O(2^O(D) log Φ)``.
    """

    def __init__(
        self,
        dataset: MetricDataset,
        indices: Optional[Iterable[int]] = None,
        bulk: Optional[bool] = None,
    ) -> None:
        self.dataset = dataset
        self._root: Optional[_Node] = None
        self._size = 0
        #: Distance evaluations spent building and querying this tree —
        #: the ``t_dis`` instrumentation the index layer surfaces as
        #: ``n_candidates``.
        self.n_distance_evals = 0
        if indices is None:
            indices = range(dataset.n)
        idx_list = [int(i) for i in indices]
        if bulk is None:
            bulk = (
                dataset.metric.is_vector_metric
                and len(idx_list) >= BULK_BUILD_MIN
            )
        if bulk and len(idx_list) >= 2:
            self._bulk_build(idx_list)
        else:
            for idx in idx_list:
                self.insert(idx)

    # ------------------------------------------------------------------
    # Bulk construction

    def _cross_row(self, idx: int, targets: np.ndarray) -> np.ndarray:
        """True distances from point ``idx`` to ``targets`` in one
        instrumented block kernel."""
        if targets.size == 0:
            return np.empty(0, dtype=np.float64)
        self.n_distance_evals += int(targets.size)
        return np.asarray(
            self.dataset.cross([idx], targets)[0], dtype=np.float64
        )

    def _bulk_build(self, indices: List[int]) -> None:
        """Divisive level-batched construction.

        Top-down recursion on (node, level, members): members within
        ``2^(level-1)`` of the node descend with it; the rest are split
        into sibling balls by greedy picks, each pick classifying its
        whole remaining set with one :meth:`_cross_row` call.  The
        covering invariant (descendants of a conceptual level-``k``
        node within ``2^(k+1)``) holds throughout, which is what the
        query pruning relies on.
        """
        p0 = indices[0]
        rest = np.asarray(indices[1:], dtype=np.intp)
        d0 = self._cross_row(p0, rest)
        dup = d0 == 0.0
        duplicates = [int(x) for x in rest[dup]]
        rest, d0 = rest[~dup], d0[~dup]
        if rest.size == 0:
            self._root = _Node(p0, level=0)
            self._root.duplicates = duplicates
            self._size = 1 + len(duplicates)
            return
        top = _level_for(float(d0.max()))
        self._root = _Node(p0, level=top)
        self._root.duplicates = duplicates
        self._size = 1 + len(duplicates) + int(rest.size)
        stack: List[tuple] = [(self._root, top, rest, d0)]
        while stack:
            node, level, members, dmem = stack.pop()
            if members.size == 0:
                continue
            # Jump straight past empty levels (all members much closer
            # than the current scale).
            level = min(level, _level_for(float(dmem.max())))
            radius = 2.0 ** (level - 1)
            near = dmem <= radius
            if near.any():
                stack.append((node, level - 1, members[near], dmem[near]))
            far, dfar = members[~near], dmem[~near]
            while far.size:
                c = int(far[0])
                child = _Node(c, level=level - 1)
                node.children.append(child)
                rest_far, drest = far[1:], dfar[1:]
                if rest_far.size == 0:
                    break
                dc = self._cross_row(c, rest_far)
                dup_c = dc == 0.0
                if dup_c.any():
                    child.duplicates.extend(int(x) for x in rest_far[dup_c])
                    keep = ~dup_c
                    rest_far, drest, dc = rest_far[keep], drest[keep], dc[keep]
                mine = dc <= radius
                if mine.any():
                    stack.append((child, level - 1, rest_far[mine], dc[mine]))
                far, dfar = rest_far[~mine], drest[~mine]

    # ------------------------------------------------------------------
    # Introspection

    @property
    def size(self) -> int:
        """Number of points stored (including duplicates)."""
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def root_index(self) -> Optional[int]:
        """Index of the root point, or None when empty."""
        return self._root.index if self._root is not None else None

    @property
    def top_level(self) -> Optional[int]:
        """The root's level ``l_top``, or None when the tree has < 2 points."""
        if self._root is None or self._root.level is None:
            return None
        return self._root.level

    def iter_nodes(self) -> Iterable[_Node]:
        """Yield every explicit node (pre-order)."""
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def all_indices(self) -> List[int]:
        """Every stored point index, duplicates included."""
        out: List[int] = []
        for node in self.iter_nodes():
            out.append(node.index)
            out.extend(node.duplicates)
        return out

    # ------------------------------------------------------------------
    # Insertion

    def insert(self, idx: int) -> None:
        """Insert dataset point ``idx`` into the tree."""
        if self._root is None:
            self._root = _Node(idx, level=0)
            self._size = 1
            return
        payload = self.dataset.point(idx)
        root = self._root
        d_root = self._root_distance(payload)
        if d_root == 0.0:
            root.duplicates.append(idx)
            self._size += 1
            return
        if self._size == 1:
            # First non-duplicate insertion fixes the root level.
            root.level = max(root.level, _level_for(d_root))
        if d_root > 2.0**root.level:
            root.level = _level_for(d_root)

        # Descend, recording the deepest level at which a parent exists.
        cover: List[Tuple[_Node, float]] = [(root, d_root)]
        level = root.level
        parent: _Node = root
        parent_level: int = level
        while True:
            # Candidate set at conceptual level-1: self-children plus
            # explicit children sitting exactly one level down.
            radius = 2.0**level
            candidates = list(cover)
            new_children = [
                child for node, _ in cover for child in node.children
                if child.level == level - 1
            ]
            if new_children:
                dists = self._batch(payload, [c.index for c in new_children])
                for child, dist in zip(new_children, dists):
                    if dist == 0.0:
                        child.duplicates.append(idx)
                        self._size += 1
                        return
                    candidates.append((child, float(dist)))
            d_min = min(d for _, d in candidates)
            if d_min > radius:
                break
            cover_min = min(d for _, d in cover)
            if cover_min <= radius:
                # A parent exists at this level; prefer the nearest.
                parent = min(cover, key=lambda t: t[1])[0]
                parent_level = level
            cover = [(node, d) for node, d in candidates if d <= radius]
            level -= 1
        node = _Node(idx, level=parent_level - 1)
        parent.children.append(node)
        self._size += 1

    # ------------------------------------------------------------------
    # Queries

    def nearest(
        self, payload: object, early_stop: Optional[float] = None
    ) -> Tuple[int, float]:
        """Nearest stored point to ``payload``.

        Parameters
        ----------
        payload:
            Query payload (not necessarily a dataset point).
        early_stop:
            If given, the search may return as soon as a point at
            distance ``<= early_stop`` is found.  The returned point is
            then within ``early_stop`` but not necessarily the nearest —
            exactly what the BCP merge test of Step (2) needs.

        Returns
        -------
        (index, distance)
        """
        if self._root is None:
            raise ValueError("nearest() on an empty cover tree")
        root = self._root
        best_d = self._root_distance(payload)
        best_idx = root.index
        if early_stop is not None and best_d <= early_stop:
            return best_idx, best_d
        candidates: List[Tuple[_Node, float]] = [(root, best_d)]
        bound: Optional[int] = None  # only expand children strictly below
        while True:
            expand_level = self._max_child_level(candidates, bound)
            if expand_level is None:
                return best_idx, best_d
            bound = expand_level
            new_children = [
                child for node, _ in candidates for child in node.children
                if child.level == expand_level
            ]
            dists = self._batch(payload, [c.index for c in new_children])
            for child, dist in zip(new_children, dists):
                dist = float(dist)
                if dist < best_d:
                    best_d, best_idx = dist, child.index
                    if early_stop is not None and best_d <= early_stop:
                        return best_idx, best_d
                candidates.append((child, dist))
            # Descendants of a conceptual level-k node lie within 2^(k+1);
            # after expanding level j, every surviving candidate's
            # remaining children sit at levels < j, so its unexplored
            # descendants are within 2^(j+1) of it.
            reach = 2.0 ** (expand_level + 1)
            candidates = [
                (node, d)
                for node, d in candidates
                if d <= best_d + reach and _has_children_below(node, expand_level)
            ]
            if not candidates:
                return best_idx, best_d

    def range_query(self, payload: object, radius: float) -> List[Tuple[int, float]]:
        """All stored points within ``radius`` of ``payload``.

        Returns a list of ``(index, distance)`` pairs, duplicates
        included.  Order is deterministic for a fixed tree.
        """
        if self._root is None:
            return []
        results: List[Tuple[int, float]] = []
        root = self._root
        d_root = self._root_distance(payload)
        if d_root <= radius:
            results.append((root.index, d_root))
            results.extend((dup, d_root) for dup in root.duplicates)
        candidates: List[Tuple[_Node, float]] = [(root, d_root)]
        bound: Optional[int] = None  # only expand children strictly below
        while candidates:
            expand_level = self._max_child_level(candidates, bound)
            if expand_level is None:
                break
            bound = expand_level
            new_children = [
                child for node, _ in candidates for child in node.children
                if child.level == expand_level
            ]
            dists = self._batch(payload, [c.index for c in new_children])
            next_candidates: List[Tuple[_Node, float]] = []
            for child, dist in zip(new_children, dists):
                dist = float(dist)
                if dist <= radius:
                    results.append((child.index, dist))
                    results.extend((dup, dist) for dup in child.duplicates)
                next_candidates.append((child, dist))
            reach = 2.0 ** (expand_level + 1)
            candidates = [
                (node, d)
                for node, d in candidates + next_candidates
                if d <= radius + reach and _has_children_below(node, expand_level)
            ]
        return results

    def level_net(self, level: int) -> List[int]:
        """Point indices forming the conceptual level-``level`` net ``T_i``.

        These are the explicit nodes whose level is ``>= level`` (each
        point conceptually self-descends, so a point inserted at level
        ``j`` belongs to every ``T_i`` with ``i <= j``).  The root always
        belongs.  By the cover-tree invariants the result is a
        ``2^level``-packing of the data and a covering with radius
        ``2^(level+1)`` (sum of the geometric covering chain).
        """
        if self._root is None:
            return []
        out = [self._root.index]
        stack = list(self._root.children)
        while stack:
            node = stack.pop()
            if node.level >= level:
                out.append(node.index)
            stack.extend(node.children)
        return out

    # ------------------------------------------------------------------
    # Internals

    def _batch(self, payload: object, indices: List[int]) -> np.ndarray:
        if not indices:
            return np.empty(0, dtype=np.float64)
        self.n_distance_evals += len(indices)
        # Tree probes count as engine work: keep the dataset-level
        # distance_evals attribution comparable across backends.
        self.dataset.n_cross_blocks += 1
        self.dataset.n_cross_evals += len(indices)
        return self.dataset.distances_point(payload, indices)

    def _root_distance(self, payload: object) -> float:
        self.n_distance_evals += 1
        self.dataset.n_cross_evals += 1
        return float(
            self.dataset.metric.distance(payload, self.dataset.point(self._root.index))
        )

    @staticmethod
    def _max_child_level(
        candidates: List[Tuple[_Node, float]], below: Optional[int] = None
    ) -> Optional[int]:
        """Highest child level among candidates, restricted to levels
        strictly below ``below`` (no restriction when ``below`` is None)."""
        best: Optional[int] = None
        for node, _ in candidates:
            for child in node.children:
                if below is not None and child.level >= below:
                    continue
                if best is None or child.level > best:
                    best = child.level
        return best


def _has_children_below(node: _Node, level: int) -> bool:
    """Whether ``node`` still has explicit children at levels below ``level``."""
    return any(child.level < level for child in node.children)


def _level_for(distance: float) -> int:
    """Smallest integer ``i`` with ``2^i >= distance`` (distance > 0)."""
    return int(math.ceil(math.log2(distance)))
