"""D-Stream (Chen & Tu, KDD 2007) — density-grid streaming clustering.

Online phase: each point increments the decayed density of its grid
cell.  Offline phase: cells are classified as *dense*, *transitional*,
or *sparse* by comparing their density to fractions of the average
density mass; dense cells connect to adjacent dense cells to form macro
clusters, and transitional cells attach to an adjacent cluster at the
boundary.  Points are labeled by their cell's cluster (noise for sparse
cells).

The original operates on a fixed partition of a known bounding box; we
hash cells lazily so the domain need not be known in advance.  High
dimension makes the grid degenerate (every point its own cell) — the
same qualitative failure the paper's Table 4 shows for D-Stream on the
image datasets.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.result import ClusteringResult
from repro.metricspace.dataset import MetricDataset
from repro.metricspace.counting import unwrap
from repro.metricspace.euclidean import EuclideanMetric
from repro.utils.timer import TimingBreakdown
from repro.utils.unionfind import UnionFind

CellKey = Tuple[int, ...]


class DStream:
    """Density-grid streaming clustering (Euclidean).

    Parameters
    ----------
    cell_size:
        Grid cell side length.
    decay:
        Density decay factor per arrival, applied as ``λ^(Δt)``; 1.0
        disables decay.
    c_m:
        Dense-cell factor: a cell is dense when its density exceeds
        ``c_m`` times the average cell density.
    c_l:
        Sparse-cell factor (``< c_m``): below ``c_l`` times the average,
        a cell is sparse.
    """

    def __init__(
        self,
        cell_size: float,
        decay: float = 0.999,
        c_m: float = 3.0,
        c_l: float = 0.8,
    ) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        if c_l >= c_m:
            raise ValueError(f"c_l ({c_l}) must be < c_m ({c_m})")
        self.cell_size = float(cell_size)
        self.decay = float(decay)
        self.c_m = float(c_m)
        self.c_l = float(c_l)
        self._density: Dict[CellKey, float] = {}
        self._last_update: Dict[CellKey, int] = {}
        self._t = 0

    def _key(self, point: np.ndarray) -> CellKey:
        return tuple(np.floor(np.asarray(point) / self.cell_size).astype(np.int64))

    def partial_fit(self, point: np.ndarray) -> None:
        """Process one stream point."""
        self._t += 1
        key = self._key(point)
        last = self._last_update.get(key, self._t)
        fade = self.decay ** (self._t - last)
        self._density[key] = self._density.get(key, 0.0) * fade + 1.0
        self._last_update[key] = self._t

    # ------------------------------------------------------------------

    def grid_clusters(self) -> Dict[CellKey, int]:
        """Offline phase: map each cell to a macro-cluster id (sparse
        cells omitted)."""
        if not self._density:
            return {}
        keys = list(self._density.keys())
        dens = np.array(
            [
                self._density[k] * self.decay ** (self._t - self._last_update[k])
                for k in keys
            ]
        )
        avg = float(dens.mean())
        dense = dens >= self.c_m * avg
        transitional = (~dense) & (dens >= self.c_l * avg)

        index = {k: i for i, k in enumerate(keys)}
        uf = UnionFind(len(keys))
        # Connect dense cells to adjacent (Chebyshev-1) dense cells.  The
        # adjacency scan enumerates over existing cells and checks key
        # deltas, staying polynomial in the number of *non-empty* cells.
        key_arr = np.asarray(keys, dtype=np.int64)
        for i in np.flatnonzero(dense):
            delta = np.abs(key_arr - key_arr[i]).max(axis=1)
            for j in np.flatnonzero((delta <= 1) & dense):
                if j > i:
                    uf.union(int(i), int(j))
        dense_idx = np.flatnonzero(dense).tolist()
        comp = uf.component_labels(dense_idx)
        out: Dict[CellKey, int] = {keys[i]: comp[i] for i in dense_idx}
        # Attach transitional cells to an adjacent dense cluster.
        for i in np.flatnonzero(transitional):
            delta = np.abs(key_arr - key_arr[i]).max(axis=1)
            adjacent_dense = np.flatnonzero((delta <= 1) & dense)
            if adjacent_dense.size:
                best = int(adjacent_dense[np.argmax(dens[adjacent_dense])])
                out[keys[i]] = comp[best]
        return out

    def fit(self, dataset: MetricDataset) -> ClusteringResult:
        """Online pass + offline grid clustering + labeling pass."""
        if not isinstance(unwrap(dataset.metric), EuclideanMetric):
            raise ValueError("DStream requires a EuclideanMetric dataset")

        def factory():
            return iter(np.asarray(dataset.points, dtype=np.float64))

        return self.fit_stream(factory)

    def fit_stream(self, stream_factory) -> ClusteringResult:
        """Streaming interface (two passes: learn, then label)."""
        timings = TimingBreakdown()
        with timings.phase("online"):
            for payload in stream_factory():
                self.partial_fit(payload)
        with timings.phase("offline"):
            mapping = self.grid_clusters()
        with timings.phase("assign"):
            labels = [
                mapping.get(self._key(np.asarray(p)), -1) for p in stream_factory()
            ]
        return ClusteringResult(
            labels=np.asarray(labels, dtype=np.int64),
            core_mask=None,
            timings=timings,
            stats={
                "algorithm": "d-stream",
                "cell_size": self.cell_size,
                "n_cells": len(self._density),
                "memory_points": len(self._density),
            },
        )
