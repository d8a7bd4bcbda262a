"""repro — reproduction of *Towards Metric DBSCAN: Exact, Approximate,
and Streaming Algorithms* (Mo, Song & Ding, SIGMOD 2024).

Public API highlights
---------------------

- :class:`~repro.core.exact.MetricDBSCAN` — the paper's exact metric
  DBSCAN (Section 3), linear in ``n`` under the low-doubling-dimension
  assumption.
- :class:`~repro.core.approx.ApproxMetricDBSCAN` — Algorithm 2, the
  ρ-approximate solver built on a core-point summary (Section 4.1).
- :class:`~repro.core.streaming.StreamingApproxDBSCAN` — Algorithm 3,
  three passes, memory independent of ``n`` (Section 4.2).
- :func:`~repro.core.gonzalez.radius_guided_gonzalez` — Algorithm 1,
  the radius-guided k-center net underpinning everything.
- :class:`~repro.metricspace.MetricDataset` plus concrete metrics
  (Euclidean, Minkowski, edit distance, angular, ...).
- :mod:`repro.index` — pluggable neighbor-search backends (brute,
  grid, cover tree) behind one range/kNN interface; solvers accept
  ``index="grid"`` etc.
- :mod:`repro.baselines` — every comparison algorithm of Section 5.
- :mod:`repro.evaluation` — ARI / AMI / NMI from first principles.
- :mod:`repro.datasets` — synthetic stand-ins for the paper's datasets.

Quickstart
----------

>>> import numpy as np
>>> from repro import MetricDataset, MetricDBSCAN
>>> rng = np.random.default_rng(0)
>>> blob_a = rng.normal(0.0, 0.2, size=(50, 2))
>>> blob_b = rng.normal(5.0, 0.2, size=(50, 2))
>>> data = MetricDataset(np.vstack([blob_a, blob_b]))
>>> result = MetricDBSCAN(eps=1.0, min_pts=5).fit(data)
>>> result.n_clusters
2
"""

from repro.core import (
    ApproxMetricDBSCAN,
    ClusteringResult,
    DecayingApproxDBSCAN,
    GonzalezNet,
    MetricDBSCAN,
    PointType,
    StreamingApproxDBSCAN,
    WindowedApproxDBSCAN,
    approx_metric_dbscan,
    metric_dbscan,
    net_from_cover_tree,
    radius_guided_gonzalez,
)
from repro.covertree import CoverTree
from repro.index import (
    BruteForceIndex,
    CoverTreeIndex,
    GridIndex,
    NeighborIndex,
    build_index,
)
from repro.metricspace import (
    CosineMetric,
    CountingMetric,
    EditDistanceMetric,
    EuclideanMetric,
    HammingMetric,
    JaccardMetric,
    ManhattanMetric,
    Metric,
    MetricDataset,
    MinkowskiMetric,
)

__version__ = "1.0.0"

__all__ = [
    "MetricDBSCAN",
    "metric_dbscan",
    "ApproxMetricDBSCAN",
    "approx_metric_dbscan",
    "StreamingApproxDBSCAN",
    "WindowedApproxDBSCAN",
    "DecayingApproxDBSCAN",
    "radius_guided_gonzalez",
    "GonzalezNet",
    "net_from_cover_tree",
    "ClusteringResult",
    "PointType",
    "CoverTree",
    "Metric",
    "MetricDataset",
    "EuclideanMetric",
    "MinkowskiMetric",
    "ManhattanMetric",
    "CosineMetric",
    "EditDistanceMetric",
    "HammingMetric",
    "JaccardMetric",
    "CountingMetric",
    "NeighborIndex",
    "BruteForceIndex",
    "GridIndex",
    "CoverTreeIndex",
    "build_index",
    "__version__",
]
