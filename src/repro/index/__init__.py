"""Pluggable neighbor-index subsystem (PR 2).

Range/kNN neighbor search behind one interface so solvers scale past
the dense center-center matrices of PR 1: :class:`BruteForceIndex`
(blocked scans, any metric), :class:`GridIndex` (uniform-cell table
for vector metrics), :class:`CoverTreeIndex` (general metric spaces),
selected by name through :func:`build_index` (``auto`` policy, or the
``REPRO_DEFAULT_INDEX`` environment variable).  See
:mod:`repro.index.base` for the interface contract.
"""

from repro.index.base import NeighborIndex, QueryResult
from repro.index.brute import BruteForceIndex
from repro.index.csr import CSRQueryResult, csr_from_rows, segment_argmin
from repro.index.covertree import CoverTreeIndex
from repro.index.grid import GridIndex
from repro.index.netgraph import center_neighbor_sets, net_neighbor_sets
from repro.index.registry import (
    AUTO_BRUTE_MAX,
    DEFAULT_INDEX_ENV,
    GRID_PROBE_MAX_RATIO,
    GRID_PROBE_QUERIES,
    INDEX_REGISTRY,
    IndexSpec,
    available_backends,
    build_index,
    default_index_name,
    register_index,
    resolve_grown_index_name,
    resolve_index_name,
)

__all__ = [
    "NeighborIndex",
    "QueryResult",
    "CSRQueryResult",
    "csr_from_rows",
    "segment_argmin",
    "BruteForceIndex",
    "GridIndex",
    "CoverTreeIndex",
    "center_neighbor_sets",
    "net_neighbor_sets",
    "IndexSpec",
    "INDEX_REGISTRY",
    "AUTO_BRUTE_MAX",
    "DEFAULT_INDEX_ENV",
    "GRID_PROBE_MAX_RATIO",
    "GRID_PROBE_QUERIES",
    "available_backends",
    "build_index",
    "default_index_name",
    "register_index",
    "resolve_grown_index_name",
    "resolve_index_name",
]
