"""Backend registry and selection policy for :mod:`repro.index`.

Solvers never instantiate backends directly; they pass an *index spec*
(a backend name, ``"auto"``, ``None``, a :class:`NeighborIndex`
instance, or a backend class) to :func:`build_index`.  ``None`` defers
to the process-wide default — the ``REPRO_DEFAULT_INDEX`` environment
variable when set, else ``"auto"``.

The ``auto`` policy picks by stored-set size and metric type:

- small sets (``<= AUTO_BRUTE_MAX``) → ``brute``: one blocked numpy
  scan beats any pruning structure's per-query overhead;
- vector metrics the grid can lower-bound (Euclidean, Minkowski
  family, angular) → ``grid``;
- everything else (edit distance, Jaccard, ...) → ``covertree``.

``benchmarks/bench_index_backends.py`` measures the crossover points
this policy encodes; ROADMAP.md records the open gaps.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Type, Union

import numpy as np

from repro.index.base import NeighborIndex
from repro.index.brute import BruteForceIndex
from repro.index.covertree import CoverTreeIndex
from repro.index.grid import GridIndex
from repro.metricspace.dataset import IndexArray, MetricDataset

#: Environment variable overriding the process-wide default spec.
DEFAULT_INDEX_ENV = "REPRO_DEFAULT_INDEX"

#: ``auto`` uses brute force at or below this stored-set size.
AUTO_BRUTE_MAX = 2048

#: Auto-policy grid probe: number of sampled range queries.
GRID_PROBE_QUERIES = 8

#: Auto-policy grid probe: if the sampled queries touch more than this
#: fraction of the stored set as exact-filter candidates, the ≤3-dim
#: projection is not discriminating (isotropic high-dimensional data)
#: and ``auto`` falls back to the brute backend, whose one blocked scan
#: beats a grid that gathers nearly everything anyway.
GRID_PROBE_MAX_RATIO = 0.5

IndexSpec = Union[None, str, NeighborIndex, Type[NeighborIndex]]

INDEX_REGISTRY: Dict[str, Type[NeighborIndex]] = {}


def register_index(cls: Type[NeighborIndex]) -> Type[NeighborIndex]:
    """Register a backend class under its ``name`` attribute."""
    name = cls.name
    if not name or name == "abstract":
        raise ValueError(f"{cls.__name__} must define a concrete name")
    existing = INDEX_REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"index backend {name!r} already registered")
    INDEX_REGISTRY[name] = cls
    return cls


register_index(BruteForceIndex)
register_index(GridIndex)
register_index(CoverTreeIndex)


def available_backends() -> tuple:
    """Registered backend names plus ``auto``, sorted."""
    return tuple(sorted(INDEX_REGISTRY)) + ("auto",)


def default_index_name() -> str:
    """The process-wide default backend name (``auto`` unless the
    ``REPRO_DEFAULT_INDEX`` environment variable overrides it)."""
    name = os.environ.get(DEFAULT_INDEX_ENV, "").strip().lower()
    if not name:
        return "auto"
    if name != "auto" and name not in INDEX_REGISTRY:
        raise ValueError(
            f"{DEFAULT_INDEX_ENV}={name!r} is not a registered index backend; "
            f"choose from {available_backends()}"
        )
    return name


def resolve_index_name(
    spec: IndexSpec, dataset: MetricDataset, n_stored: int
) -> str:
    """Resolve an index spec to a concrete backend name for a build
    over ``n_stored`` points of ``dataset``."""
    if spec is None:
        name = default_index_name()
        # The env default is a process-wide *preference*: when it names
        # a backend that cannot serve this metric (grid on edit
        # distance, say), fall back to the auto policy instead of
        # failing datasets the backend was never meant for.  An
        # explicit per-call spec still fails loudly below.
        if name == "grid" and not GridIndex.supports(dataset.metric):
            name = "auto"
    elif isinstance(spec, NeighborIndex):
        return spec.name
    elif isinstance(spec, type) and issubclass(spec, NeighborIndex):
        return spec.name
    elif isinstance(spec, str):
        name = spec.strip().lower()
    else:
        raise TypeError(f"unsupported index spec {spec!r}")
    if name == "auto":
        if n_stored <= AUTO_BRUTE_MAX:
            return "brute"
        if GridIndex.supports(dataset.metric):
            return "grid"
        return "covertree"
    if name not in INDEX_REGISTRY:
        raise ValueError(
            f"unknown index backend {name!r}; choose from {available_backends()}"
        )
    return name


def _auto_resolved(spec: IndexSpec) -> bool:
    """Whether ``spec`` leaves the backend choice to the ``auto``
    policy (rather than the user or the environment forcing one)."""
    if isinstance(spec, str):
        return spec.strip().lower() == "auto"
    return spec is None and default_index_name() == "auto"


def _probe_grid_degenerate(index: NeighborIndex) -> bool:
    """Sample a handful of range queries on a freshly built grid and
    report whether its candidate pruning is degenerate.

    Isotropic high-dimensional data concentrates no variance in the
    ≤3-dim projection, so every cell neighborhood gathers a constant
    fraction of the stored set and the grid pays cell-lookup overhead for
    brute-force candidate counts.  The probe costs
    ``GRID_PROBE_QUERIES`` range queries at the build's radius hint and
    leaves the instrumentation counters as a fresh build would.
    """
    if index.radius_hint is None or index.radius_hint <= 0:
        return False
    n_stored = index.n_stored
    sample = index.stored[
        np.linspace(0, n_stored - 1, GRID_PROBE_QUERIES).astype(np.intp)
    ]
    sample = np.unique(sample)
    index.range_query_batch_csr(sample, index.radius_hint, with_distances=False)
    ratio = index.n_candidates / max(1, len(sample) * n_stored)
    index.reset_counters()
    return ratio > GRID_PROBE_MAX_RATIO


def build_index(
    spec: IndexSpec,
    dataset: MetricDataset,
    indices: Optional[IndexArray] = None,
    radius_hint: Optional[float] = None,
) -> NeighborIndex:
    """Resolve ``spec`` and build the backend over ``dataset``.

    ``spec`` may be a backend name, ``"auto"``, ``None`` (process
    default), an unbuilt :class:`NeighborIndex` instance (built in
    place — lets callers pass pre-configured backends), or a backend
    class.

    When the ``auto`` policy (not an explicit user/env choice) picks
    the grid, a few sampled range queries validate that the projected
    lattice actually prunes; degenerate grids (isotropic
    high-dimensional data) fall back to the brute backend.

    Every backend grows and shrinks in place
    (:meth:`~repro.index.base.NeighborIndex.insert_batch`,
    :meth:`~repro.index.base.NeighborIndex.delete_batch`), so the
    callers that maintain an index incrementally (the Gonzalez center
    index, the streaming summary, the windowed eviction path) build
    through here too.
    """
    if isinstance(spec, NeighborIndex):
        return spec.build(dataset, indices=indices, radius_hint=radius_hint)
    if isinstance(spec, type) and issubclass(spec, NeighborIndex):
        return spec().build(dataset, indices=indices, radius_hint=radius_hint)
    n_stored = dataset.n if indices is None else len(indices)
    name = resolve_index_name(spec, dataset, n_stored)
    cls = INDEX_REGISTRY[name]
    if cls is GridIndex and not GridIndex.supports(dataset.metric):
        raise TypeError(
            f"grid index cannot serve metric {type(dataset.metric).__name__}; "
            "use covertree or brute"
        )
    index = cls().build(dataset, indices=indices, radius_hint=radius_hint)
    if (
        cls is GridIndex
        and _auto_resolved(spec)
        and n_stored > AUTO_BRUTE_MAX
        and _probe_grid_degenerate(index)
    ):
        index = BruteForceIndex().build(
            dataset, indices=indices, radius_hint=radius_hint
        )
    return index


def resolve_grown_index_name(
    spec: IndexSpec,
    dataset: MetricDataset,
    n_expected: int,
    radius_hint: Optional[float] = None,
) -> str:
    """Resolve a name/auto spec for an index that starts near-empty and
    grows toward ``n_expected`` stored points (the incremental Gonzalez
    center index).

    The ``auto`` policy resolves at ``n_expected`` — resolving at the
    initial stored size would lock in brute forever — and an
    auto-picked grid is probe-validated on a *dataset sample* (the
    grown index itself is too small to probe at build time): degenerate
    projections fall back to brute exactly as :func:`build_index` does
    for static builds.
    """
    name = resolve_index_name(spec, dataset, n_expected)
    if (
        name == "grid"
        and _auto_resolved(spec)
        and n_expected > AUTO_BRUTE_MAX
        and radius_hint is not None
        and radius_hint > 0
        and dataset.n > AUTO_BRUTE_MAX
    ):
        sample = np.unique(
            np.linspace(0, dataset.n - 1, min(dataset.n, 4096)).astype(np.intp)
        )
        probe = GridIndex().build(
            dataset, indices=sample, radius_hint=radius_hint
        )
        if _probe_grid_degenerate(probe):
            name = "brute"
    return name
