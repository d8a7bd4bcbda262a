"""Unified observability layer: run traces, flight recorder, diffing.

Three pieces (see the module docstrings for details):

- :mod:`repro.obs.trace` — hierarchical :class:`Span`/:class:`RunTrace`
  built automatically by ``TimingBreakdown.phase``; nested phases,
  per-span counter deltas, optional memory sampling (``REPRO_TRACE=mem``).
- :mod:`repro.obs.registry` — the namespaced metrics registry and the
  per-run :class:`CounterScope` that gives process-global counter
  sources (cascade stats, metric caches) snapshot/delta semantics.
- :mod:`repro.obs.recorder` / :mod:`repro.obs.diff` — versioned
  ``BENCH_<name>.json`` artifacts and the tolerance-band regression
  diff behind ``python -m repro bench-diff``.
"""

from repro.obs.trace import RunTrace, Span, memory_sampling_enabled
from repro.obs.registry import REGISTRY, CounterScope, MetricsRegistry
from repro.obs.recorder import (
    SCHEMA_VERSION,
    environment_info,
    load_artifact,
    make_artifact,
    series_entry,
    write_artifact,
)
from repro.obs.diff import DiffResult, diff_artifacts, format_diff

__all__ = [
    "RunTrace",
    "Span",
    "memory_sampling_enabled",
    "REGISTRY",
    "CounterScope",
    "MetricsRegistry",
    "SCHEMA_VERSION",
    "environment_info",
    "load_artifact",
    "make_artifact",
    "series_entry",
    "write_artifact",
    "DiffResult",
    "diff_artifacts",
    "format_diff",
]
