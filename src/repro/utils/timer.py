"""Timing helpers used by the algorithms' instrumentation and the benches.

The paper's Table 2 reports the fraction of total runtime spent inside the
radius-guided Gonzalez preprocessing.  To reproduce that split faithfully,
the exact and approximate solvers record a named :class:`TimingBreakdown`
while running.

Since the observability layer (:mod:`repro.obs`) landed, every
``phase`` entry also opens a span in the breakdown's hierarchical
:class:`~repro.obs.trace.RunTrace` — nested phases become child spans,
and :attr:`TimingBreakdown.total` sums only the *root-level* phases so
a parent's seconds are never double-counted with its children's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator
from contextlib import contextmanager

from repro.obs.trace import RunTrace

#: Flat counter names that belong to the neighbor-index subsystem; used
#: by :meth:`TimingBreakdown.counter_registry` to group the legacy
#: un-namespaced keys (kept flat for backward compatibility).
_INDEX_COUNTER_KEYS = frozenset(
    {
        "n_range_queries",
        "n_candidates",
        "n_build_evals",
        "n_rebuilds",
        "net_range_queries",
        "net_candidates",
        "net_build_evals",
        "net_flush_rounds",
        "net_brute_flushes",
        "peak_center_matrix_bytes",
    }
)

#: Flat counter names of the batched distance engine (the paper's
#: ``t_dis`` accounting).
_TDIS_COUNTER_KEYS = frozenset({"distance_evals", "distance_blocks"})


@dataclass
class Stopwatch:
    """A simple cumulative stopwatch.

    Examples
    --------
    >>> sw = Stopwatch()
    >>> with sw:
    ...     pass
    >>> sw.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _started_at: float | None = None

    def start(self) -> None:
        if self._started_at is not None:
            raise RuntimeError("Stopwatch already running")
        self._started_at = time.perf_counter()

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("Stopwatch is not running")
        delta = time.perf_counter() - self._started_at
        self.elapsed += delta
        self._started_at = None
        return delta

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


@dataclass
class TimingBreakdown:
    """Named cumulative phase timings plus counters for one solver run.

    Attributes
    ----------
    phases:
        Mapping from phase name (e.g. ``"gonzalez"``, ``"label_cores"``,
        ``"merge"``, ``"label_borders"``) to cumulative seconds.  Flat:
        a nested phase appears here under its own name alongside its
        parent (the hierarchy lives in :attr:`trace`).
    counters:
        Mapping from counter name to a cumulative integer.  The batched
        distance engine records ``distance_evals`` (entries produced by
        block kernels) and ``distance_blocks`` (kernel invocations) here
        so benches can report the batching efficiency alongside wall
        time; :class:`~repro.obs.registry.CounterScope` folds the
        namespaced per-run deltas of every other counter source
        (``cascade/*``, ``cache/*``, ``metric/*``) into the same map.
    trace:
        The hierarchical :class:`~repro.obs.trace.RunTrace` built by
        :meth:`phase`; ``trace.root`` holds the span tree.
    """

    phases: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    trace: RunTrace = field(
        default_factory=RunTrace, repr=False, compare=False
    )
    #: Seconds recorded by *root-level* (depth-0) ``phase`` entries only;
    #: the double-count-free view :attr:`total` sums.  Empty for
    #: breakdowns populated by hand (constructor / direct ``phases``
    #: writes), in which case :attr:`total` falls back to the flat map.
    root_phases: Dict[str, float] = field(
        default_factory=dict, repr=False, compare=False
    )

    def count(self, name: str, amount: int = 1) -> None:
        """Accumulate ``amount`` into counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager accumulating wall-clock time into ``name``.

        Entered inside another open phase, the new phase becomes a
        *child span* in :attr:`trace`; its seconds still accumulate
        into the flat :attr:`phases` map under its own name, but they
        are excluded from :attr:`total` (the parent already covers
        them).
        """
        frame = self.trace.begin(name, self.counters)
        try:
            yield
        finally:
            _, elapsed, depth = self.trace.finish(frame, self.counters)
            self.phases[name] = self.phases.get(name, 0.0) + elapsed
            if depth == 0:
                self.root_phases[name] = (
                    self.root_phases.get(name, 0.0) + elapsed
                )

    @property
    def total(self) -> float:
        """Wall-clock covered by the recorded phases, in seconds.

        Sums only root-level phases so nested spans are not double
        counted; breakdowns whose ``phases`` were written directly
        (no ``phase()`` call ever ran) fall back to summing the flat
        map.
        """
        if self.root_phases:
            return sum(self.root_phases.values())
        return sum(self.phases.values())

    def fraction(self, name: str) -> float:
        """Fraction of the total time spent in phase ``name``.

        Returns 0.0 when nothing has been recorded yet.  For a nested
        phase this is its share of the run total (its parent's share
        includes it).
        """
        total = self.total
        if total == 0.0:
            return 0.0
        return self.phases.get(name, 0.0) / total

    def counter_registry(self) -> Dict[str, Dict[str, int]]:
        """The merged counter registry, grouped by namespace.

        Namespaced keys (``cascade/n_rescued``) group under their
        prefix; the legacy flat keys group under ``index`` (neighbor
        index subsystem) or ``tdis`` (batched distance engine); anything
        else lands in ``run``.
        """
        out: Dict[str, Dict[str, int]] = {}
        for key, value in self.counters.items():
            if "/" in key:
                namespace, sub = key.split("/", 1)
            elif key in _INDEX_COUNTER_KEYS:
                namespace, sub = "index", key
            elif key in _TDIS_COUNTER_KEYS:
                namespace, sub = "tdis", key
            else:
                namespace, sub = "run", key
            out.setdefault(namespace, {})[sub] = value
        return out

    def as_dict(self) -> Dict[str, float]:
        """Copy of the phase map (safe to mutate)."""
        return dict(self.phases)
