"""Hierarchical run traces: nested spans under every solver run.

:class:`~repro.utils.timer.TimingBreakdown` keeps its flat cumulative
``phases`` map — every existing consumer (benches, CLI, tests) reads it
unchanged — but each ``with timings.phase(...)`` now *also* opens a
:class:`Span` in the breakdown's :class:`RunTrace`.  Spans nest: a
``phase`` entered while another is open becomes a child (solver →
phase → index query batch), so the tree records where the wall-clock
actually went without the flat map's parent/child double counting.

Per-span diagnostics:

- ``seconds`` — cumulative wall-clock (repeated entries of the same
  phase under the same parent accumulate into one node, ``n_calls``
  counts the entries);
- ``counters`` — the delta of the owning breakdown's counter map while
  the span was open, i.e. the work *attributed* to the span (counters
  folded in after a phase exits stay run-level);
- ``memory`` — optional samples taken at span exit (``rss_bytes`` from
  ``resource.getrusage``, ``tracemalloc_peak_bytes``), enabled by
  listing ``mem`` in the ``REPRO_TRACE`` environment variable
  (``REPRO_TRACE=mem``), which each :class:`RunTrace` reads once when
  it is built; tracemalloc is started lazily on the first traced span.
  Sampling is off by default because tracemalloc slows allocation-heavy
  runs considerably.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


def trace_flags() -> frozenset:
    """The set of flags in ``REPRO_TRACE`` (comma/space separated)."""
    raw = os.environ.get("REPRO_TRACE", "")
    return frozenset(
        part for part in raw.replace(",", " ").lower().split() if part
    )


def memory_sampling_enabled() -> bool:
    """Whether span memory sampling is requested via ``REPRO_TRACE``."""
    flags = trace_flags()
    return "mem" in flags or "memory" in flags


def _rss_bytes() -> Optional[int]:
    """Peak resident set size, in bytes (``None`` where unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-unix
        return None
    rusage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    scale = 1 if os.uname().sysname == "Darwin" else 1024
    return int(rusage.ru_maxrss) * scale


@dataclass
class Span:
    """One node of the trace tree: a named, possibly repeated phase."""

    name: str
    seconds: float = 0.0
    n_calls: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    children: Dict[str, "Span"] = field(default_factory=dict)
    memory: Optional[Dict[str, int]] = None

    def child(self, name: str) -> "Span":
        """The child span named ``name``, created on first use."""
        node = self.children.get(name)
        if node is None:
            node = Span(name)
            self.children[name] = node
        return node

    def as_dict(self) -> Dict[str, Any]:
        """Plain-data view (JSON-serializable)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "seconds": self.seconds,
            "n_calls": self.n_calls,
        }
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.memory is not None:
            out["memory"] = dict(self.memory)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children.values()]
        return out


class _Frame:
    """Bookkeeping for one open ``phase`` entry."""

    __slots__ = ("span", "started_at", "counters_before")

    def __init__(self, span: Span, counters_before: Dict[str, int]) -> None:
        self.span = span
        self.started_at = time.perf_counter()
        self.counters_before = counters_before


class RunTrace:
    """The span tree of one solver run.

    The virtual ``root`` span holds the top-level phases; its
    ``seconds`` is maintained as the sum of its children, so
    ``trace.root.seconds`` is the traced wall-clock of the run.
    """

    def __init__(self, memory: Optional[bool] = None) -> None:
        self.root = Span("run")
        self._stack: List[Span] = []
        #: ``None`` reads ``REPRO_TRACE`` once, here: a trace built
        #: after the variable changes sees the new value, and no span
        #: pays the parse.
        self._memory = memory_sampling_enabled() if memory is None else memory

    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def begin(
        self, name: str, counters: Optional[Dict[str, int]] = None
    ) -> _Frame:
        """Open a span named ``name`` under the innermost open span."""
        parent = self._stack[-1] if self._stack else self.root
        span = parent.child(name)
        self._stack.append(span)
        if self._memory:
            import tracemalloc

            if not tracemalloc.is_tracing():  # pragma: no branch
                tracemalloc.start()
        return _Frame(span, dict(counters) if counters else {})

    def finish(
        self, frame: _Frame, counters: Optional[Dict[str, int]] = None
    ) -> tuple:
        """Close ``frame``'s span; returns ``(span, elapsed, depth)``
        where ``depth`` is the nesting depth of the span (0 = root
        phase)."""
        elapsed = time.perf_counter() - frame.started_at
        span = frame.span
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order"
            )
        self._stack.pop()
        depth = len(self._stack)
        span.seconds += elapsed
        span.n_calls += 1
        if depth == 0:
            self.root.seconds += elapsed
            self.root.n_calls = max(self.root.n_calls, 1)
        if counters:
            before = frame.counters_before
            for key, value in counters.items():
                delta = value - before.get(key, 0)
                if delta:
                    span.counters[key] = span.counters.get(key, 0) + delta
        if self._memory:
            import tracemalloc

            sample: Dict[str, int] = {}
            rss = _rss_bytes()
            if rss is not None:
                sample["rss_bytes"] = rss
            if tracemalloc.is_tracing():
                sample["tracemalloc_peak_bytes"] = int(
                    tracemalloc.get_traced_memory()[1]
                )
            span.memory = sample
        return span, elapsed, depth

    # ------------------------------------------------------------------

    def flatten(self) -> Dict[str, float]:
        """Cumulative seconds per span name across the whole tree —
        the same accounting as ``TimingBreakdown.phases``."""
        out: Dict[str, float] = {}

        def visit(span: Span) -> None:
            for child in span.children.values():
                out[child.name] = out.get(child.name, 0.0) + child.seconds
                visit(child)

        visit(self.root)
        return out

    def as_dict(self) -> Dict[str, Any]:
        """Plain-data view of the whole tree."""
        return self.root.as_dict()
