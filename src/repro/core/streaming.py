"""Algorithm 3: streaming ρ-approximate DBSCAN (Section 4.2).

Stream elements are processed in chunks through the batched distance
engine: pass 1 probes each chunk against the current center set with one
many-to-many ``cross`` block (new centers created mid-chunk are handled
with small incremental one-to-many calls), and passes 2 and 3 are fully
chunk-vectorized.  All threshold tests run in the metric's reduced
space.

Three passes over the stream, memory independent of ``n``:

- **Pass 1** builds the center set ``E`` incrementally (a point farther
  than ``r̄ = ρε/2`` from every existing center becomes a new center),
  counts detected ε-ball members per center, promotes centers whose
  detected count reaches MinPts into the summary, and collects the
  watch-list ``M`` of points assigned to (so-far) non-core centers.
- **Pass 2** recounts ``|B(m, ε)|`` exactly for every ``m ∈ M`` against
  the full stream, adds the core ones to ``S*``, and merges ``S*``
  offline at threshold ``(1+ρ)ε``.
- **Pass 3** labels each streamed point: its nearest center's cluster
  when that center is core, else the nearest summary point within
  ``(1 + ρ/2)ε``, else outlier.

Memory is ``|E| + |M| = O((Δ/ρε)^D + z)`` payloads (Theorem 4); the
exact footprint is reported in the result stats (the quantity Figure 6
plots as ``(|E| + |M|)/n``).

With ``index=`` set, the center/watch/summary stores live in
:class:`~repro.metricspace.dataset.GrowingMetricDataset` instances and
every full scan above becomes a range query against a dynamic
:class:`~repro.index.base.NeighborIndex`: pass 1 probes each chunk
against the center index (inserting new centers as the summary grows),
pass 2 counts ``|B(m, ε)|`` through an index over ``M``, and pass 3
labels through the center and summary indexes.  The labels are
bit-identical to the dense-scan path — the index only changes which
candidates reach the exact distance filter.

The indexed passes are *epoch-batched*: each chunk is probed once
against the immutable chunk-start index snapshot in CSR form
(:func:`probe_reduced`: one
:meth:`~repro.index.base.NeighborIndex.range_query_points_csr` plus one
flat ``reduced_pair_distances`` call), and pass 1 then advances in
epochs (:func:`epoch_births`, shared with the windowed and decaying
maintainers of :mod:`repro.core.windowed`) — all rows up to the first
new-center birth are decided at once, one flat suffix-vs-new-center
evaluation at the birth, repeat.  Per-element Python work happens only
at center births (``O(|E|)`` times total, not ``O(n)``); pass 2's
recount is one ``bincount`` over CSR ids per chunk and pass 3 is two
CSR segment-argmin sweeps.  ``epoch_batched=False`` keeps the
per-element reference path; both produce bit-identical labels and
identical distance-eval/candidate counters (pinned by
``tests/test_streaming_batched.py``).

Implementation detail vs. the pseudo-code: a center's detected count in
pass 1 misses points that arrived *before* the center was created, so a
truly-core center can end pass 1 undetected.  We therefore place each
newly created center on the watch-list ``M`` as well; pass 2's exact
recount then classifies it correctly, preserving the summary
completeness that Theorem 2's maximality argument needs while keeping
``|M| = O(MinPts · |E|)``.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import ClusteringResult
from repro.index.base import NeighborIndex
from repro.index.csr import CSRQueryResult, segment_argmin
from repro.index.registry import IndexSpec, build_dynamic_index, build_index
from repro.metricspace.base import Metric
from repro.metricspace.dataset import (
    CERTIFIED_BYTES_PER_ENTRY,
    GrowingMetricDataset,
    MetricDataset,
    rows_per_block,
)
from repro.metricspace.euclidean import EuclideanMetric
from repro.obs.registry import CounterScope
from repro.utils.components import component_labels
from repro.utils.timer import TimingBreakdown
from repro.utils.validation import (
    check_epsilon, check_finite, check_min_pts, check_rho,
)

StreamFactory = Callable[[], Iterable[Any]]

#: Upper bound on stream chunk length (keeps per-chunk latency and the
#: cumulative-count matrix bounded even when the target set is tiny).
_MAX_CHUNK = 4096


def stream_chunks(stream: Iterable[Any], size_fn) -> Iterator[List[Any]]:
    """Slice a stream into lists whose length tracks ``size_fn()``.

    ``size_fn`` is re-evaluated before every slice, so chunk lengths can
    follow evolving state (live-center counts, bucket boundaries); the
    result is clipped to ``[1, 4096]``.  Shared by the streaming solver
    and the windowed/decaying maintainers of :mod:`repro.core.windowed`.
    """
    it = iter(stream)
    while True:
        size = int(np.clip(size_fn(), 1, _MAX_CHUNK))
        chunk = list(itertools.islice(it, size))
        if not chunk:
            return
        yield chunk


def _expand_rows(metric: Metric, payloads: Sequence[Any], rows_rep: np.ndarray) -> Any:
    """Repeat query payloads along a CSR row-index expansion, so one
    flat ``reduced_pair_distances`` call covers every (query,
    candidate) pair of a batch."""
    if metric.is_vector_metric:
        return np.asarray(payloads)[rows_rep]
    return [payloads[int(r)] for r in rows_rep]


def probe_reduced(
    metric: Metric,
    index: NeighborIndex,
    store: MetricDataset,
    payloads: Sequence[Any],
    radius: float,
) -> Tuple[CSRQueryResult, np.ndarray]:
    """One CSR range query of ``payloads`` against ``index`` (built over
    ``store``) and one flat evaluation of every (query, candidate)
    pair: the probe result and the reduced distances aligned with its
    ``ids``."""
    csr = index.range_query_points_csr(payloads, radius, with_distances=False)
    if not csr.ids.size:
        return csr, np.empty(0, dtype=np.float64)
    red = metric.reduced_pair_distances(
        _expand_rows(metric, payloads, csr.query_rows()), store.gather(csr.ids)
    )
    return csr, np.asarray(red, dtype=np.float64)


def epoch_births(
    metric: Metric,
    chunk: List[Any],
    best_red: np.ndarray,
    red_r: float,
    red_eps: float,
    allocate: Callable[[int], int],
    best_id: Optional[np.ndarray] = None,
) -> Tuple[List[int], List[int], np.ndarray, np.ndarray]:
    """The center births of one chunk of arrivals, in epochs.

    ``best_red`` holds each row's nearest reduced distance to the
    centers of the chunk-start snapshot (``+inf`` for none) and
    ``best_id``, when given, that center; both are updated in place.
    The first row whose running nearest exceeds ``red_r`` is a birth:
    ``allocate(row)`` stores it and returns its center id, and one
    ``reduced_distance_many`` from it over the rows after it folds it
    into the running minima (strict ``<``, so earlier centers win ties
    exactly like an argmin over [snapshot..., births...]) and collects
    its ε-hits.  The search resumes after the birth row.

    Python work is O(#births), and the evaluated pairs are exactly
    those of a per-arrival loop that checks each arrival against the
    snapshot plus the chunk's earlier births.  Returns ``(birth_rows,
    born_ids, hit_rows, hit_ids)``: the births in arrival order and
    the births' ε-hits on later rows (flat, one block per birth).
    """
    n = len(chunk)
    rows_all = np.asarray(chunk) if metric.is_vector_metric else chunk
    birth_rows: List[int] = []
    born: List[int] = []
    # Kept as parts and concatenated once, never rescanned per epoch, so
    # the loop stays O(#births) numpy calls even when nearly every
    # arrival births a center (heavy-drift streams).
    hit_rows: List[np.ndarray] = []
    hit_ids: List[np.ndarray] = []
    s = 0
    while s < n:
        viol = np.flatnonzero(best_red[s:] > red_r)
        if not viol.size:
            break
        e = s + int(viol[0])  # birth row
        j = allocate(e)
        birth_rows.append(e)
        born.append(j)
        if e + 1 < n:
            tail_red = np.asarray(
                metric.reduced_distance_many(chunk[e], rows_all[e + 1 :]),
                dtype=np.float64,
            )
            better = tail_red < best_red[e + 1 :]
            best_red[e + 1 :][better] = tail_red[better]
            if best_id is not None:
                best_id[e + 1 :][better] = j
            hr = np.flatnonzero(tail_red <= red_eps)
            if hr.size:
                hit_rows.append(hr + (e + 1))
                hit_ids.append(np.full(hr.size, j, dtype=np.intp))
        s = e + 1
    empty = np.empty(0, dtype=np.intp)
    return (
        birth_rows,
        born,
        np.concatenate(hit_rows) if hit_rows else empty,
        np.concatenate(hit_ids) if hit_ids else empty,
    )


class _GrowingCounts:
    """Append-only int64 counter array with amortized growth."""

    def __init__(self) -> None:
        self._data = np.zeros(16, dtype=np.int64)
        self._size = 0

    def append(self, value: int) -> None:
        if self._size == self._data.shape[0]:
            grown = np.zeros(2 * self._data.shape[0], dtype=np.int64)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size] = value
        self._size += 1

    def view(self) -> np.ndarray:
        return self._data[: self._size]


class StreamingApproxDBSCAN:
    """Streaming ρ-approximate DBSCAN (Algorithm 3).

    Parameters
    ----------
    eps, min_pts:
        The DBSCAN parameters.
    rho:
        Approximation parameter (``ρ <= 2`` for the memory bound of
        Theorem 4; the experiments use 0.5/1/2).
    metric:
        Distance function over stream payloads; defaults to Euclidean.
    index:
        Optional :mod:`repro.index` backend spec.  When set, the
        center/watch/summary probes of all three passes run as range
        queries against dynamic indexes over the summary stores
        instead of dense scans; labels are identical either way.
        ``None`` (default) keeps the dense chunk-vectorized path.
    epoch_batched:
        Indexed-path ingestion mode (ignored without ``index=``).
        ``True`` (default) consumes each chunk's CSR probe result in
        vectorized epochs — per-element work only at center births.
        ``False`` keeps the per-element reference loop; labels and
        distance-eval counters are identical, only wall time differs.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.metricspace import MetricDataset
    >>> pts = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [5.2], [99.0]])
    >>> solver = StreamingApproxDBSCAN(0.5, 3, rho=0.5)
    >>> result = solver.fit(MetricDataset(pts))
    >>> result.n_clusters, result.n_noise
    (2, 1)
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        rho: float = 0.5,
        metric: Optional[Metric] = None,
        index: IndexSpec = None,
        epoch_batched: bool = True,
    ) -> None:
        self.eps = check_epsilon(eps)
        self.min_pts = check_min_pts(min_pts)
        self.rho = check_rho(rho)
        self.r_bar = self.rho * self.eps / 2.0
        self.metric = metric if metric is not None else EuclideanMetric()
        self.index = index
        self.epoch_batched = bool(epoch_batched)

    # ------------------------------------------------------------------

    def fit(self, dataset: MetricDataset) -> ClusteringResult:
        """Run the three-pass algorithm over a dataset's points.

        The dataset is only ever *scanned*; nothing proportional to
        ``n`` is retained except the output labels.  The *dataset's*
        metric is used (so a counting wrapper is honored); the solver's
        own metric only applies to :meth:`fit_stream`.
        """
        if dataset.metric.is_vector_metric != self.metric.is_vector_metric:
            raise ValueError("dataset payload kind does not match the solver metric")

        def factory() -> Iterable[Any]:
            points = dataset.points
            if dataset.metric.is_vector_metric:
                return iter(points)
            return iter(list(points))

        return self.fit_stream(factory, n_hint=dataset.n, metric=dataset.metric)

    def fit_stream(
        self,
        stream_factory: StreamFactory,
        n_hint: Optional[int] = None,
        metric: Optional[Metric] = None,
    ) -> ClusteringResult:
        """Run the three passes over ``stream_factory()`` iterables.

        Parameters
        ----------
        stream_factory:
            Zero-argument callable producing a *fresh* iterable over the
            same payload sequence each time it is called (three calls
            total).
        n_hint:
            Optional expected stream length (only used for stats).
        metric:
            Override of the solver's metric for this run (used by
            :meth:`fit` to honor the dataset's own — possibly counting —
            metric).
        """
        timings = TimingBreakdown()
        metric = metric if metric is not None else self.metric
        scope = CounterScope(timings, metric=metric)
        scope.__enter__()
        eps, min_pts = self.eps, self.min_pts
        red_eps = metric.reduce_threshold(eps)
        red_r = metric.reduce_threshold(self.r_bar)

        use_index = self.index is not None
        # The stores are index-buildable datasets either way; the dense
        # path just never builds one.
        centers = GrowingMetricDataset(metric)
        detected = _GrowingCounts()  # detected ε-ball count per center
        watch = GrowingMetricDataset(metric)  # the set M
        watch_center: List[int] = []  # arrival-time center of each M entry
        watch_is_center: List[bool] = []
        n_seen = 0
        center_index: Optional[NeighborIndex] = None
        # Pass-1 probes must see every center that could (a) collect an
        # ε-hit or (b) cover the arrival within r̄.
        probe_radius = max(eps, self.r_bar)

        def _index_spec():
            """A fresh spec per structure: a pre-configured instance
            cannot serve the center, watch and summary stores at once
            (the center index claims it; siblings are spawned)."""
            spec = self.index
            if isinstance(spec, NeighborIndex):
                return spec.spawn()
            return spec

        def _observe(payload: Any, base_red: Optional[np.ndarray] = None) -> None:
            """Per-element pass-1 step (used when chunk vectorization is
            unavailable: no centers yet, or a center was created earlier
            in the same chunk).

            ``base_red`` carries already-computed reduced distances to
            the first ``len(base_red)`` centers (the chunk-start block
            row), so only centers created since then are evaluated.
            """
            m = len(centers)
            if base_red is not None:
                if m > base_red.shape[0]:
                    extra = metric.reduced_distance_many(
                        payload, centers.view()[base_red.shape[0] :]
                    )
                    red = np.concatenate([base_red, extra])
                else:
                    red = base_red
            elif m:
                red = metric.reduced_distance_many(payload, centers.view())
            else:
                red = np.empty(0, dtype=np.float64)
            if red.size:
                det = detected.view()
                det[red <= red_eps] += 1
                nearest = int(np.argmin(red))
                nearest_red = float(red[nearest])
            else:
                nearest, nearest_red = -1, np.inf
            if nearest_red > red_r:
                j = centers.append(payload)
                detected.append(1)  # the center counts itself
                watch.append(payload)
                watch_center.append(j)
                watch_is_center.append(True)
            elif detected.view()[nearest] < min_pts:
                watch.append(payload)
                watch_center.append(nearest)
                watch_is_center.append(False)

        def _observe_candidates(payload: Any, cand: np.ndarray) -> Optional[int]:
            """Sequential pass-1 step against an explicit candidate set.

            ``cand`` must contain every center within ``probe_radius``
            of ``payload`` (it may contain more); the exact reduced
            distances to the candidates reproduce the dense path's
            decisions bit-for-bit.  Returns the new center id, if any.
            """
            det = detected.view()
            if cand.size:
                red = metric.reduced_distance_many(payload, centers.gather(cand))
                within = red <= red_eps
                det[cand[within]] += 1
                kmin = int(np.argmin(red))
                nearest, nearest_red = int(cand[kmin]), float(red[kmin])
            else:
                nearest, nearest_red = -1, np.inf
            if nearest_red > red_r:
                j = centers.append(payload)
                detected.append(1)  # the center counts itself
                watch.append(payload)
                watch_center.append(j)
                watch_is_center.append(True)
                return j
            if det[nearest] < min_pts:
                watch.append(payload)
                watch_center.append(nearest)
                watch_is_center.append(False)
            return None

        is_vector = metric.is_vector_metric

        def _pass1_epoch_chunk(chunk: List[Any]) -> List[int]:
            """Epoch-batched pass-1 step over one chunk.

            One CSR probe against the chunk-start index snapshot and one
            flat evaluation of every (row, snapshot candidate) pair seed
            each row's running nearest center; :func:`epoch_births`
            then walks the births, so the total pair evaluations, the
            candidate sets and every argmin tie-break match the
            per-element ``_observe_candidates`` loop exactly, while
            Python-level work is O(#births).  The watch decisions
            follow from the ε-hits with the dense path's inclusive
            cumulative-count trick, in sparse form.

            Returns the ids of centers created inside the chunk.
            """
            n = len(chunk)
            if len(centers):
                csr, snap_red = probe_reduced(
                    metric, center_index, centers, chunk, probe_radius
                )
                offsets, snap_ids = csr.offsets, csr.ids
                snap_rows = csr.query_rows()
            else:
                offsets = np.zeros(n + 1, dtype=np.intp)
                snap_ids = snap_rows = np.empty(0, dtype=np.intp)
                snap_red = np.empty(0, dtype=np.float64)
            within_snap = snap_red <= red_eps
            # Running per-row best (reduced distance, candidate id),
            # snapshot argmin first.
            arg, best_red = segment_argmin(snap_red, offsets)
            best_cand = np.full(n, -1, dtype=np.intp)
            has = arg >= 0
            best_cand[has] = snap_ids[arg[has]]

            def allocate(row: int) -> int:
                j = centers.append(chunk[row])
                detected.append(1)  # the center counts itself
                return j

            birth_rows, fresh, tail_rows, tail_ids = epoch_births(
                metric, chunk, best_red, red_r, red_eps, allocate, best_cand
            )
            # Flat (row, center) ε-hit pairs: the snapshot block, then
            # the births' tail blocks.
            hit_rows = np.concatenate([snap_rows[within_snap], tail_rows])
            hit_cand = np.concatenate([snap_ids[within_snap], tail_ids])

            # Watch decisions, deferred to one global computation: the
            # per-element inclusive arrival-time count for row ``r`` is
            # the chunk-start detected count of its nearest center plus
            # that center's ε-hits from chunk rows ``<= r`` — a quantity
            # independent of the epoch structure, so one sorted
            # (center, row) key array and two searchsorteds decide every
            # row at once (the sparse analogue of the dense path's
            # cumulative-count trick).  ``det`` here already carries the
            # fresh centers' self-counts (appended above) but none of
            # this chunk's hits — exactly the chunk-start state.
            det = detected.view()
            is_birth = np.zeros(n, dtype=bool)
            is_birth[birth_rows] = True
            rows_idx = np.flatnonzero(~is_birth)
            watch_rows: np.ndarray
            if rows_idx.size:
                nearest = best_cand[rows_idx]
                keys = np.sort(hit_cand * (n + 1) + hit_rows)
                base = nearest * (n + 1)
                incl = det[nearest] + (
                    np.searchsorted(keys, base + rows_idx, side="right")
                    - np.searchsorted(keys, base, side="left")
                )
                watch_rows = rows_idx[incl < min_pts]
            else:
                nearest = watch_rows = np.empty(0, dtype=np.intp)
            if hit_cand.size:
                det += np.bincount(hit_cand, minlength=det.shape[0])

            # Replay the appends in arrival order so watch positions
            # match the per-element loop exactly (summary ids, merge
            # order and final cluster ids all follow from them).
            nearest_list = best_cand.tolist()
            wlist = watch_rows.tolist()
            wi = 0
            for e, j in zip(birth_rows, fresh):
                while wi < len(wlist) and wlist[wi] < e:
                    r = wlist[wi]
                    watch.append(chunk[r])
                    watch_center.append(nearest_list[r])
                    watch_is_center.append(False)
                    wi += 1
                watch.append(chunk[e])
                watch_center.append(j)
                watch_is_center.append(True)
            for r in wlist[wi:]:
                watch.append(chunk[r])
                watch_center.append(nearest_list[r])
                watch_is_center.append(False)
            return fresh

        def _pass1_chunks() -> Iterator[List[Any]]:
            """Pass 1 reads the stream first, so it screens every chunk
            for NaN/inf coordinates before any state changes."""
            for chunk in stream_chunks(
                stream_factory(), lambda: rows_per_block(max(1, len(centers)))
            ):
                if is_vector:
                    check_finite(chunk, "stream payloads")
                yield chunk

        with timings.phase("pass1_build_net"):
            if use_index:
                epoch = self.epoch_batched
                for chunk in _pass1_chunks():
                    n_seen += len(chunk)
                    m0 = len(centers)
                    if epoch:
                        fresh = _pass1_epoch_chunk(chunk)
                    else:
                        snapshot = (
                            center_index.range_query_points(
                                chunk, probe_radius, with_distances=False
                            )
                            if m0
                            else None
                        )
                        fresh = []  # centers created mid-chunk
                        for i, payload in enumerate(chunk):
                            parts = []
                            if snapshot is not None:
                                parts.append(snapshot[i][0])
                            if fresh:
                                parts.append(np.asarray(fresh, dtype=np.intp))
                            cand = (
                                np.concatenate(parts)
                                if parts
                                else np.empty(0, dtype=np.intp)
                            )
                            j = _observe_candidates(payload, cand)
                            if j is not None:
                                fresh.append(j)
                    if fresh:
                        if center_index is None:
                            center_index = build_dynamic_index(
                                self.index, centers, radius_hint=probe_radius
                            )
                        else:
                            center_index.insert_batch(
                                np.arange(center_index.n_stored, len(centers))
                            )
            else:
                for chunk in _pass1_chunks():
                    n_seen += len(chunk)
                    m0 = len(centers)
                    if m0 == 0:
                        scalar_from = 0
                    else:
                        # One block against the centers known at chunk
                        # start; rows before the first new center are
                        # batch-applied, the rest fall back to the
                        # per-element step.
                        block = metric.reduced_cross(chunk, centers.view())
                        row_min = block.min(axis=1)
                        row_arg = block.argmin(axis=1)
                        violations = np.flatnonzero(row_min > red_r)
                        scalar_from = (
                            int(violations[0]) if violations.size else len(chunk)
                        )
                        if scalar_from > 0:
                            within = block[:scalar_from] <= red_eps
                            # Inclusive arrival-time counts decide watching.
                            cum = np.cumsum(within, axis=0, dtype=np.int64)
                            nearest = row_arg[:scalar_from]
                            incl = detected.view()[nearest] + cum[
                                np.arange(scalar_from), nearest
                            ]
                            detected.view()[:m0] += cum[-1]
                            for r in np.flatnonzero(incl < min_pts):
                                watch.append(chunk[int(r)])
                                watch_center.append(int(nearest[r]))
                                watch_is_center.append(False)
                    for pos in range(scalar_from, len(chunk)):
                        _observe(chunk[pos], block[pos] if m0 else None)

        m_centers = len(centers)
        detected_arr = detected.view().copy()

        watch_index: Optional[NeighborIndex] = None
        with timings.phase("pass2_recount"):
            exact_counts = np.zeros(len(watch), dtype=np.int64)
            if len(watch):
                if use_index:
                    # |B(m, ε)| per watch point: stream elements range-
                    # query the watch index; each hit is one count.
                    watch_index = build_index(
                        _index_spec(), watch, radius_hint=eps
                    )
                    if self.epoch_batched:
                        for chunk in stream_chunks(
                            stream_factory(), lambda: rows_per_block(len(watch))
                        ):
                            csr = watch_index.range_query_points_csr(
                                chunk, eps, with_distances=False
                            )
                            if csr.ids.size:
                                exact_counts += np.bincount(
                                    csr.ids, minlength=len(watch)
                                )
                    else:
                        for chunk in stream_chunks(
                            stream_factory(), lambda: rows_per_block(len(watch))
                        ):
                            for ids, _ in watch_index.range_query_points(
                                chunk, eps, with_distances=False
                            ):
                                exact_counts[ids] += 1
                else:
                    watch_view = watch.view()
                    for chunk in stream_chunks(
                        stream_factory(), lambda: rows_per_block(len(watch))
                    ):
                        # Pass-2 only counts ``<= eps`` hits, so the
                        # certified cascade decides each chunk block.
                        mask = metric.cross_certified(chunk, watch_view, eps)
                        exact_counts += np.count_nonzero(mask, axis=0)
            watch_core = exact_counts >= min_pts

        with timings.phase("pass2_summary"):
            center_is_core = detected_arr >= min_pts
            for pos, j in enumerate(watch_center):
                if watch_is_center[pos] and watch_core[pos]:
                    center_is_core[j] = True
            # Assemble S*: core centers, plus core watch-list points whose
            # center is not core.
            summary_payloads = GrowingMetricDataset(metric)
            summary_center: List[int] = []
            center_summary_pos = np.full(m_centers, -1, dtype=np.int64)
            for j in range(m_centers):
                if center_is_core[j]:
                    center_summary_pos[j] = summary_payloads.append(centers.get(j))
                    summary_center.append(j)
            for pos in range(len(watch)):
                if watch_is_center[pos]:
                    continue
                j = watch_center[pos]
                if watch_core[pos] and not center_is_core[j]:
                    summary_payloads.append(watch.get(pos))
                    summary_center.append(j)

        summary_index: Optional[NeighborIndex] = None
        with timings.phase("pass2_merge"):
            if use_index and len(summary_payloads) > 1:
                summary_index = build_index(
                    _index_spec(),
                    summary_payloads,
                    radius_hint=(1.0 + self.rho) * eps,
                )
                member_cluster = self._merge_indexed(
                    summary_payloads, summary_index, timings
                )
            else:
                member_cluster = self._merge_offline(
                    summary_payloads, metric, timings
                )
            if use_index and summary_index is None and len(summary_payloads):
                summary_index = build_index(
                    _index_spec(),
                    summary_payloads,
                    radius_hint=(1.0 + self.rho / 2.0) * eps,
                )

        labels = np.empty(n_seen, dtype=np.int64)
        fallback_radius = (self.rho / 2.0 + 1.0) * eps
        red_fallback = metric.reduce_threshold(fallback_radius)
        with timings.phase("pass3_label"):
            offset = 0
            summary_view = summary_payloads.view()
            centers_view = centers.view()
            for chunk in stream_chunks(
                stream_factory(),
                lambda: rows_per_block(max(1, m_centers + len(summary_payloads))),
            ):
                if offset + len(chunk) > n_seen:
                    raise ValueError("stream grew between passes")
                chunk_labels = np.full(len(chunk), -1, dtype=np.int64)
                if use_index and self.epoch_batched:
                    # Fast path, CSR form: one probe + one flat pair
                    # evaluation + one segment argmin per chunk; rows
                    # whose nearest in-r̄ center is not core fall to an
                    # identical CSR sweep over the summary index.
                    if center_index is not None:
                        csr, red_flat = probe_reduced(
                            metric, center_index, centers, chunk, self.r_bar
                        )
                        arg, _unused = segment_argmin(red_flat, csr.offsets)
                        covered = np.flatnonzero(arg >= 0)
                        nearest = csr.ids[arg[covered]]
                        core_ok = center_is_core[nearest]
                        fast_rows = covered[core_ok]
                        chunk_labels[fast_rows] = member_cluster[
                            center_summary_pos[nearest[core_ok]]
                        ]
                        fast_mask = np.zeros(len(chunk), dtype=bool)
                        fast_mask[fast_rows] = True
                        rest_rows = np.flatnonzero(~fast_mask)
                    else:
                        rest_rows = np.arange(len(chunk), dtype=np.intp)
                    if rest_rows.size and summary_index is not None:
                        scsr, sred = probe_reduced(
                            metric, summary_index, summary_payloads,
                            [chunk[int(i)] for i in rest_rows], fallback_radius,
                        )
                        sarg, _unused = segment_argmin(sred, scsr.offsets)
                        shas = np.flatnonzero(sarg >= 0)
                        chunk_labels[rest_rows[shas]] = member_cluster[
                            scsr.ids[sarg[shas]]
                        ]
                elif use_index:
                    # Fast path: the nearest center, provided it covers
                    # the point within r̄ — every such center is a hit
                    # of the r̄-range query, so the in-radius argmin is
                    # the global argmin whenever the dense path would
                    # have taken this branch.
                    rest: List[int] = []
                    if center_index is not None:
                        cres = center_index.range_query_points(
                            chunk, self.r_bar, with_distances=False
                        )
                    for i, payload in enumerate(chunk):
                        hit = (
                            cres[i][0]
                            if center_index is not None
                            else np.empty(0, dtype=np.intp)
                        )
                        if hit.size:
                            red = metric.reduced_distance_many(
                                payload, centers.gather(hit)
                            )
                            kmin = int(np.argmin(red))
                            j = int(hit[kmin])
                            if center_is_core[j]:
                                chunk_labels[i] = member_cluster[
                                    center_summary_pos[j]
                                ]
                                continue
                        rest.append(i)
                    if rest and summary_index is not None:
                        sres = summary_index.range_query_points(
                            [chunk[i] for i in rest], fallback_radius,
                            with_distances=False,
                        )
                        for i, (ids, _) in zip(rest, sres):
                            if ids.size:
                                red = metric.reduced_distance_many(
                                    chunk[i], summary_payloads.gather(ids)
                                )
                                chunk_labels[i] = member_cluster[
                                    int(ids[int(np.argmin(red))])
                                ]
                else:
                    block = metric.reduced_cross(chunk, centers_view)
                    nearest = block.argmin(axis=1)
                    nearest_red = block[np.arange(len(chunk)), nearest]
                    fast = center_is_core[nearest] & (nearest_red <= red_r)
                    chunk_labels[fast] = member_cluster[
                        center_summary_pos[nearest[fast]]
                    ]
                    rest_arr = np.flatnonzero(~fast)
                    if rest_arr.size and len(summary_payloads):
                        sblock = metric.reduced_cross(
                            [chunk[int(i)] for i in rest_arr], summary_view
                        )
                        spos = sblock.argmin(axis=1)
                        sred = sblock[np.arange(rest_arr.size), spos]
                        ok = sred <= red_fallback
                        chunk_labels[rest_arr[ok]] = member_cluster[spos[ok]]
                labels[offset : offset + len(chunk)] = chunk_labels
                offset += len(chunk)

        stats = {
            "algorithm": "our_streaming",
            "eps": eps,
            "min_pts": min_pts,
            "rho": self.rho,
            "n_centers": m_centers,
            "watch_size": len(watch),
            "summary_size": len(summary_payloads),
            "memory_points": m_centers + len(watch),
            "memory_ratio": (m_centers + len(watch)) / max(n_seen, 1),
            "n_passes": 3,
            "n_seen": n_seen,
        }
        if use_index:
            stats["index_backend"] = (
                center_index.name if center_index is not None else None
            )
            stats["ingest_mode"] = (
                "epoch" if self.epoch_batched else "per-element"
            )
            for idx in (center_index, watch_index, summary_index):
                if idx is None:
                    continue
                idx.fold_counters_into(timings)
            # The index queries run their exact filters through the
            # center/watch/summary stores, which are datasets with
            # their own eval counters — fold them so the streaming
            # path reports ``distance_evals`` like the batch solvers.
            store_evals = store_blocks = 0
            for store in (centers, watch, summary_payloads):
                store_evals += store.n_cross_evals
                store_blocks += store.n_cross_blocks
            if store_evals or store_blocks:
                timings.count("distance_evals", store_evals)
                timings.count("distance_blocks", store_blocks)
        scope.__exit__(None, None, None)
        return ClusteringResult(
            labels=labels,
            core_mask=None,
            timings=timings,
            stats=stats,
        )

    # ------------------------------------------------------------------

    def _merge_offline(
        self,
        summary,
        metric: Optional[Metric] = None,
        timings: Optional[TimingBreakdown] = None,
    ) -> np.ndarray:
        """Line 15: merge inside ``S*`` at threshold ``(1+ρ)ε``.

        ``S*`` fits in memory, so a brute-force pairwise sweep is used;
        its cost is ``O(|S*|^2 t_dis)`` independent of ``n``.
        """
        metric = metric if metric is not None else self.metric
        size = len(summary)
        if size <= 1:
            return np.zeros(size, dtype=np.int64)
        payloads = summary.view()
        # Threshold-only merge: certified decision mask instead of a
        # float64 distance matrix.
        mask = metric.cross_certified(
            payloads, payloads, (1.0 + self.rho) * self.eps
        )
        if timings is not None:
            timings.count(
                "peak_center_matrix_bytes",
                CERTIFIED_BYTES_PER_ENTRY * size * size,
            )
        rows, cols = np.nonzero(np.triu(mask, 1))
        return component_labels(size, rows, cols)

    def _merge_indexed(
        self,
        summary: MetricDataset,
        index: NeighborIndex,
        timings: Optional[TimingBreakdown] = None,
    ) -> np.ndarray:
        """Index-backed summary merge: one ``(1+ρ)ε`` range query per
        summary point instead of the dense ``|S*|²`` block, producing
        the identical edge set (and therefore identical components)."""
        size = len(summary)
        csr = index.range_query_batch_csr(
            np.arange(size, dtype=np.intp),
            (1.0 + self.rho) * self.eps,
            with_distances=False,
        )
        if timings is not None:
            timings.count("peak_center_matrix_bytes", 16 * int(csr.ids.size))
        # Upper-triangle edges straight from the flat CSR arrays — the
        # same edge set the per-row loop produced, assembled without
        # touching Python per row.
        rows = csr.query_rows()
        upper = csr.ids > rows
        return component_labels(size, rows[upper], csr.ids[upper])
