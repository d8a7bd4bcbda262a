"""Algorithm 3: streaming ρ-approximate DBSCAN (Section 4.2).

Three passes over the stream, memory independent of ``n``:

- **Pass 1** builds the center set ``E`` incrementally (a point farther
  than ``r̄ = ρε/2`` from every existing center becomes a new center),
  counts detected ε-ball members per center, and collects the
  watch-list ``M`` of points assigned to (so-far) non-core centers.
- **Pass 2** recounts ``|B(m, ε)|`` exactly for every ``m ∈ M`` against
  the full stream, assembles ``S*`` (core centers, plus core watch-list
  points whose center is not core) and merges it offline at threshold
  ``(1+ρ)ε``.
- **Pass 3** labels each streamed point: its nearest center's cluster
  when that center is core and within r̄, else the nearest summary point
  within ``(1 + ρ/2)ε``, else outlier.

Memory is ``|E| + |M| = O((Δ/ρε)^D + z)`` payloads (Theorem 4); the
exact footprint is reported in the result stats (the quantity Figure 6
plots as ``(|E| + |M|)/n``).

Every pass reads the stream in chunks, and every threshold test runs in
the metric's reduced space.  The center, watch and summary stores are
:class:`~repro.metricspace.dataset.GrowingMetricDataset` instances,
each probed through a dynamic :class:`~repro.index.base.NeighborIndex`
from :func:`~repro.index.registry.build_index`.  Pass 1 is one loop.
Each chunk starts from a snapshot of the centers that exist at its
start — every row's nearest snapshot center and its ε-hits — taken by
one CSR range query against the center index plus one flat
``reduced_pair_distances`` call (:func:`probe_reduced`).
:func:`epoch_births` (shared with the windowed and decaying maintainers
of :mod:`repro.core.windowed`) then walks the chunk's center births in
epochs: every row up to the first birth is decided at once, one
distance call from the birth over the later rows folds it into their
running nearest centers and collects its ε-hits, repeat.  Python work
happens only at births (``O(|E|)`` times in total, not ``O(n)``), and
the watch decisions of the whole chunk follow from its ε-hits in one
sparse inclusive-count computation.  The decisions, and the distance
pairs evaluated, are those of a loop that takes one arrival at a time
against every center created before it; ``tests/test_streaming_batched.py``
keeps that loop, index-free, as the oracle.

Pass 2 counts ``|B(m, ε)|`` with one ``bincount`` over the CSR answer
of each chunk against the watch index, and merges ``S*`` with one
``(1+ρ)ε`` range query per member against the summary index.  Pass 3
labels with two CSR segment-argmin sweeps over the center and summary
indexes.  The labels are the same under every backend — an index only
changes which candidates reach the exact distance filter.

The stream factory must yield the same points on every pass: passes 2
and 3 count the points they read and raise ``ValueError`` when the
count differs from pass 1's.

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
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import ClusteringResult
from repro.index.base import NeighborIndex
from repro.index.csr import CSRQueryResult, segment_argmin
from repro.index.registry import IndexSpec, build_index
from repro.metricspace.base import Metric
from repro.metricspace.dataset import GrowingMetricDataset, MetricDataset, rows_per_block
from repro.metricspace.euclidean import EuclideanMetric
from repro.obs.registry import CounterScope
from repro.utils.components import component_labels
from repro.utils.timer import TimingBreakdown
from repro.utils.validation import (
    check_epsilon, check_finite, check_min_pts, check_rho,
)

StreamFactory = Callable[[], Iterable[Any]]

#: Upper bound on stream chunk length (keeps per-chunk latency and the
#: births' tail scans bounded even when the target set is tiny).
_MAX_CHUNK = 4096

#: The largest finite float64, the ceiling of a birth threshold.
_FLOAT_MAX = float(np.finfo(np.float64).max)


def stream_chunks(stream: Iterable[Any], size_fn) -> Iterator[List[Any]]:
    """Slice a stream into lists whose length tracks ``size_fn()``.

    ``size_fn`` is re-evaluated before every slice, so chunk lengths can
    follow evolving state (live-center counts, bucket boundaries); the
    result is clipped to ``[1, 4096]``.  Shared by the streaming solver
    and the windowed/decaying maintainers of :mod:`repro.core.windowed`.
    """
    it = iter(stream)
    while True:
        size = min(max(int(size_fn()), 1), _MAX_CHUNK)
        chunk = list(itertools.islice(it, size))
        if not chunk:
            return
        yield chunk


def _reread(
    stream_factory: StreamFactory, size_fn, n_first: int, pass_no: int
) -> Iterator[List[Any]]:
    """The chunks of pass 2 or 3, which must read the ``n_first`` points
    pass 1 read.  Once the stream ends with a different count — a
    factory that hands out one shared iterator reads nothing after pass
    1 — it raises ``ValueError`` naming both lengths; a longer stream
    is drained (and counted) instead of yielding its surplus."""
    n_read = 0
    chunks = stream_chunks(stream_factory(), size_fn)
    for chunk in chunks:
        n_read += len(chunk)
        if n_read > n_first:
            n_read += sum(len(rest) for rest in chunks)
            break
        yield chunk
    if n_read != n_first:
        raise ValueError(
            f"stream changed length between passes: pass 1 read {n_first} "
            f"points, pass {pass_no} read {n_read}"
        )


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
) -> Tuple[CSRQueryResult, np.ndarray, np.ndarray]:
    """One CSR range query of ``payloads`` against ``index`` (built over
    ``store``) and one flat evaluation of every (query, candidate)
    pair: the probe result, its ``query_rows()`` and the reduced
    distances, both aligned with its ``ids``."""
    csr = index.range_query_points_csr(payloads, radius, with_distances=False)
    rows = csr.query_rows()
    if not rows.size:
        return csr, rows, np.empty(0, dtype=np.float64)
    red = metric.reduced_pair_distances(
        _expand_rows(metric, payloads, rows), store.gather(csr.ids)
    )
    return csr, rows, np.asarray(red, dtype=np.float64)


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
    ``allocate(row)`` returns the center id it takes, and one
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
    # An overflowed threshold (a huge r̄) is +inf, which not even the
    # +inf of "no center yet" exceeds: clamp it so such a row births.
    red_r = min(red_r, _FLOAT_MAX)
    birth_rows: List[int] = []
    born: List[int] = []
    # Kept as parts and concatenated once, never rescanned per epoch, so
    # the loop stays O(#births) numpy calls even when nearly every
    # arrival births a center (heavy-drift streams).
    hit_rows: List[np.ndarray] = []
    n_hits: List[int] = []  # per birth, aligned with ``born``
    s = 0
    while s < n:
        # The row right after a birth is often a birth too: test it as
        # a scalar before scanning the rest of the chunk.  (The 1-d
        # ``nonzero`` skips ``np.flatnonzero``'s wrappers, about 1 µs a
        # call, twice per birth.)
        if best_red[s] > red_r:
            e = s
        else:
            viol = (best_red[s + 1 :] > red_r).nonzero()[0]
            if not viol.size:
                break
            e = s + 1 + int(viol[0])  # birth row
        j = allocate(e)
        birth_rows.append(e)
        born.append(j)
        if e + 1 < n:
            tail_red = np.asarray(
                metric.reduced_distance_many(chunk[e], rows_all[e + 1 :]),
                dtype=np.float64,
            )
            tail_best = best_red[e + 1 :]
            better = tail_red < tail_best
            np.copyto(tail_best, tail_red, where=better)
            if best_id is not None:
                np.copyto(best_id[e + 1 :], j, where=better)
            hr = (tail_red <= red_eps).nonzero()[0]
            hit_rows.append(hr + (e + 1))
            n_hits.append(hr.size)
        else:
            n_hits.append(0)
        s = e + 1
    if not hit_rows:
        empty = np.empty(0, dtype=np.intp)
        return birth_rows, born, empty, empty
    return (
        birth_rows,
        born,
        np.concatenate(hit_rows),
        np.repeat(np.asarray(born, dtype=np.intp), n_hits),
    )


class _Net:
    """Pass 1's state: the centers ``E`` with their detected ε-ball
    counts, the watch-list ``M`` with each entry's arrival-time center,
    and the center index (built at the first birth)."""

    def __init__(self, metric: Metric) -> None:
        self.centers = GrowingMetricDataset(metric)
        self.detected = np.zeros(0, dtype=np.int64)
        self.watch = GrowingMetricDataset(metric)
        self.watch_center: List[int] = []
        self.watch_is_center: List[bool] = []
        self.index: Optional[NeighborIndex] = None
        self.n_seen = 0


@dataclass
class _Summary:
    """Pass 2's output: ``S*``, the merged cluster of each member, and
    per center its core flag and ``S*`` position (``-1`` if not core)."""

    payloads: GrowingMetricDataset
    cluster: np.ndarray
    center_is_core: np.ndarray
    center_pos: np.ndarray
    index: Optional[NeighborIndex]


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
        :mod:`repro.index` backend spec (name, instance, or ``"auto"``)
        of the dynamic indexes over the center, watch and summary
        stores, which every probe of the three passes queries.
        ``None`` (default) means the process default: the
        ``REPRO_DEFAULT_INDEX`` environment variable, else ``auto``.
        The labels are the same under every backend.

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
    ) -> None:
        self.eps = check_epsilon(eps)
        self.min_pts = check_min_pts(min_pts)
        self.rho = check_rho(rho)
        self.r_bar = self.rho * self.eps / 2.0
        self.metric = metric if metric is not None else EuclideanMetric()
        self.index = index

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

        return self.fit_stream(factory, metric=dataset.metric)

    def fit_stream(
        self,
        stream_factory: StreamFactory,
        metric: Optional[Metric] = None,
    ) -> ClusteringResult:
        """Run the three passes over ``stream_factory()`` iterables.

        Parameters
        ----------
        stream_factory:
            Zero-argument callable producing a *fresh* iterable over the
            same payload sequence each time it is called (three calls
            total).  An empty stream, or a later pass that reads a
            different number of points, raises ``ValueError``.
        metric:
            Override of the solver's metric for this run (used by
            :meth:`fit` to honor the dataset's own — possibly counting —
            metric).
        """
        timings = TimingBreakdown()
        metric = metric if metric is not None else self.metric
        with CounterScope(timings, metric=metric):
            with timings.phase("pass1_build_net"):
                net = self._pass1(stream_factory, metric)
            summary = self._pass2(stream_factory, metric, net, timings)
            with timings.phase("pass3_label"):
                labels = self._pass3(stream_factory, metric, net, summary)
            self._fold_index_counters(net, summary, timings)
        return ClusteringResult(
            labels=labels,
            core_mask=None,
            timings=timings,
            stats=self._stats(net, summary),
        )

    # ------------------------------------------------------------------
    # The three passes

    def _index_spec(self) -> IndexSpec:
        """A fresh spec per structure: a pre-configured instance cannot
        serve the center, watch and summary stores at once (the center
        index claims it; siblings are spawned)."""
        spec = self.index
        if isinstance(spec, NeighborIndex):
            return spec.spawn()
        return spec

    def _pass1(self, stream_factory: StreamFactory, metric: Metric) -> _Net:
        """Pass 1: the net, its detected counts and the watch-list, one
        chunk step at a time.  Pass 1 reads the stream first, so it
        screens every chunk for NaN/inf or too-large coordinates before
        any state changes."""
        net = _Net(metric)
        # Pass-1 probes must see every center that could (a) collect an
        # ε-hit or (b) cover the arrival within r̄.
        probe_radius = max(self.eps, self.r_bar)
        for chunk in stream_chunks(
            stream_factory(), lambda: rows_per_block(max(1, len(net.centers)))
        ):
            if metric.is_vector_metric:
                check_finite(chunk, "stream payloads", metric)
            net.n_seen += len(chunk)
            born = self._pass1_chunk(net, metric, chunk, probe_radius)
            if born:
                if net.index is None:
                    net.index = build_index(
                        self.index, net.centers, radius_hint=probe_radius
                    )
                else:
                    net.index.insert_batch(
                        np.arange(net.index.n_stored, len(net.centers))
                    )
        if net.n_seen == 0:
            # The batch entry points reject an empty input the same way.
            raise ValueError("the stream must hold at least one point")
        return net

    def _pass1_chunk(
        self, net: _Net, metric: Metric, chunk: List[Any], probe_radius: float
    ) -> List[int]:
        """One pass-1 step: snapshot, births, watch decisions.

        The snapshot gives each row its nearest center among those that
        exist at chunk start (``-1``/``+inf`` for none) and the ε-hits
        on them: one CSR probe of the center index, which holds every
        center within ``probe_radius``, so the argmin is that of all
        centers wherever it decides anything.
        :func:`epoch_births` then walks the births, so the pairs
        evaluated and every argmin tie-break match a loop over single
        arrivals, while Python-level work is O(#births).

        Returns the ids of the centers born in the chunk.
        """
        n = len(chunk)
        red_eps = metric.reduce_threshold(self.eps)
        best_id = np.full(n, -1, dtype=np.intp)
        if net.index is None:  # no center yet
            best_red = np.full(n, np.inf)
            snap_rows = snap_ids = np.empty(0, dtype=np.intp)
        else:
            csr, rows, snap_red = probe_reduced(
                metric, net.index, net.centers, chunk, probe_radius
            )
            arg, best_red = segment_argmin(snap_red, csr.offsets)
            has = arg >= 0
            best_id[has] = csr.ids[arg[has]]
            within = snap_red <= red_eps
            snap_rows, snap_ids = rows[within], csr.ids[within]

        # Births take the next center ids; their payloads are stored
        # once the chunk's births are known, each counting itself.
        ids = itertools.count(len(net.centers))
        birth_rows, born, tail_rows, tail_ids = epoch_births(
            metric, chunk, best_red, metric.reduce_threshold(self.r_bar),
            red_eps, lambda row: next(ids), best_id,
        )
        net.centers.extend([chunk[e] for e in birth_rows])
        net.detected = np.concatenate(
            [net.detected, np.ones(len(born), dtype=np.int64)]
        )
        # Flat (row, center) ε-hit pairs: the snapshot's, then the
        # births' on later rows.
        hit_rows = np.concatenate([snap_rows, tail_rows])
        hit_ids = np.concatenate([snap_ids, tail_ids])

        # Watch decisions, in one global computation: a row's inclusive
        # arrival-time count is the chunk-start detected count of its
        # nearest center plus that center's ε-hits from chunk rows
        # ``<= row`` — a quantity independent of the epoch structure, so
        # one sorted (center, row) key array and two searchsorteds
        # decide every row at once.  ``det`` carries the born centers'
        # self-counts but none of this chunk's hits — exactly the
        # chunk-start state.
        det = net.detected
        is_birth = np.zeros(n, dtype=bool)
        is_birth[birth_rows] = True
        rows_idx = np.flatnonzero(~is_birth)
        watched = is_birth.copy()  # every birth is watched as a center
        if rows_idx.size:
            nearest = best_id[rows_idx]
            keys = np.sort(hit_ids * (n + 1) + hit_rows)
            base = nearest * (n + 1)
            incl = det[nearest] + (
                np.searchsorted(keys, base + rows_idx, side="right")
                - np.searchsorted(keys, base, side="left")
            )
            watched[rows_idx[incl < self.min_pts]] = True
        if hit_ids.size:
            det += np.bincount(hit_ids, minlength=det.shape[0])

        # Watch entries in arrival order, so watch positions (and with
        # them summary ids, merge order and cluster ids) follow the
        # arrivals; a birth is watched under its own id.
        best_id[birth_rows] = born
        rows = np.flatnonzero(watched)
        net.watch.extend([chunk[r] for r in rows.tolist()])
        net.watch_center.extend(best_id[rows].tolist())
        net.watch_is_center.extend(is_birth[rows].tolist())
        return born

    def _pass2(
        self,
        stream_factory: StreamFactory,
        metric: Metric,
        net: _Net,
        timings: TimingBreakdown,
    ) -> _Summary:
        """Pass 2: exact ``|B(m, ε)|`` for the watch-list, ``S*``, and
        its ``(1+ρ)ε`` merge."""
        eps, min_pts = self.eps, self.min_pts
        watch, m_centers = net.watch, len(net.centers)
        with timings.phase("pass2_recount"):
            counts = np.zeros(len(watch), dtype=np.int64)
            # Stream elements range-query the watch index (every birth
            # is watched, so it is never empty); each hit is one count.
            watch_index = build_index(self._index_spec(), watch, radius_hint=eps)
            for chunk in _reread(
                stream_factory, lambda: rows_per_block(len(watch)), net.n_seen, 2
            ):
                csr = watch_index.range_query_points_csr(
                    chunk, eps, with_distances=False
                )
                if csr.ids.size:
                    counts += np.bincount(csr.ids, minlength=len(watch))
            watch_index.fold_counters_into(timings)
            watch_core = counts >= min_pts

        with timings.phase("pass2_summary"):
            center_is_core = net.detected >= min_pts
            for pos, j in enumerate(net.watch_center):
                if net.watch_is_center[pos] and watch_core[pos]:
                    center_is_core[j] = True
            # Assemble S*: core centers, plus core watch-list points whose
            # center is not core.
            payloads = GrowingMetricDataset(metric)
            center_pos = np.full(m_centers, -1, dtype=np.int64)
            for j in np.flatnonzero(center_is_core):
                center_pos[j] = payloads.append(net.centers.get(int(j)))
            for pos, j in enumerate(net.watch_center):
                if (
                    watch_core[pos]
                    and not net.watch_is_center[pos]
                    and not center_is_core[j]
                ):
                    payloads.append(watch.get(pos))

        summary_index: Optional[NeighborIndex] = None
        cluster = np.zeros(0, dtype=np.int64)
        with timings.phase("pass2_merge"):
            if len(payloads):
                # Line 15: one ``(1+ρ)ε`` range query per member; the
                # upper-triangle edges come straight from the flat CSR
                # arrays.
                merge_radius = (1.0 + self.rho) * eps
                summary_index = build_index(
                    self._index_spec(), payloads, radius_hint=merge_radius
                )
                csr = summary_index.range_query_batch_csr(
                    np.arange(len(payloads), dtype=np.intp),
                    merge_radius,
                    with_distances=False,
                )
                timings.count("peak_center_matrix_bytes", 16 * int(csr.ids.size))
                rows = csr.query_rows()
                upper = csr.ids > rows
                cluster = component_labels(len(payloads), rows[upper], csr.ids[upper])
        return _Summary(payloads, cluster, center_is_core, center_pos, summary_index)

    def _pass3(
        self,
        stream_factory: StreamFactory,
        metric: Metric,
        net: _Net,
        summary: _Summary,
    ) -> np.ndarray:
        """Pass 3: each point takes its nearest center's cluster when
        that center is core and within r̄, else its nearest ``S*``
        member's within ``(1 + ρ/2)ε``, else it is noise (``-1``)."""
        centers, payloads = net.centers, summary.payloads
        fallback_radius = (self.rho / 2.0 + 1.0) * self.eps
        labels = np.empty(net.n_seen, dtype=np.int64)
        offset = 0
        for chunk in _reread(
            stream_factory,
            lambda: rows_per_block(max(1, len(centers) + len(payloads))),
            net.n_seen,
            3,
        ):
            n = len(chunk)
            chunk_labels = np.full(n, -1, dtype=np.int64)
            # One probe + one flat pair evaluation + one segment argmin
            # per chunk: every center within r̄ is a hit, so the
            # in-radius argmin is the global one wherever it decides;
            # rows whose nearest in-r̄ center is not core fall to the
            # same sweep over the summary index.
            csr, _, red = probe_reduced(metric, net.index, centers, chunk, self.r_bar)
            arg, _unused = segment_argmin(red, csr.offsets)
            covered = np.flatnonzero(arg >= 0)
            nearest = csr.ids[arg[covered]]
            core_ok = summary.center_is_core[nearest]
            fast = np.zeros(n, dtype=bool)
            fast[covered[core_ok]] = True
            chunk_labels[fast] = summary.cluster[summary.center_pos[nearest[core_ok]]]
            rest = np.flatnonzero(~fast)
            if rest.size and summary.index is not None:
                scsr, _, sred = probe_reduced(
                    metric, summary.index, payloads,
                    [chunk[int(i)] for i in rest], fallback_radius,
                )
                sarg, _unused = segment_argmin(sred, scsr.offsets)
                shas = np.flatnonzero(sarg >= 0)
                chunk_labels[rest[shas]] = summary.cluster[scsr.ids[sarg[shas]]]
            labels[offset : offset + n] = chunk_labels
            offset += n
        return labels

    def _stats(self, net: _Net, summary: _Summary) -> dict:
        m_centers, n_watch = len(net.centers), len(net.watch)
        return {
            "algorithm": "our_streaming",
            "eps": self.eps,
            "min_pts": self.min_pts,
            "rho": self.rho,
            "n_centers": m_centers,
            "watch_size": n_watch,
            "summary_size": len(summary.payloads),
            "memory_points": m_centers + n_watch,
            "memory_ratio": (m_centers + n_watch) / max(net.n_seen, 1),
            "n_passes": 3,
            "n_seen": net.n_seen,
            "index_backend": net.index.name,
        }

    @staticmethod
    def _fold_index_counters(
        net: _Net, summary: _Summary, timings: TimingBreakdown
    ) -> None:
        """Fold the center and summary indexes' counters (pass 2 folds
        the watch index's) and the stores' exact-filter evaluations."""
        for idx in (net.index, summary.index):
            if idx is not None:
                idx.fold_counters_into(timings)
        # The index queries run their exact filters through the
        # center/watch/summary stores, which are datasets with their
        # own eval counters — fold them so the streaming path reports
        # ``distance_evals`` like the batch solvers.
        stores = (net.centers, net.watch, summary.payloads)
        store_evals = sum(store.n_cross_evals for store in stores)
        store_blocks = sum(store.n_cross_blocks for store in stores)
        if store_evals or store_blocks:
            timings.count("distance_evals", store_evals)
            timings.count("distance_blocks", store_blocks)
