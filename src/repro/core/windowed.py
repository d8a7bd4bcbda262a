"""Sliding-window and decaying ρ-approximate DBSCAN — the paper's
future-work item.

The conclusion of the paper lists "data deletion and drift" as open
follow-ups for the streaming algorithm.  This module implements
principled forgetting variants on top of the same net machinery:

- :class:`WindowedApproxDBSCAN` — bucketed sliding window.  The stream
  is divided into **buckets** of ``window // n_buckets`` points; only
  the ``n_buckets`` most recent buckets are live.
  Every live center keeps its ε-ball count **per contributing bucket**,
  so when a bucket expires its contribution is subtracted exactly —
  deletion never rescans the stream.
- :class:`DecayingApproxDBSCAN` — per-point TTL (an expiry wheel keyed
  by arrival tick; every arrival's influence disappears exactly
  ``ttl`` arrivals later) or DBStream-style exponential decay
  (``w ← w · 2^(-λ·Δt) + 1`` per ε-hit, cores by current weight).

Both share the :class:`_CenterStoreBase` slot store: centers live in
recyclable slots of a :class:`~repro.metricspace.dataset.GrowingMetricDataset`
indexed by a dynamic :mod:`repro.index` backend, which answers each
ingest chunk's probe and each cluster refresh's core-center merge as
range queries.  Reads never touch it: a refresh keeps the core payloads
it gathers, and ``predict`` scans them, O(#core) per call.  Eviction
removes the expired centers with one ``delete_batch`` per expiry tick.
The cover tree keeps deleted ids as tombstones until a delete compacts
it (:attr:`~repro.index.covertree.CoverTreeIndex.tombstones`); their
slots are quarantined, not recycled, until then, because recycling
would overwrite a payload the tree still references.

**Epoch ingestion.**  Arrivals are ingested a chunk at a time with the
loop streaming pass 1 runs (:func:`repro.core.streaming.epoch_births`).
A chunk takes one snapshot of the live centers (one CSR probe plus one
flat pair evaluation); the first row whose running nearest reduced
distance exceeds ``r̄`` becomes a center in a free slot, and one
distance call over the rows after it updates the running minima and
collects that center's ε-hits.  Python work happens only at births.
The snapshot's ε-hits are registered before the first birth, the
births' (each with its self-hit) after the last, and the new centers
enter the index with one ``insert_batch``.

**Releases inside a chunk.**  Windowed chunks end at bucket boundaries
and decay chunks at prune ticks, so their releases all happen at chunk
start.  TTL chunks take at most ``ttl`` rows, so a center born in a
chunk cannot die in it, but snapshot centers can: one that dies at row
``k`` leaves the snapshot from row ``k`` on, and is released before the
first birth at or after row ``k`` (the chunk's earlier births enter the
index first), so the index sees births and deaths in arrival order.
Every read, slot assignment, count and weight equals the per-arrival
loop's (``tests/test_windowed_ingest.py`` keeps that loop as the
oracle).

**Count storage.**  The windowed model keeps one int64 ring of
``slots × n_buckets`` counts: a chunk's hits are one ``bincount`` onto
the current bucket's column, an expired bucket zeroes its column, a
released slot's row is zeroed, and the core test is one row sum.  TTL
and decay keep per-center state (expiry counts, a lazily decayed
weight) and apply each center's hits in arrival order, so weights
follow the per-arrival float sequence.  TTL hit expiries falling inside
a chunk only change counts and are applied when the chunk starts.

Deviation from the batch Algorithm 2 (documented, heuristic): the
summary holds only core *centers* — the per-sphere core-member
refinement (``M`` in Algorithm 3) is not maintained under deletion, so
clusters thinner than the net radius can fragment.  On stationary
streams the output still satisfies the sandwich *spirit* (merges only
within ``(1+ρ)ε``); the windowed semantics (old regions are forgotten)
is what the tests pin down.

Memory: ``O(#live centers · n_buckets)`` counters (windowed) or
``O(#live centers)`` weights/wheel entries (decaying) plus the center
payloads — independent of the stream length, like Theorem 4.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.streaming import epoch_births, probe_reduced, stream_chunks
from repro.index.base import NeighborIndex
from repro.index.csr import in_sorted
from repro.index.registry import IndexSpec, build_index
from repro.metricspace.base import Metric
from repro.metricspace.dataset import GrowingMetricDataset, rows_per_block
from repro.metricspace.euclidean import EuclideanMetric
from repro.obs.registry import CounterScope
from repro.utils.components import component_labels
from repro.utils.timer import TimingBreakdown
from repro.utils.validation import (
    check_epsilon, check_finite, check_min_pts, check_rho,
)


def _fit_rows(arr: np.ndarray, n: int) -> np.ndarray:
    """``arr`` with room for at least ``n`` rows (zero-filled growth,
    capacity doubling)."""
    if arr.shape[0] >= n:
        return arr
    grown = np.zeros((max(n, 2 * arr.shape[0]),) + arr.shape[1:], dtype=arr.dtype)
    grown[: arr.shape[0]] = arr
    return grown


def _check_positive(value: float, name: str) -> float:
    """``value`` as a float, rejected unless finite and > 0."""
    out = float(value)
    if not np.isfinite(out) or out <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return out


class _TTLCenter:
    """A net center whose ε-ball count expires per contributing tick."""

    __slots__ = ("count", "expiries")

    def __init__(self) -> None:
        self.count = 0
        #: expiry tick -> number of contributions disappearing then.
        self.expiries: Dict[int, int] = {}


class _DecayCenter:
    """A net center with a lazily decayed exponential weight."""

    __slots__ = ("weight", "tick")

    def __init__(self, tick: int) -> None:
        self.weight = 0.0
        self.tick = tick  # tick of the last weight update

    def weight_at(self, tick: int, decay: float) -> float:
        """Current weight without materializing the decay."""
        if tick <= self.tick:
            return self.weight
        return self.weight * 2.0 ** (-decay * (tick - self.tick))

    def hit(self, tick: int, decay: float) -> None:
        """Decay to ``tick`` and absorb one ε-hit."""
        self.weight = self.weight_at(tick, decay) + 1.0
        self.tick = tick


class _CenterStoreBase:
    """Shared slot store, epoch ingestion, index maintenance and cluster
    view for the forgetting maintainers.

    Subclasses supply the forgetting policy through hooks:
    ``_chunk_limit`` (rows the next chunk may take), ``_begin_chunk``
    (expire what is due at the chunk's first arrival and schedule the
    deaths at its later rows), ``_end_chunk``, ``_new_center`` /
    ``_forget`` (a slot's life cycle), ``_register_hits`` (ε-hits as
    arrays, each center's in arrival order) and ``_core_mask``.
    Everything else — the ε/r̄ arrival decision, slot recycling with
    tombstone quarantine, index eviction and the ``(1+ρ)ε`` core-center
    merge — lives here and is byte-identical across policies.
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        rho: float,
        metric: Optional[Metric],
        index: IndexSpec,
    ) -> None:
        self.eps = check_epsilon(eps)
        self.min_pts = check_min_pts(min_pts)
        self.rho = check_rho(rho)
        self.r_bar = self.rho * self.eps / 2.0
        self.metric = metric if metric is not None else EuclideanMetric()
        # Threshold tests run in the metric's reduced space.
        self._red_eps = self.metric.reduce_threshold(self.eps)
        self._red_r_bar = self.metric.reduce_threshold(self.r_bar)
        self._red_predict = self.metric.reduce_threshold((1.0 + self.rho / 2.0) * self.eps)

        self._store = GrowingMetricDataset(self.metric)  # payload per slot
        self._alive = np.zeros(16, dtype=bool)  # per slot
        self._n_live = 0
        self._free_slots: List[int] = []
        #: Released slots whose ids the cover tree still holds as
        #: tombstones; recycled only once it rebuilds.
        self._quarantined: List[int] = []
        self.index = index
        self._index: Optional[NeighborIndex] = None
        #: The current index's counters as last folded into ``timings``.
        self._index_folded: Dict[str, int] = {}
        self._probe_radius = max(self.eps, self.r_bar)
        #: ``delete_batch`` evictions performed.
        self.n_evict_deletes = 0
        self._n_seen = 0
        # The cluster view, cached at refresh: the core payloads in
        # ascending slot order, each one's cluster and the cluster count.
        self._clusters_dirty = True
        self._core_block: Any = None
        self._core_cluster = np.empty(0, dtype=np.int64)
        self._n_clusters = 0
        #: Cumulative instrumentation across the model's lifetime:
        #: every ``insert_many`` call and every cluster refresh folds
        #: its counter deltas (store evals, index queries, cascade
        #: stats); a refresh is a ``refresh_clusters`` phase, and
        #: eviction index maintenance an ``evict_index`` phase.
        self.timings = TimingBreakdown()

    # ------------------------------------------------------------------
    # Policy hooks

    def _chunk_limit(self) -> int:
        """Rows the next chunk may take (beyond the distance-block
        budget)."""
        raise NotImplementedError

    def _begin_chunk(self, n: int) -> List[Tuple[int, List[int]]]:
        """Expire what is due at the first of the next ``n`` arrivals,
        and return the centers that die at later rows of the chunk as
        ``(row, slots)`` pairs in row order."""
        raise NotImplementedError

    def _end_chunk(self, n: int) -> None:
        pass

    def _new_center(self, slot: int, tick: int) -> None:
        raise NotImplementedError

    def _forget(self, slots: np.ndarray) -> None:
        raise NotImplementedError

    def _register_hits(self, ticks: np.ndarray, slots: np.ndarray) -> None:
        """Record the ε-hits ``(ticks[k], slots[k])``, each slot's in
        arrival order."""
        raise NotImplementedError

    def _core_mask(self, slots: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Online maintenance

    def _check_payloads(self, payloads: Any, what: str = "stream payloads") -> None:
        """Reject NaN/inf or too-large vector payloads before they touch
        any state."""
        if self.metric.is_vector_metric:
            check_finite(payloads, what, self.metric)

    def insert(self, payload: Any) -> None:
        """Process one stream arrival (``insert_many([payload])``)."""
        self.insert_many([payload])

    def insert_many(self, payloads: Any) -> None:
        """Process a sequence of arrivals, one epoch-batched chunk at a
        time.

        Each chunk first expires what is due at its first arrival and
        takes one snapshot of the live centers: one CSR range query
        plus one flat ``reduced_pair_distances`` call, with each center
        that dies inside the chunk (TTL) cut from its death row on.
        :func:`epoch_births` then walks the births: each becomes a
        center in a free slot, after the deaths due by its row are
        released, and one distance call from it over the later rows of
        the chunk updates their nearest distances and collects its
        ε-hits.  The new centers enter the index with one
        ``insert_batch`` (before a release inside the chunk, the births
        so far).  Every read and every count equals a per-arrival
        loop's.  A chunk with a NaN/inf payload is rejected whole;
        earlier chunks stay ingested.
        """
        with self._counted():
            for chunk in stream_chunks(payloads, self._chunk_size):
                self._check_payloads(chunk)
                self._ingest_chunk(chunk)

    @contextmanager
    def _counted(self) -> Iterator[None]:
        """Fold the store's and the index's counter deltas over the
        block into ``timings``."""
        with CounterScope(self.timings, dataset=self._store):
            try:
                yield
            finally:
                self._fold_index_counters()

    def _fold_index_counters(self) -> None:
        if self._index is not None:
            self._index.fold_counters_into(self.timings, self._index_folded)
            self._index_folded = self._index.counters()

    def _chunk_size(self) -> int:
        return min(self._chunk_limit(), rows_per_block(max(1, self._n_live)))

    def _ingest_chunk(self, chunk: List[Any]) -> None:
        n = len(chunk)
        tick = self._n_seen  # tick of the chunk's first arrival
        deaths = deque(self._begin_chunk(n))
        # Snapshot: every live center that could take an ε-hit or cover
        # an arrival within r̄, with the reduced distances to it.  No
        # index means no live center.
        best = np.full(n, np.inf)
        if self._index is not None:
            csr, rows, red = probe_reduced(
                self.metric, self._index, self._store, chunk, self._probe_radius
            )
            if deaths:
                until = np.full(len(self._store), n, dtype=np.intp)
                for row, dead in deaths:
                    until[dead] = row
                red[rows >= until[csr.ids]] = np.inf
            np.minimum.at(best, rows, red)
            within = red <= self._red_eps
            # Before any birth: a dying center's slot may be recycled
            # later in the chunk.
            self._register_hits(tick + rows[within], csr.ids[within])
        pending: List[int] = []  # births not yet in the index

        def birth(row: int) -> int:
            if deaths and deaths[0][0] <= row:
                self._index_births(pending)
                pending.clear()
                while deaths and deaths[0][0] <= row:
                    self._release_slots(deaths.popleft()[1])
            pending.append(self._allocate(chunk[row], tick + row))
            return pending[-1]

        birth_rows, born, tail_rows, tail_slots = epoch_births(
            self.metric, chunk, best, self._red_r_bar, self._red_eps, birth
        )
        self._n_seen += n
        self._clusters_dirty = True
        if born:
            # Each birth's self-hit comes before its hits on later rows.
            self._register_hits(
                tick + np.concatenate([np.asarray(birth_rows, dtype=np.intp), tail_rows]),
                np.concatenate([np.asarray(born, dtype=np.intp), tail_slots]),
            )
        self._index_births(pending)
        for _, dead in deaths:
            self._release_slots(dead)
        self._end_chunk(n)

    # ------------------------------------------------------------------
    # Slot store + index maintenance

    def _allocate(self, payload: Any, tick: int) -> int:
        """Store a new center in a free (or fresh) slot."""
        if not self._free_slots:
            self._reclaim_quarantined()
        if self._free_slots:
            slot = self._free_slots.pop()
            # Overwrite the payload row in place (recycled slot).  Safe:
            # releases always hit the index *before* the slot can reach
            # the free list, and tombstoned slots stay quarantined.
            self._store.set(slot, payload)
        else:
            slot = self._store.append(payload)
            self._alive = _fit_rows(self._alive, slot + 1)
        self._alive[slot] = True
        self._n_live += 1
        self._new_center(slot, tick)
        return slot

    def _index_births(self, born: List[int]) -> None:
        """One index insert for new centers.  The first build resolves
        the spec on a single center, exactly as an index grown one
        center at a time."""
        if not born:
            return
        if self._index is None:
            self._index = build_index(
                self.index, self._store, indices=born[:1],
                radius_hint=self._probe_radius,
            )
            born = born[1:]
        if born:
            self._index.insert_batch(born)

    def _release_slots(self, slots: List[int]) -> None:
        """Forget the centers in ``slots``: mark dead, evict them from
        the index with one ``delete_batch``, and queue the slots for
        recycling."""
        if not slots:
            return
        dead = np.asarray(slots, dtype=np.intp)
        self._alive[dead] = False
        self._n_live -= dead.size
        self._forget(dead)
        with self.timings.phase("evict_index"):
            self._index.delete_batch(np.sort(dead))
            self.n_evict_deletes += 1
            if self._index.n_stored == 0:
                self._fold_index_counters()
                self._index, self._index_folded = None, {}
            self._quarantined.extend(slots)
            self._reclaim_quarantined()

    def _reclaim_quarantined(self) -> None:
        """Move quarantined slots whose ids the index no longer holds
        as tombstones onto the free list."""
        if not self._quarantined:
            return
        tombs = getattr(self._index, "tombstones", None)
        if tombs is None or len(tombs) == 0:
            self._free_slots.extend(self._quarantined)
            self._quarantined.clear()
            return
        q = np.asarray(self._quarantined, dtype=np.intp)
        blocked = in_sorted(q, tombs)
        self._free_slots.extend(q[~blocked].tolist())
        self._quarantined = q[blocked].tolist()

    def _alive_slots(self) -> np.ndarray:
        return np.flatnonzero(self._alive[: len(self._store)])

    # ------------------------------------------------------------------
    # Query side

    def _refresh_clusters(self) -> None:
        if not self._clusters_dirty:
            return
        with self.timings.phase("refresh_clusters"), self._counted():
            self._refresh_clusters_inner()

    def _refresh_clusters_inner(self) -> None:
        alive = self._alive_slots()
        core = alive[self._core_mask(alive)]
        rows = cols = np.empty(0, dtype=np.int64)
        if core.size > 1:
            # One CSR range query over all core centers; non-core hits
            # map to -1 and the upper-triangle mask drops them together
            # with the duplicate edge direction, with no per-hit Python
            # loop.
            csr = self._index.range_query_batch_csr(
                core, (1.0 + self.rho) * self.eps, with_distances=False
            )
            pos_of = np.full(len(self._store), -1, dtype=np.int64)
            pos_of[core] = np.arange(core.size)
            rows = csr.query_rows()
            mapped = pos_of[csr.ids]
            upper = mapped > rows
            rows, cols = rows[upper], mapped[upper]
        labels = component_labels(core.size, rows, cols)
        self._core_block = self._store.gather(core)
        self._core_cluster = labels
        self._n_clusters = int(labels.max()) + 1 if labels.size else 0
        self._clusters_dirty = False

    def predict(self, payload: Any) -> int:
        """Cluster id for a query point against the current view.

        Returns the cluster of the nearest live *core* center within
        ``(1 + ρ/2)ε`` (ties to the lowest slot), else ``-1`` (noise /
        forgotten region).  One scan of the core payloads the last
        cluster refresh gathered, O(#core) per call; the index is not
        read.  A NaN or infinite vector query raises ``ValueError``.
        """
        self._check_payloads(payload, "query payloads")
        self._refresh_clusters()
        if not self._core_cluster.size:
            return -1
        red = self.metric.reduced_distance_many(payload, self._core_block)
        pos = int(np.argmin(red))
        if float(red[pos]) <= self._red_predict:
            return int(self._core_cluster[pos])
        return -1

    @property
    def n_clusters(self) -> int:
        """Number of clusters in the current view."""
        self._refresh_clusters()
        return self._n_clusters

    @property
    def n_core_centers(self) -> int:
        """Core centers in the current view (what ``predict`` scans)."""
        self._refresh_clusters()
        return int(self._core_cluster.size)

    @property
    def n_live_centers(self) -> int:
        """Live net centers (the memory footprint driver)."""
        return self._n_live

    @property
    def memory_points(self) -> int:
        """Stored payload slots (live + recyclable)."""
        return len(self._store)

    @property
    def n_seen(self) -> int:
        """Total stream arrivals processed."""
        return self._n_seen


class WindowedApproxDBSCAN(_CenterStoreBase):
    """ρ-approximate DBSCAN over a sliding window of the stream.

    Parameters
    ----------
    eps, min_pts, rho:
        The usual parameters; the net radius is ``r̄ = ρε/2``.
    window:
        Number of most-recent points the clustering reflects.
    n_buckets:
        Window granularity; expiry happens a bucket at a time.  With
        buckets of ``b = window // n_buckets`` arrivals the model holds
        between ``(n_buckets - 1)·b + 1`` and ``n_buckets·b`` of the
        most recent arrivals, so ``window`` itself is reached only when
        ``n_buckets`` divides it (window 100 with 8 buckets holds 85 to
        96).
    metric:
        Distance function over payloads (Euclidean default).
    index:
        :mod:`repro.index` backend spec (name, instance, or
        ``"auto"``) of the dynamic index over the live-center store,
        which answers each ingest chunk's probe and each cluster
        refresh as range queries (``predict`` scans the refresh's core
        payloads instead): each chunk's new centers are inserted with
        one ``insert_batch``, and bucket expiry evicts the expired
        slots with one ``delete_batch`` (``n_evict_deletes`` counts
        them).  ``None`` (default) means the process default: the
        ``REPRO_DEFAULT_INDEX`` environment variable, else ``auto``.
        Every backend gives the same partition; the cover tree, whose
        released slots stay quarantined until it compacts, may number
        the clusters differently.

    Examples
    --------
    >>> import numpy as np
    >>> model = WindowedApproxDBSCAN(1.0, 3, rho=0.5, window=100)
    >>> for x in np.linspace(0, 0.5, 50):
    ...     model.insert(np.array([x]))
    >>> model.predict(np.array([0.25])) >= 0
    True
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        rho: float = 0.5,
        window: int = 1000,
        n_buckets: int = 8,
        metric: Optional[Metric] = None,
        index: IndexSpec = None,
    ) -> None:
        super().__init__(eps, min_pts, rho, metric, index)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if n_buckets < 1 or n_buckets > window:
            raise ValueError(
                f"n_buckets must be in [1, window]; got {n_buckets} for "
                f"window {window}"
            )
        self.window = int(window)
        self.n_buckets = int(n_buckets)
        self.bucket_size = max(1, self.window // self.n_buckets)
        self._live_buckets: Deque[int] = deque()
        self._bucket_centers: Dict[int, List[int]] = {}
        self._current_bucket = 0
        self._in_bucket = 0
        #: ε-ball counts per slot and live bucket: bucket ``b`` owns
        #: column ``b % n_buckets`` (the ring reuses the expired one).
        self._counts = np.zeros((16, self.n_buckets), dtype=np.int64)

    # ------------------------------------------------------------------
    # Policy hooks

    def _chunk_limit(self) -> int:
        # Chunks never span a bucket boundary, so expiry can only run
        # at chunk start.
        return self.bucket_size - self._in_bucket

    def _begin_chunk(self, n: int) -> List[Tuple[int, List[int]]]:
        if self._in_bucket == 0:
            self._live_buckets.append(self._current_bucket)
            self._bucket_centers[self._current_bucket] = []
            while len(self._live_buckets) > self.n_buckets:
                self._expire_bucket(self._live_buckets.popleft())
        return []

    def _end_chunk(self, n: int) -> None:
        self._in_bucket += n
        if self._in_bucket >= self.bucket_size:
            self._current_bucket += 1
            self._in_bucket = 0

    def _new_center(self, slot: int, tick: int) -> None:
        self._counts = _fit_rows(self._counts, slot + 1)
        self._bucket_centers[self._current_bucket].append(slot)

    def _forget(self, slots: np.ndarray) -> None:
        self._counts[slots] = 0

    def _register_hits(self, ticks: np.ndarray, slots: np.ndarray) -> None:
        per_slot = np.bincount(slots)
        self._counts[: per_slot.size, self._current_bucket % self.n_buckets] += per_slot

    def _core_mask(self, slots: np.ndarray) -> np.ndarray:
        return self._counts[slots].sum(axis=1) >= self.min_pts

    # ------------------------------------------------------------------
    # Expiry

    def _expire_bucket(self, bucket: int) -> None:
        self._release_slots(self._bucket_centers.pop(bucket, []))
        self._counts[:, bucket % self.n_buckets] = 0


class DecayingApproxDBSCAN(_CenterStoreBase):
    """ρ-approximate DBSCAN with per-point TTL or exponential decay.

    Exactly one of ``ttl`` / ``decay`` selects the forgetting policy:

    - **TTL** (``ttl=N``): every arrival's influence — all the ε-hits
      it contributes and any center it creates — disappears exactly
      ``N`` arrivals later, maintained by an expiry wheel keyed on the
      arrival tick.  :meth:`insert` accepts a per-point ``ttl``
      override, so heterogeneous lifetimes (priority traffic, session
      lengths) need no extra machinery.  With a uniform TTL the view
      matches :class:`WindowedApproxDBSCAN` with ``n_buckets == window``
      arrival for arrival.
    - **Decay** (``decay=λ``): DBStream-style damped weights.  Every
      ε-hit updates the center weight ``w ← w · 2^(-λ·Δt) + 1`` (Δt in
      arrivals since the center's last update); a center is core while
      its current weight is at least ``min_weight`` (default
      ``min_pts``), and centers whose weight sank below
      ``prune_weight`` are forgotten every ``prune_interval`` arrivals.

    Both policies share the windowed model's slot store and neighbor
    index (the ``index`` spec as in :class:`WindowedApproxDBSCAN`),
    including ``delete_batch`` eviction.  ``min_weight`` and
    ``prune_weight`` must be finite and positive, as ``decay`` must.
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        rho: float = 0.5,
        ttl: Optional[int] = None,
        decay: Optional[float] = None,
        min_weight: Optional[float] = None,
        prune_weight: float = 0.5,
        prune_interval: Optional[int] = None,
        metric: Optional[Metric] = None,
        index: IndexSpec = None,
    ) -> None:
        super().__init__(eps, min_pts, rho, metric, index)
        if (ttl is None) == (decay is None):
            raise ValueError("exactly one of ttl / decay must be set")
        if ttl is not None:
            self.ttl: Optional[int] = self._check_ttl(ttl)
            self.decay: Optional[float] = None
        else:
            self.ttl = None
            self.decay = _check_positive(decay, "decay")
        self.min_weight = _check_positive(
            min_weight if min_weight is not None else self.min_pts, "min_weight"
        )
        self.prune_weight = _check_positive(prune_weight, "prune_weight")
        if prune_interval is not None:
            self.prune_interval = int(prune_interval)
        elif self.decay is not None:
            # One half-life is long enough for a weight to move: more
            # frequent sweeps would scan the live set for no deaths.
            self.prune_interval = max(1, round(1.0 / self.decay))
        else:
            self.prune_interval = 0  # unused in TTL mode
        if self.decay is not None and self.prune_interval < 1:
            raise ValueError(
                f"prune_interval must be >= 1, got {self.prune_interval}"
            )
        #: Per slot: the center's TTL or decay state (None once dead).
        self._state: List[Any] = []
        #: tick -> slots with an ε-hit contribution expiring then.
        self._hit_wheel: Dict[int, List[int]] = {}
        #: tick -> slots whose creating arrival expires then (center dies).
        self._death_wheel: Dict[int, List[int]] = {}
        self._arrival_ttl = self.ttl
        self._ttl_override: Optional[int] = None

    @staticmethod
    def _check_ttl(ttl) -> int:
        value = int(ttl)
        if value < 1:
            raise ValueError(f"ttl must be >= 1 arrival, got {ttl}")
        return value

    # ------------------------------------------------------------------
    # Policy hooks

    def insert(self, payload: Any, ttl: Optional[int] = None) -> None:
        """Process one arrival; ``ttl`` overrides the model lifetime
        for this point's influence (TTL mode only)."""
        if ttl is not None:
            if self.ttl is None:
                raise ValueError("per-point ttl requires a TTL-mode model")
            self._ttl_override = self._check_ttl(ttl)
        try:
            super().insert(payload)
        finally:
            # ``_begin_chunk`` consumes the override; a rejected payload
            # must not leave it behind for the next arrival.
            self._ttl_override = None

    def _chunk_limit(self) -> int:
        if self.ttl is not None:
            # At most ``ttl`` rows: a center born in the chunk cannot die
            # inside it, and none of the chunk's hits expires inside it.
            return self.ttl
        # Stop before the next prune tick (a multiple of the interval).
        return self.prune_interval - self._n_seen % self.prune_interval

    def _begin_chunk(self, n: int) -> List[Tuple[int, List[int]]]:
        tick = self._n_seen
        self._arrival_ttl = (
            self._ttl_override if self._ttl_override is not None else self.ttl
        )
        self._ttl_override = None
        if self.ttl is None:
            if tick and tick % self.prune_interval == 0:
                self._prune_weak()
            return []
        # Hit expiries due during the chunk only change counts, and none
        # of the chunk's own hits expires inside it, so they all apply
        # now.  Stale wheel rows of released slots find no center (or a
        # recycled one, whose expiries are keyed by *its* ticks:
        # ``pop(t, 0)`` drains them to zero).
        deaths = []
        for row in range(n):
            for slot in self._hit_wheel.pop(tick + row, ()):
                center = self._state[slot]
                if center is not None:
                    center.count -= center.expiries.pop(tick + row, 0)
            dead = self._death_wheel.pop(tick + row, None)
            if dead:
                deaths.append((row, dead))
        if deaths and deaths[0][0] == 0:
            self._release_slots(deaths.pop(0)[1])
        return deaths

    def _new_center(self, slot: int, tick: int) -> None:
        if self.ttl is not None:
            center: Any = _TTLCenter()
            self._death_wheel.setdefault(tick + self._arrival_ttl, []).append(slot)
        else:
            center = _DecayCenter(tick)
        if slot == len(self._state):
            self._state.append(center)
        else:
            self._state[slot] = center

    def _forget(self, slots: np.ndarray) -> None:
        for slot in slots.tolist():
            self._state[slot] = None

    def _register_hits(self, ticks: np.ndarray, slots: np.ndarray) -> None:
        state = self._state
        if self.ttl is None:
            for tick, slot in zip(ticks.tolist(), slots.tolist()):
                state[slot].hit(tick, self.decay)
            return
        for tick, slot in zip(ticks.tolist(), slots.tolist()):
            center = state[slot]
            center.count += 1
            expiry = tick + self._arrival_ttl
            center.expiries[expiry] = center.expiries.get(expiry, 0) + 1
            self._hit_wheel.setdefault(expiry, []).append(slot)

    def _core_mask(self, slots: np.ndarray) -> np.ndarray:
        state = self._state
        if self.ttl is not None:
            core = (state[s].count >= self.min_pts for s in slots.tolist())
        else:
            tick = self._query_tick
            core = (
                state[s].weight_at(tick, self.decay) >= self.min_weight
                for s in slots.tolist()
            )
        return np.fromiter(core, dtype=bool, count=slots.size)

    @property
    def _query_tick(self) -> int:
        """Tick of the most recent arrival (weights are evaluated as of
        the last observed point)."""
        return max(0, self._n_seen - 1)

    def _prune_weak(self) -> None:
        tick = self._n_seen  # weight as of the arrival about to process
        dead = [
            s
            for s in self._alive_slots().tolist()
            if self._state[s].weight_at(tick, self.decay) < self.prune_weight
        ]
        self._release_slots(dead)
