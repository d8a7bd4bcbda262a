"""Sliding-window and decaying ρ-approximate DBSCAN — the paper's
future-work item.

The conclusion of the paper lists "data deletion and drift" as open
follow-ups for the streaming algorithm.  This module implements
principled forgetting variants on top of the same net machinery:

- :class:`WindowedApproxDBSCAN` — bucketed sliding window.  The stream
  is divided into **buckets** of ``window / n_buckets`` points; only
  the buckets covering the most recent ``window`` points are live.
  Every live center keeps its ε-ball count **per contributing bucket**,
  so when a bucket expires its contribution is subtracted exactly —
  deletion costs ``O(#live centers)`` per bucket, never a rescan.
- :class:`DecayingApproxDBSCAN` — per-point TTL (an expiry wheel keyed
  by arrival tick; every arrival's influence disappears exactly
  ``ttl`` arrivals later) or DBStream-style exponential decay
  (``w ← w · 2^(-λ·Δt) + 1`` per ε-hit, cores by current weight).

Both share the :class:`_CenterStoreBase` slot store: centers live in
recyclable slots of a :class:`~repro.metricspace.dataset.GrowingMetricDataset`
so an optional :mod:`repro.index` backend can answer every arrival /
predict / cluster-refresh probe as a range query.  Eviction uses the
backends' **native deletion** (``delete_batch``) by default — one batch
removal per expiry, zero full-index rebuilds; pass
``evict_rebuild=True`` to A/B against the rebuild-on-expiry strategy
(clustering output is bit-identical either way).  Slots whose ids are
still tombstoned inside a :class:`~repro.index.base.DynamicIndexWrapper`
are quarantined, not recycled, until the wrapper compacts: recycling
would overwrite a payload the wrapped structure still references.

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
from typing import Any, Deque, Dict, List, Optional

import numpy as np

from repro.core.streaming import stream_chunks
from repro.index.base import NeighborIndex
from repro.index.registry import IndexSpec, build_dynamic_index
from repro.metricspace.base import Metric
from repro.metricspace.dataset import GrowingMetricDataset, rows_per_block
from repro.metricspace.euclidean import EuclideanMetric
from repro.obs.registry import CounterScope
from repro.utils.components import component_labels
from repro.utils.timer import TimingBreakdown
from repro.utils.validation import (
    check_epsilon, check_finite, check_min_pts, check_rho,
)


class _LiveCenter:
    """A net center with per-bucket ε-ball count contributions."""

    __slots__ = ("payload", "bucket", "contributions")

    def __init__(self, payload: Any, bucket: int) -> None:
        self.payload = payload
        self.bucket = bucket  # bucket that created (and will expire) it
        self.contributions: Dict[int, int] = {}

    @property
    def total_count(self) -> int:
        return sum(self.contributions.values())

    def add(self, bucket: int) -> None:
        self.contributions[bucket] = self.contributions.get(bucket, 0) + 1

    def expire(self, bucket: int) -> None:
        self.contributions.pop(bucket, None)


class _TTLCenter:
    """A net center whose ε-ball count expires per contributing tick."""

    __slots__ = ("payload", "count", "expiries")

    def __init__(self, payload: Any) -> None:
        self.payload = payload
        self.count = 0
        #: expiry tick -> number of contributions disappearing then.
        self.expiries: Dict[int, int] = {}


class _DecayCenter:
    """A net center with a lazily decayed exponential weight."""

    __slots__ = ("payload", "weight", "tick")

    def __init__(self, payload: Any, tick: int) -> None:
        self.payload = payload
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
    """Shared slot store, index maintenance and cluster view for the
    forgetting maintainers.

    Subclasses supply the forgetting policy through four hooks:
    ``_pre_arrival`` (advance time, expire state), ``_post_arrival``,
    ``_new_center`` / ``_register_hit`` / ``_register_new`` (how an
    arrival's influence is recorded) and ``_is_core``.  Everything else
    — the ε/r̄ arrival decision, chunked batch insertion, slot
    recycling with tombstone quarantine, delete-vs-rebuild eviction and
    the ``(1+ρ)ε`` core-center merge — lives here and is byte-identical
    across policies.
    """

    #: Subclasses whose ``_pre_arrival`` can release slots *inside* an
    #: ``insert_many`` chunk set this so the chunk-start snapshot is
    #: re-validated per arrival.  The windowed policy sizes chunks to
    #: never cross a bucket boundary, so it keeps the cheap path.
    _mid_chunk_releases = False

    def __init__(
        self,
        eps: float,
        min_pts: int,
        rho: float,
        metric: Optional[Metric],
        index: IndexSpec,
        evict_rebuild: bool,
    ) -> None:
        self.eps = check_epsilon(eps)
        self.min_pts = check_min_pts(min_pts)
        self.rho = check_rho(rho)
        self.r_bar = self.rho * self.eps / 2.0
        self.metric = metric if metric is not None else EuclideanMetric()
        # Threshold tests run in the metric's reduced space.
        self._red_eps = self.metric.reduce_threshold(self.eps)
        self._red_r_bar = self.metric.reduce_threshold(self.r_bar)

        self._centers: List[Optional[Any]] = []
        self._free_slots: List[int] = []
        #: Released slots whose ids a DynamicIndexWrapper still holds as
        #: tombstones; recycled only once the wrapper compacts.
        self._quarantined: List[int] = []
        self._store = GrowingMetricDataset(self.metric)  # parallel payload buffer
        self._slot_alive: List[bool] = []
        self.index = index
        self._index: Optional[NeighborIndex] = None
        self._probe_radius = max(self.eps, self.r_bar)
        self.evict_rebuild = bool(evict_rebuild)
        #: Full index rebuilds performed by eviction (A/B strategy
        #: counter: stays 0 on the default delete path).
        self.n_evict_rebuilds = 0
        #: Native ``delete_batch`` evictions performed.
        self.n_evict_deletes = 0
        self._n_seen = 0
        self._clusters_dirty = True
        self._center_cluster: Dict[int, int] = {}
        #: Cumulative instrumentation across the model's lifetime:
        #: every cluster refresh records a ``refresh_clusters`` phase
        #: with per-refresh counter deltas (store evals, index queries,
        #: cascade stats) folded through a :class:`CounterScope`, and
        #: eviction index maintenance records an ``evict_index`` phase.
        self.timings = TimingBreakdown()

    # ------------------------------------------------------------------
    # Policy hooks

    def _pre_arrival(self) -> None:
        raise NotImplementedError

    def _post_arrival(self) -> None:
        pass

    def _new_center(self, payload: Any) -> Any:
        raise NotImplementedError

    def _register_hit(self, slot: int) -> None:
        raise NotImplementedError

    def _register_new(self, slot: int) -> None:
        raise NotImplementedError

    def _is_core(self, slot: int) -> bool:
        raise NotImplementedError

    def _chunk_limit(self) -> int:
        """Upper bound on the next ``insert_many`` chunk length (beyond
        the distance-block budget)."""
        return 4096

    # ------------------------------------------------------------------
    # Online maintenance

    def _check_payloads(self, payloads: Any) -> None:
        """Reject NaN/inf vector payloads before they touch any state."""
        if self.metric.is_vector_metric:
            check_finite(payloads, "stream payloads")

    def insert(self, payload: Any) -> None:
        """Process one stream arrival (and expire aged-out state)."""
        self._check_payloads(payload)
        self._pre_arrival()
        if self.index is not None:
            # Candidate centers from one range query; every center
            # that could collect an ε-hit or cover within r̄ is a hit.
            if self._index is not None:
                hits = self._index.range_query_points(
                    [payload], self._probe_radius, with_distances=False
                )[0][0]
                slots = [int(s) for s in hits]
            else:
                slots = []
            red = (
                self._reduced_to_slots(payload, slots)
                if slots
                else np.empty(0, dtype=np.float64)
            )
            self._apply_arrival(payload, slots, red)
        else:
            alive = self._alive_slots()
            red = (
                self._reduced_to_slots(payload, alive)
                if alive
                else np.empty(0, dtype=np.float64)
            )
            self._apply_arrival(payload, alive, red)
        self._post_arrival()

    def insert_many(self, payloads: Any) -> None:
        """Process a sequence of arrivals with chunked batch distance
        blocks.

        Equivalent to calling :meth:`insert` per element, but the
        distances of a whole chunk against the live-center snapshot are
        computed with one many-to-many ``cross`` block; only the rows
        against centers created inside the same chunk fall back to
        incremental one-to-many calls.

        With an index configured the whole chunk is probed with one
        CSR range query against the chunk-start index snapshot and the
        candidate distances come from one flat
        ``reduced_pair_distances`` call — same decisions as the
        per-:meth:`insert` loop (centers allocated mid-chunk are
        carried as explicit extra candidates, exactly like the dense
        path), one query batch instead of one query per arrival.
        Candidates that a mid-chunk release killed (or whose slot a new
        center recycled) are dropped at decision time, so the snapshot
        can never resurrect a forgotten center.
        """

        def size_fn() -> int:
            return min(
                self._chunk_limit(),
                max(1, rows_per_block(max(1, self.n_live_centers))),
            )

        empty = np.empty(0, dtype=np.float64)
        for chunk in stream_chunks(payloads, size_fn):
            # A chunk with a NaN/inf payload is rejected whole; earlier
            # chunks stay ingested.
            self._check_payloads(chunk)
            self._pre_arrival()  # may expire state: snapshot after
            csr = None
            block: Optional[np.ndarray] = None
            alive: List[int] = []
            if self.index is not None:
                if self._index is not None:
                    csr = self._index.range_query_points_csr(
                        chunk, self._probe_radius, with_distances=False
                    )
                    flat_red = (
                        np.asarray(
                            self.metric.reduced_pair_distances(
                                self._expand_rows(chunk, csr.query_rows()),
                                self._slot_batch(csr.ids),
                            ),
                            dtype=np.float64,
                        )
                        if csr.ids.size
                        else empty
                    )
            else:
                alive = self._alive_slots()
                if alive:
                    block = self.metric.reduced_cross(
                        chunk, self._slot_batch(alive)
                    )
            new_slots: List[int] = []
            new_set: set = set()
            for i, payload in enumerate(chunk):
                if i > 0:
                    self._pre_arrival()
                if csr is not None:
                    lo, hi = int(csr.offsets[i]), int(csr.offsets[i + 1])
                    slots = [int(s) for s in csr.ids[lo:hi]]
                    red = flat_red[lo:hi]
                elif block is not None:
                    slots, red = alive, block[i]
                else:
                    slots, red = [], empty
                if self._mid_chunk_releases and slots:
                    keep = [
                        j
                        for j, s in enumerate(slots)
                        if self._slot_alive[s] and s not in new_set
                    ]
                    if len(keep) != len(slots):
                        slots = [slots[j] for j in keep]
                        red = red[keep]
                cand_new = new_slots
                if self._mid_chunk_releases and new_slots:
                    # Chunk-born centers can die (or their slot be
                    # recycled by a later chunk-born center) before the
                    # chunk ends; keep one live entry per slot.
                    seen: set = set()
                    cand_new = []
                    for s in new_slots:
                        if self._slot_alive[s] and s not in seen:
                            cand_new.append(s)
                            seen.add(s)
                extra = (
                    self._reduced_to_slots(payload, cand_new)
                    if cand_new
                    else None
                )
                slot = self._apply_arrival(payload, slots, red, cand_new, extra)
                if slot is not None:
                    new_slots.append(slot)
                    new_set.add(slot)
                self._post_arrival()

    def _apply_arrival(
        self,
        payload: Any,
        alive: List[int],
        red: np.ndarray,
        extra_slots: Optional[List[int]] = None,
        extra_red: Optional[np.ndarray] = None,
    ) -> Optional[int]:
        """Count ε-hits, then allocate a center when nothing is within
        r̄.  Returns the new slot, if any."""
        nearest_red = np.inf
        for slots, values in ((alive, red), (extra_slots or [], extra_red)):
            if not slots:
                continue
            for k in np.flatnonzero(values <= self._red_eps):
                self._register_hit(slots[int(k)])
            low = float(values.min())
            nearest_red = min(nearest_red, low)
        if nearest_red > self._red_r_bar:
            slot = self._allocate(payload)
            self._register_new(slot)
            return slot
        return None

    # ------------------------------------------------------------------
    # Slot store + index maintenance

    def _allocate(self, payload: Any) -> int:
        center = self._new_center(payload)
        if not self._free_slots:
            self._reclaim_quarantined()
        if self._free_slots:
            slot = self._free_slots.pop()
            self._centers[slot] = center
            self._slot_alive[slot] = True
            # Overwrite the payload row in place (recycled slot).  Safe:
            # releases always hit the index *before* the slot can reach
            # the free list, and tombstoned slots stay quarantined.
            self._store.set(slot, payload)
        else:
            slot = self._store.append(payload)
            self._centers.append(center)
            self._slot_alive.append(True)
        if self.index is not None:
            if self._index is None:
                self._index = build_dynamic_index(
                    self.index, self._store, indices=[slot],
                    radius_hint=self._probe_radius,
                    deletes=not self.evict_rebuild,
                )
            else:
                self._index.insert(slot)
        return slot

    def _release_slots(self, slots: List[int]) -> None:
        """Forget the centers in ``slots``: mark dead, evict from the
        index (native ``delete_batch`` or rebuild per
        ``evict_rebuild``), and queue the slots for recycling."""
        if not slots:
            return
        for slot in slots:
            self._slot_alive[slot] = False
            self._centers[slot] = None
        if self.index is None or self._index is None:
            self._free_slots.extend(slots)
            return
        with self.timings.phase("evict_index"):
            if self.evict_rebuild:
                alive = self._alive_slots()
                if alive:
                    self._index = build_dynamic_index(
                        self.index, self._store, indices=alive,
                        radius_hint=self._probe_radius,
                    )
                    self.n_evict_rebuilds += 1
                else:
                    self._index = None
                self._free_slots.extend(slots)
            else:
                self._index.delete_batch(np.asarray(sorted(slots), dtype=np.intp))
                self.n_evict_deletes += 1
                if self._index.n_stored == 0:
                    self._index = None
                self._quarantined.extend(slots)
                self._reclaim_quarantined()

    def _reclaim_quarantined(self) -> None:
        """Move quarantined slots whose ids no wrapper tombstone holds
        anymore onto the free list."""
        if not self._quarantined:
            return
        tombs = (
            getattr(self._index, "tombstones", None)
            if self._index is not None
            else None
        )
        if tombs is None or len(tombs) == 0:
            self._free_slots.extend(self._quarantined)
            self._quarantined.clear()
            return
        q = np.asarray(self._quarantined, dtype=np.intp)
        blocked = np.isin(q, tombs)
        self._free_slots.extend(int(s) for s in q[~blocked])
        self._quarantined = [int(s) for s in q[blocked]]

    def _alive_slots(self) -> List[int]:
        return [s for s, alive in enumerate(self._slot_alive) if alive]

    def _distances_to_slots(self, payload: Any, slots: List[int]) -> np.ndarray:
        return self.metric.distance_many(payload, self._slot_batch(slots))

    def _reduced_to_slots(self, payload: Any, slots: List[int]) -> np.ndarray:
        return self.metric.reduced_distance_many(payload, self._slot_batch(slots))

    def _slot_batch(self, slots) -> Any:
        view = self._store.view()
        if self.metric.is_vector_metric:
            return view[np.asarray(slots, dtype=np.intp)]
        return [view[s] for s in slots]

    def _expand_rows(self, chunk, rows_rep: np.ndarray) -> Any:
        """Repeat chunk payloads along a CSR row expansion (flat query
        side of ``reduced_pair_distances``)."""
        if self.metric.is_vector_metric:
            return np.asarray(chunk)[rows_rep]
        return [chunk[int(r)] for r in rows_rep]

    # ------------------------------------------------------------------
    # Query side

    def _refresh_clusters(self) -> None:
        if not self._clusters_dirty:
            return
        with self.timings.phase("refresh_clusters"), CounterScope(
            self.timings, dataset=self._store
        ):
            index_before = (
                self._index.counters() if self._index is not None else None
            )
            self._refresh_clusters_inner()
            if self._index is not None:
                self._index.fold_counters_into(self.timings, index_before)

    def _refresh_clusters_inner(self) -> None:
        alive = self._alive_slots()
        core = [s for s in alive if self._is_core(s)]
        threshold = (1.0 + self.rho) * self.eps
        rows = cols = np.empty(0, dtype=np.int64)
        if len(core) > 1 and self._index is not None:
            # One CSR range query over all core centers; non-core hits
            # map to -1 and the upper-triangle mask drops them together
            # with the duplicate edge direction — the same edge set as
            # the dense block, with no per-hit Python loop.
            core_arr = np.asarray(core, dtype=np.intp)
            csr = self._index.range_query_batch_csr(
                core_arr, threshold, with_distances=False
            )
            pos_of = np.full(len(self._centers), -1, dtype=np.int64)
            pos_of[core_arr] = np.arange(len(core))
            rows = csr.query_rows()
            mapped = pos_of[csr.ids]
            upper = mapped > rows
            rows, cols = rows[upper], mapped[upper]
        elif len(core) > 1:
            # One certified decision block over the core centers
            # replaces the per-center sweep — the merge needs only the
            # ``<= threshold`` verdicts.
            batch = self._slot_batch(core)
            mask = self.metric.cross_certified(batch, batch, threshold)
            rows, cols = np.nonzero(np.triu(mask, 1))
        labels = component_labels(len(core), rows, cols)
        self._center_cluster = dict(zip(core, labels.tolist()))
        self._clusters_dirty = False

    def predict(self, payload: Any) -> int:
        """Cluster id for a query point against the current view.

        Returns the cluster of the nearest live *core* center within
        ``(1 + ρ/2)ε``, else ``-1`` (noise / forgotten region).
        """
        self._refresh_clusters()
        core_slots = list(self._center_cluster)
        if not core_slots:
            return -1
        radius = (1.0 + self.rho / 2.0) * self.eps
        if self._index is not None:
            hits = self._index.range_query_points(
                [payload], radius, with_distances=False
            )[0][0]
            cand = [int(s) for s in hits if int(s) in self._center_cluster]
            if not cand:
                return -1
            red = self._reduced_to_slots(payload, cand)
            return self._center_cluster[cand[int(np.argmin(red))]]
        red = self._reduced_to_slots(payload, core_slots)
        pos = int(np.argmin(red))
        red_radius = self.metric.reduce_threshold(radius)
        if float(red[pos]) <= red_radius:
            return self._center_cluster[core_slots[pos]]
        return -1

    @property
    def n_clusters(self) -> int:
        """Number of clusters in the current view."""
        self._refresh_clusters()
        if not self._center_cluster:
            return 0
        return len(set(self._center_cluster.values()))

    @property
    def n_live_centers(self) -> int:
        """Live net centers (the memory footprint driver)."""
        return sum(self._slot_alive)

    @property
    def memory_points(self) -> int:
        """Stored payload slots (live + recyclable)."""
        return len(self._centers)

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
        Window granularity; expiry happens a bucket at a time, so the
        effective window length varies in
        ``[window - window/n_buckets, window]``.
    metric:
        Distance function over payloads (Euclidean default).
    index:
        Optional :mod:`repro.index` backend spec.  When set, a dynamic
        index over the live-center store answers every arrival /
        predict / cluster-refresh probe as a range query: new centers
        are inserted as they are allocated, and bucket expiry evicts
        the expired slots with one native ``delete_batch`` — no
        rebuild.  Clustering output is identical to the dense-scan
        path.
    evict_rebuild:
        A/B switch: ``True`` restores the rebuild-on-expiry eviction
        strategy (one full index rebuild over the survivors per expired
        bucket).  Labels are bit-identical either way;
        ``n_evict_rebuilds`` / ``n_evict_deletes`` count what ran.

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
        evict_rebuild: bool = False,
    ) -> None:
        super().__init__(eps, min_pts, rho, metric, index, evict_rebuild)
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

    # ------------------------------------------------------------------
    # Policy hooks

    def _pre_arrival(self) -> None:
        if self._in_bucket == 0:
            self._live_buckets.append(self._current_bucket)
            self._bucket_centers[self._current_bucket] = []
            while len(self._live_buckets) > self.n_buckets:
                self._expire_bucket(self._live_buckets.popleft())
        self._n_seen += 1
        self._in_bucket += 1
        self._clusters_dirty = True

    def _post_arrival(self) -> None:
        if self._in_bucket >= self.bucket_size:
            self._current_bucket += 1
            self._in_bucket = 0

    def _chunk_limit(self) -> int:
        # Chunks never span a bucket boundary, so expiry can only run
        # at chunk start and the chunk snapshot stays valid throughout.
        return self.bucket_size - self._in_bucket

    def _new_center(self, payload: Any) -> _LiveCenter:
        return _LiveCenter(payload, self._current_bucket)

    def _register_hit(self, slot: int) -> None:
        self._centers[slot].add(self._current_bucket)

    def _register_new(self, slot: int) -> None:
        self._centers[slot].add(self._current_bucket)
        self._bucket_centers[self._current_bucket].append(slot)

    def _is_core(self, slot: int) -> bool:
        return self._centers[slot].total_count >= self.min_pts

    # ------------------------------------------------------------------
    # Expiry

    def _expire_bucket(self, bucket: int) -> None:
        self._release_slots(self._bucket_centers.pop(bucket, []))
        for slot in self._alive_slots():
            self._centers[slot].expire(bucket)


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

    Both policies share the windowed model's slot store and optional
    neighbor index, including native ``delete_batch`` eviction
    (``evict_rebuild=True`` for the rebuild A/B).
    """

    _mid_chunk_releases = True  # wheel/pruning can fire inside a chunk

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
        evict_rebuild: bool = False,
    ) -> None:
        super().__init__(eps, min_pts, rho, metric, index, evict_rebuild)
        if (ttl is None) == (decay is None):
            raise ValueError("exactly one of ttl / decay must be set")
        if ttl is not None:
            self.ttl: Optional[int] = self._check_ttl(ttl)
            self.decay: Optional[float] = None
        else:
            self.ttl = None
            self.decay = float(decay)
            if not np.isfinite(self.decay) or self.decay <= 0.0:
                raise ValueError(f"decay must be a positive rate, got {decay}")
        self.min_weight = (
            float(min_weight) if min_weight is not None else float(self.min_pts)
        )
        self.prune_weight = float(prune_weight)
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
        #: tick -> slots with an ε-hit contribution expiring then.
        self._hit_wheel: Dict[int, List[int]] = {}
        #: tick -> slots whose creating arrival expires then (center dies).
        self._death_wheel: Dict[int, List[int]] = {}
        self._tick_now = 0
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
            # ``_pre_arrival`` consumes the override; a rejected payload
            # must not leave it behind for the next arrival.
            self._ttl_override = None

    def _pre_arrival(self) -> None:
        tick = self._n_seen  # 0-based tick of the arrival being processed
        self._tick_now = tick
        if self.ttl is not None:
            # Ticks advance one by one, so popping exactly this tick
            # drains every due entry.  Stale wheel rows for recycled
            # slots are harmless: the new occupant's own expiries are
            # keyed by *its* ticks and ``pop(tick, 0)`` double-drains
            # to zero.
            for slot in self._hit_wheel.pop(tick, ()):
                center = self._centers[slot]
                if center is not None:
                    center.count -= center.expiries.pop(tick, 0)
            dead = [
                s for s in self._death_wheel.pop(tick, ()) if self._slot_alive[s]
            ]
            self._release_slots(dead)
        elif self._n_seen and self._n_seen % self.prune_interval == 0:
            self._prune_weak()
        self._arrival_ttl = (
            self._ttl_override if self._ttl_override is not None else self.ttl
        )
        self._ttl_override = None
        self._n_seen += 1
        self._clusters_dirty = True

    def _new_center(self, payload: Any) -> Any:
        if self.ttl is not None:
            return _TTLCenter(payload)
        return _DecayCenter(payload, self._tick_now)

    def _register_hit(self, slot: int) -> None:
        center = self._centers[slot]
        if self.ttl is not None:
            center.count += 1
            expiry = self._tick_now + self._arrival_ttl
            center.expiries[expiry] = center.expiries.get(expiry, 0) + 1
            self._hit_wheel.setdefault(expiry, []).append(slot)
        else:
            center.hit(self._tick_now, self.decay)

    def _register_new(self, slot: int) -> None:
        self._register_hit(slot)  # the creating arrival's self-hit
        if self.ttl is not None:
            expiry = self._tick_now + self._arrival_ttl
            self._death_wheel.setdefault(expiry, []).append(slot)

    def _is_core(self, slot: int) -> bool:
        center = self._centers[slot]
        if self.ttl is not None:
            return center.count >= self.min_pts
        return center.weight_at(self._query_tick, self.decay) >= self.min_weight

    @property
    def _query_tick(self) -> int:
        """Tick of the most recent arrival (weights are evaluated as of
        the last observed point)."""
        return max(0, self._n_seen - 1)

    def _prune_weak(self) -> None:
        tick = self._n_seen  # weight as of the arrival about to process
        dead = [
            s
            for s in self._alive_slots()
            if self._centers[s].weight_at(tick, self.decay) < self.prune_weight
        ]
        self._release_slots(dead)
