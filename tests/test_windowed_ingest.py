"""The epoch ingest of the forgetting models against a per-arrival
reference maintainer.

:class:`PerArrivalReference` is the straightforward ingest the epoch
loop of :mod:`repro.core.windowed` replaces: every arrival expires what
is due, probes the live centers (one range query of an index built on
the model's spec, or, index-free, one scan of every live center),
registers its ε-hits center by center in dict-based state, and — when
nothing lies within r̄ — stores a new center in a free slot and inserts
it into the index at once.  Its reads (cluster refresh, ``predict``)
follow the model's documented semantics.

The property: for random streams cut at random into ``insert_many``
calls and single ``insert``s, every read, ``n_clusters``,
``n_live_centers``, ``memory_points``, the slot assignment and every
live slot's counts (windowed, TTL) or weight (decay) equal the indexed
reference's after each call, and the partition the reads induce, the
cluster count and the live-center count equal the index-free
reference's, which builds no index and so cannot share a backend's
mistake.
"""

from __future__ import annotations

import tracemalloc
from collections import deque
from typing import Any, Dict, List, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.windowed as windowed_module
from repro.core.windowed import DecayingApproxDBSCAN, WindowedApproxDBSCAN
from repro.datasets import make_blobs
from repro.index.registry import build_index
from repro.metricspace import EditDistanceMetric
from repro.metricspace.dataset import GrowingMetricDataset
from repro.utils.components import component_labels

INDEXES = [None, "brute", "grid", "covertree"]


class PerArrivalReference:
    """Per-arrival maintainer with the configuration of ``model``: on an
    index built from ``model.index`` (``None`` resolving to the process
    default, as in the model), or with ``index_free=True`` on dense
    scans (a ``reduced_distance_many`` over every live center per
    arrival, a certified block per refresh)."""

    def __init__(self, model, index_free: bool = False) -> None:
        self.cfg = model
        self.index_free = index_free
        self.metric = model.metric
        self.red_eps = self.metric.reduce_threshold(model.eps)
        self.red_r = self.metric.reduce_threshold(model.r_bar)
        self.probe = max(model.eps, model.r_bar)
        self.store = GrowingMetricDataset(self.metric)
        #: Per slot: bucket -> count (windowed), [count, {expiry: n}]
        #: (TTL) or [weight, tick] (decay); None once released.
        self.state: List[Any] = []
        self.free: List[int] = []
        self.quarantined: List[int] = []
        self.index = None
        self.n_seen = 0
        self.dirty = True
        self.cluster: Dict[int, int] = {}
        self.windowed = isinstance(model, WindowedApproxDBSCAN)
        self.ttl = None if self.windowed else model.ttl
        if self.windowed:
            self.live_buckets: deque = deque()
            self.bucket_centers: Dict[int, List[int]] = {}
            self.bucket = 0
            self.in_bucket = 0
        self.hit_wheel: Dict[int, List[int]] = {}
        self.death_wheel: Dict[int, List[int]] = {}

    # -- ingest --------------------------------------------------------

    def alive(self) -> List[int]:
        return [s for s, c in enumerate(self.state) if c is not None]

    def insert(self, payload: Any, ttl: Optional[int] = None) -> None:
        tick = self.n_seen
        self.expire(tick)
        self.arrival_ttl = ttl if ttl is not None else self.ttl
        self.n_seen += 1
        self.dirty = True
        if self.index_free:
            slots = self.alive()
        elif self.index is None:
            slots = []
        else:
            hits = self.index.range_query_points_csr(
                [payload], self.probe, with_distances=False
            ).ids
            slots = [int(s) for s in hits]
        red = (
            self.metric.reduced_distance_many(payload, self.store.gather(slots))
            if slots
            else np.empty(0)
        )
        for k in np.flatnonzero(red <= self.red_eps):
            self.hit(slots[int(k)], tick)
        if (red.min() if red.size else np.inf) > self.red_r:
            self.allocate(payload, tick)
        if self.windowed:
            self.in_bucket += 1
            if self.in_bucket >= self.cfg.bucket_size:
                self.bucket += 1
                self.in_bucket = 0

    def expire(self, tick: int) -> None:
        if self.windowed:
            if self.in_bucket == 0:
                self.live_buckets.append(self.bucket)
                self.bucket_centers[self.bucket] = []
                while len(self.live_buckets) > self.cfg.n_buckets:
                    old = self.live_buckets.popleft()
                    self.release(self.bucket_centers.pop(old))
                    for c in self.state:
                        if c is not None:
                            c.pop(old, None)
        elif self.ttl is not None:
            for slot in self.hit_wheel.pop(tick, ()):
                c = self.state[slot]
                if c is not None:
                    c[0] -= c[1].pop(tick, 0)
            self.release(self.death_wheel.pop(tick, []))
        elif tick and tick % self.cfg.prune_interval == 0:
            self.release(
                [s for s in self.alive() if self.weight_at(s, tick) < self.cfg.prune_weight]
            )

    def hit(self, slot: int, tick: int) -> None:
        c = self.state[slot]
        if self.windowed:
            c[self.bucket] = c.get(self.bucket, 0) + 1
        elif self.ttl is not None:
            c[0] += 1
            expiry = tick + self.arrival_ttl
            c[1][expiry] = c[1].get(expiry, 0) + 1
            self.hit_wheel.setdefault(expiry, []).append(slot)
        else:
            c[0] = self.weight_at(slot, tick) + 1.0
            c[1] = tick

    def weight_at(self, slot: int, tick: int) -> float:
        weight, last = self.state[slot]
        if tick <= last:
            return weight
        return weight * 2.0 ** (-self.cfg.decay * (tick - last))

    def allocate(self, payload: Any, tick: int) -> None:
        if self.windowed:
            center: Any = {}
        elif self.ttl is not None:
            center = [0, {}]
        else:
            center = [0.0, tick]
        if not self.free:
            self.reclaim()
        if self.free:
            slot = self.free.pop()
            self.state[slot] = center
            self.store.set(slot, payload)
        else:
            slot = self.store.append(payload)
            self.state.append(center)
        if not self.index_free:
            if self.index is None:
                self.index = build_index(
                    self.cfg.index, self.store, indices=[slot], radius_hint=self.probe
                )
            else:
                self.index.insert(slot)
        self.hit(slot, tick)  # the creating arrival's self-hit
        if self.windowed:
            self.bucket_centers[self.bucket].append(slot)
        elif self.ttl is not None:
            self.death_wheel.setdefault(tick + self.arrival_ttl, []).append(slot)

    def release(self, slots: List[int]) -> None:
        if not slots:
            return
        for s in slots:
            self.state[s] = None
        if self.index_free:
            self.free.extend(slots)
        else:
            self.index.delete_batch(np.asarray(sorted(slots), dtype=np.intp))
            if self.index.n_stored == 0:
                self.index = None
            self.quarantined.extend(slots)
            self.reclaim()

    def reclaim(self) -> None:
        tombs = getattr(self.index, "tombstones", None) if self.index else None
        if tombs is None or len(tombs) == 0:
            self.free.extend(self.quarantined)
            self.quarantined = []
            return
        q = np.asarray(self.quarantined, dtype=np.intp)
        blocked = np.isin(q, tombs)
        self.free.extend(int(s) for s in q[~blocked])
        self.quarantined = [int(s) for s in q[blocked]]

    # -- reads ---------------------------------------------------------

    def is_core(self, slot: int) -> bool:
        c = self.state[slot]
        if self.windowed:
            return sum(c.values()) >= self.cfg.min_pts
        if self.ttl is not None:
            return c[0] >= self.cfg.min_pts
        return self.weight_at(slot, max(0, self.n_seen - 1)) >= self.cfg.min_weight

    def refresh(self) -> None:
        if not self.dirty:
            return
        core = [s for s in self.alive() if self.is_core(s)]
        threshold = (1.0 + self.cfg.rho) * self.cfg.eps
        rows = cols = np.empty(0, dtype=np.int64)
        if len(core) > 1 and self.index is not None:
            csr = self.index.range_query_batch_csr(
                np.asarray(core, dtype=np.intp), threshold, with_distances=False
            )
            pos_of = {s: k for k, s in enumerate(core)}
            pairs = [
                (r, pos_of.get(int(s), -1))
                for r, s in zip(csr.query_rows().tolist(), csr.ids.tolist())
            ]
            edges = [(r, c) for r, c in pairs if c > r]
            if edges:
                rows, cols = map(np.asarray, zip(*edges))
        elif len(core) > 1:
            batch = self.store.gather(core)
            mask = self.metric.cross_certified(batch, batch, threshold)
            rows, cols = np.nonzero(np.triu(mask, 1))
        labels = component_labels(len(core), rows, cols)
        self.cluster = dict(zip(core, labels.tolist()))
        self.dirty = False

    def predict(self, payload: Any) -> int:
        self.refresh()
        if not self.cluster:
            return -1
        radius = (1.0 + self.cfg.rho / 2.0) * self.cfg.eps
        if self.index is not None:
            hits = self.index.range_query_points_csr(
                [payload], radius, with_distances=False
            ).ids
            cand = [int(s) for s in hits if int(s) in self.cluster]
            if not cand:
                return -1
            red = self.metric.reduced_distance_many(payload, self.store.gather(cand))
            return self.cluster[cand[int(np.argmin(red))]]
        core = list(self.cluster)
        red = self.metric.reduced_distance_many(payload, self.store.gather(core))
        pos = int(np.argmin(red))
        if red[pos] <= self.metric.reduce_threshold(radius):
            return self.cluster[core[pos]]
        return -1

    def n_clusters(self) -> int:
        self.refresh()
        return len(set(self.cluster.values()))


def assert_same_state(model, ref: PerArrivalReference, queries) -> None:
    """Every read and every live slot's support match the reference."""
    assert model.n_seen == ref.n_seen
    assert model.memory_points == len(ref.store)
    live = ref.alive()
    assert model.n_live_centers == len(live)
    assert np.flatnonzero(model._alive[: model.memory_points]).tolist() == live
    for slot in live:
        want = ref.state[slot]
        if ref.windowed:
            row = model._counts[slot]
            got = {b: int(row[b % model.n_buckets]) for b in ref.live_buckets}
            assert got == {b: want.get(b, 0) for b in ref.live_buckets}
        elif ref.ttl is not None:
            center = model._state[slot]
            assert (center.count, center.expiries) == (want[0], want[1])
        else:
            center = model._state[slot]
            assert (center.weight, center.tick) == (want[0], want[1])
    assert [model.predict(q) for q in queries] == [ref.predict(q) for q in queries]
    assert model.n_clusters == ref.n_clusters()


def assert_same_partition(model, ref: PerArrivalReference, queries) -> None:
    """The reads induce the reference's partition, and the cluster and
    live-center counts match (slots may differ: the cover tree
    quarantines them)."""
    assert model.n_live_centers == len(ref.alive())
    assert model.n_clusters == ref.n_clusters()
    assert canonical([model.predict(q) for q in queries]) == canonical(
        [ref.predict(q) for q in queries]
    )


def index_free_view(model, stream, queries):
    """The predictions for ``queries``, the cluster count and the
    live-center count of the index-free reference with ``model``'s
    configuration after ``stream``."""
    ref = PerArrivalReference(model, index_free=True)
    for p in stream:
        ref.insert(p)
    return [ref.predict(q) for q in queries], ref.n_clusters(), len(ref.alive())


def replay(model, stream, calls, queries) -> None:
    """Feed ``stream`` to ``model`` and both references through
    ``calls`` — ``(stop, single, ttl)``: rows up to ``stop`` in one
    ``insert_many`` or as single ``insert``s (with an optional
    per-point ``ttl``) — comparing after every call: the whole state
    with the indexed reference, the partition with the index-free one."""
    refs = [PerArrivalReference(model), PerArrivalReference(model, index_free=True)]
    start = 0
    for stop, single, ttl in calls:
        part = stream[start:stop]
        start = stop
        if single:
            for p in part:
                if ttl is None:
                    model.insert(p)
                else:
                    model.insert(p, ttl=ttl)
                for ref in refs:
                    ref.insert(p, ttl)
        else:
            model.insert_many(part)
            for ref in refs:
                for p in part:
                    ref.insert(p)
        assert_same_state(model, refs[0], queries)
        assert_same_partition(model, refs[1], queries)


@st.composite
def streams(draw):
    """Tight blobs plus far outliers: births range from a few percent
    of arrivals (no outliers) to every arrival (all outliers)."""
    dim = draw(st.sampled_from([1, 2, 5]))
    n = draw(st.integers(1, 400))
    outliers = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.uniform(-6.0, 6.0, size=(int(rng.integers(1, 5)), dim))
    pts = centers[rng.integers(0, len(centers), n)] + rng.normal(0.0, 0.1, (n, dim))
    far = rng.random(n) < outliers
    pts[far] = rng.uniform(-1000.0, 1000.0, (int(far.sum()), dim))
    queries = np.vstack([pts[rng.integers(0, n, 6)], np.full((1, dim), 5000.0)])
    return pts, queries


@st.composite
def call_plans(draw, n: int, overrides: bool = False):
    cuts = sorted(set(draw(st.lists(st.integers(1, n), max_size=6))) | {n})
    plan = []
    for stop in cuts:
        single = draw(st.booleans())
        ttl = draw(st.one_of(st.none(), st.integers(1, 80))) if single and overrides else None
        plan.append((stop, single, ttl))
    return plan


MODEL_SETTINGS = dict(max_examples=30, deadline=None)


@given(data=st.data(), stream=streams())
@settings(**MODEL_SETTINGS)
def test_windowed_matches_per_arrival(data, stream):
    pts, queries = stream
    window = data.draw(st.integers(1, 120), label="window")
    model = WindowedApproxDBSCAN(
        1.0, data.draw(st.integers(2, 6), label="min_pts"),
        rho=data.draw(st.sampled_from([0.5, 1.0]), label="rho"),
        window=window,
        n_buckets=data.draw(st.integers(1, window), label="n_buckets"),
        index=data.draw(st.sampled_from(INDEXES), label="index"),
    )
    replay(model, pts, data.draw(call_plans(len(pts))), queries)


@given(data=st.data(), stream=streams())
@settings(**MODEL_SETTINGS)
def test_ttl_matches_per_arrival(data, stream):
    pts, queries = stream
    model = DecayingApproxDBSCAN(
        1.0, data.draw(st.integers(2, 6), label="min_pts"), rho=0.5,
        # Below and above the chunk lengths the stream cuts allow.
        ttl=data.draw(st.one_of(st.integers(1, 8), st.integers(9, 300)), label="ttl"),
        index=data.draw(st.sampled_from(INDEXES), label="index"),
    )
    replay(model, pts, data.draw(call_plans(len(pts), overrides=True)), queries)


@given(data=st.data(), stream=streams())
@settings(**MODEL_SETTINGS)
def test_decay_matches_per_arrival(data, stream):
    pts, queries = stream
    model = DecayingApproxDBSCAN(
        1.0, 3, rho=0.5,
        decay=data.draw(st.sampled_from([0.005, 0.05, 0.3]), label="decay"),
        min_weight=data.draw(st.sampled_from([None, 1.5]), label="min_weight"),
        prune_weight=data.draw(st.sampled_from([0.5, 2.0]), label="prune_weight"),
        prune_interval=data.draw(st.integers(1, 50), label="prune_interval"),
        index=data.draw(st.sampled_from(INDEXES), label="index"),
    )
    replay(model, pts, data.draw(call_plans(len(pts))), queries)


@pytest.mark.parametrize("index", INDEXES)
def test_short_ttl_hits_expire_inside_a_chunk(index):
    """With a uniform TTL a center outlives every hit it takes; only
    per-point overrides make hits expire while their center lives.
    Here they fall on later ticks of the next ``insert_many`` chunk,
    which applies them when it starts."""
    rng = np.random.default_rng(3)
    pts = rng.normal(0.0, 0.1, size=(120, 2))
    model = DecayingApproxDBSCAN(1.0, 3, rho=0.5, ttl=100, index=index)
    plan = [(10, False, None), (20, True, 3), (60, False, None), (120, False, None)]
    replay(model, pts, plan, np.zeros((1, 2)))


def test_covertree_compacts_between_a_death_and_a_birth_of_one_chunk():
    """An anchor center outlives ten isolated ones that die at ticks
    21-30, inside the one chunk of the last ``insert_many`` call: the
    sixth death leaves the tree below half live, so that delete rebuilds
    it and frees the quarantined slots, and the call's later births
    take them, as in the per-arrival loop."""
    anchor = np.array([-1000.0, 0.0])
    stream = np.vstack([
        [anchor],
        np.c_[100.0 * np.arange(1, 11), np.zeros(10)],  # ticks 1-10
        np.repeat([anchor], 16, axis=0),  # ticks 11-26: hits, no births
        np.c_[5000.0 + 100.0 * np.arange(14), np.zeros(14)],  # ticks 27-40
    ])
    model = DecayingApproxDBSCAN(1.0, 2, rho=0.5, ttl=20, index="covertree")
    plan = [(1, True, 10_000), (21, False, None), (41, False, None)]
    replay(model, stream, plan, stream[[0, 5, 30, 40]])
    assert model._index.counters()["n_rebuilds"] >= 1
    assert model.memory_points < 25  # births recycled released slots


EDIT_MODELS = {
    "windowed": lambda index: WindowedApproxDBSCAN(
        2.0, 3, rho=1.0, window=40, n_buckets=5,
        metric=EditDistanceMetric(), index=index,
    ),
    "ttl": lambda index: DecayingApproxDBSCAN(
        2.0, 3, rho=1.0, ttl=30, metric=EditDistanceMetric(), index=index
    ),
    "decay": lambda index: DecayingApproxDBSCAN(
        2.0, 3, rho=1.0, decay=0.05, prune_interval=7,
        metric=EditDistanceMetric(), index=index,
    ),
}


@pytest.mark.parametrize("index", [None, "brute", "covertree"])
@pytest.mark.parametrize("kind", sorted(EDIT_MODELS))
def test_edit_distance_stream_matches_per_arrival(kind, index):
    """Non-vector payloads run through the same epoch loop."""
    rng = np.random.default_rng(7)
    bases = ["kitten", "sitting", "flaw", "lawn", "abcdefgh"]
    stream = []
    for _ in range(150):
        word = list(bases[int(rng.integers(len(bases)))])
        for _ in range(int(rng.integers(0, 3))):
            word[int(rng.integers(len(word)))] = "xyz"[int(rng.integers(3))]
        stream.append("".join(word))
    queries = bases + ["zzzzzzzzzzzzzz"]
    plan = [(30, False, None), (45, True, None), (150, False, None)]
    replay(EDIT_MODELS[kind](index), stream, plan, queries)


# -- reads and counters ------------------------------------------------


def canonical(labels) -> List[int]:
    """Cluster ids renumbered by first appearance (noise stays -1): the
    partition a list of predictions induces, whatever the slot order."""
    first: Dict[int, int] = {}
    return [-1 if x < 0 else first.setdefault(x, len(first)) for x in labels]


@pytest.mark.parametrize("index", INDEXES)
def test_predict_never_reads_the_index(index):
    """``predict`` scans the core payloads the last refresh gathered: it
    leaves the index's counters and the store's evaluations untouched."""
    rng = np.random.default_rng(0)
    pts = rng.normal(0.0, 1.0, (1500, 2)) + np.c_[np.arange(1500) / 200.0, np.zeros(1500)]
    model = WindowedApproxDBSCAN(0.3, 8, rho=0.5, window=600, n_buckets=6, index=index)
    model.insert_many(pts)
    assert model.n_clusters > 0  # the refresh runs here
    assert model._index is not None

    def snapshot():
        store = model._store
        index_counters = model._index.counters() if model._index is not None else None
        return (
            index_counters, store.n_cross_evals, store.n_cross_blocks,
            dict(model.timings.counters),
        )

    before = snapshot()
    preds = [model.predict(q) for q in pts[-100:]]
    assert snapshot() == before
    assert max(preds) >= 0


@pytest.mark.parametrize("index", INDEXES)
def test_reads_follow_recycled_slots(index):
    """A bucket expires between two reads and the next region's births
    take its slots with new payloads: the second read answers from the
    new payloads, as the per-arrival reference does."""
    # On this seed the cover tree compacts in time to recycle slots too.
    rng = np.random.default_rng(14)
    first = rng.normal([0.0, 0.0], 0.3, (40, 2))
    second = rng.normal([10.0, 0.0], 0.3, (20, 2))
    queries = np.array([[0.0, 0.0], [10.0, 0.0], [0.4, 0.2], [5.0, 0.0]])
    model = WindowedApproxDBSCAN(1.0, 3, rho=0.5, window=40, n_buckets=4, index=index)
    ref = PerArrivalReference(model)
    model.insert_many(first)
    for p in first:
        ref.insert(p)
    assert_same_state(model, ref, queries)
    assert model.predict(queries[1]) == -1
    slots = model.memory_points
    old = model._store.gather(np.arange(slots)).copy()
    model.insert_many(second)
    for p in second:
        ref.insert(p)
    assert_same_state(model, ref, queries)
    assert model.predict(queries[1]) >= 0
    # Some of the second region's centers took the first region's slots.
    recycled = model._store.gather(np.arange(slots))[:, 0] > 5.0
    assert recycled.any() and not (old[:, 0] > 5.0).any()


@pytest.mark.parametrize("index", ["brute", "grid", "covertree", "auto"])
def test_reads_at_gram_block_sizes_match_index_free(index):
    """With more than 2,048 live 16-d centers a one-query index probe
    would decide on gram/cascade blocks instead of the difference
    kernel.  Reads scan the core payloads under every setting, so each
    one predicts what the index-free reference does (the cover tree
    recycles slots in another order, so its cluster ids may be a
    relabeling)."""
    pts, _ = make_blobs(
        n=2300, n_clusters=8, dim=16, std=0.5, spread=30.0,
        outlier_fraction=0.05, seed=0,
    )
    eps = 0.9 * 0.5 * np.sqrt(32.0)
    model = WindowedApproxDBSCAN(
        eps, 10, rho=0.5, window=2200, n_buckets=25, index=index
    )
    for lo in range(0, len(pts), 250):
        model.insert_many(pts[lo : lo + 250])
    assert model.n_live_centers > 2048
    want, want_k, _ = index_free_view(model, pts, pts[-300:])
    got, got_k = [model.predict(q) for q in pts[-300:]], model.n_clusters
    assert got_k == want_k
    assert canonical(got) == canonical(want)
    if index != "covertree":
        assert got == want
    assert sum(p >= 0 for p in want) > 200


FORGETTING_MODELS = {
    "windowed": lambda index: WindowedApproxDBSCAN(
        0.3, 4, rho=0.5, window=100, n_buckets=4, index=index
    ),
    "ttl": lambda index: DecayingApproxDBSCAN(0.3, 4, rho=0.5, ttl=100, index=index),
    "decay": lambda index: DecayingApproxDBSCAN(
        0.3, 4, rho=0.5, decay=0.05, prune_weight=1.5, prune_interval=10,
        index=index,
    ),
}


def emptying_stream() -> np.ndarray:
    """A blob inside one r̄-ball (its first arrival is the only center
    until the window or the TTL releases it), a drifting stretch, then
    isolated points far apart (weak centers that the decay model prunes
    along with the decayed drift centers)."""
    rng = np.random.default_rng(5)
    blob = rng.normal(0.0, 0.01, (300, 2))
    drift = rng.normal(0.0, 0.5, (600, 2)) + np.c_[np.arange(600) / 50.0, np.zeros(600)]
    isolated = np.c_[1000.0 + 10.0 * np.arange(200), np.zeros(200)]
    return np.vstack([blob, drift, isolated])


def feed_with_reads(model) -> None:
    """The emptying stream in calls of several sizes (one a single
    ``insert``), with a read after each, so refreshes run throughout."""
    pts = emptying_stream()
    start = 0
    for stop in (5, 150, 151, 400, 700, 905, 1000, len(pts)):
        if stop - start == 1:
            model.insert(pts[start])
        else:
            model.insert_many(pts[start:stop])
        start = stop
        model.predict(pts[stop - 1])


@pytest.mark.parametrize("index", INDEXES)
@pytest.mark.parametrize("kind", sorted(FORGETTING_MODELS))
def test_counters_equal_index_and_store_totals(kind, index, monkeypatch):
    """Ingest and refresh work both reach ``model.timings.counters``:
    the model's query and candidate counts are the totals of every index
    it built (an emptied index is dropped, so there are several), and
    its ``distance_evals`` the store's."""
    built = []

    def recording_build(*args, **kwargs):
        built.append(build_index(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(windowed_module, "build_index", recording_build)
    model = FORGETTING_MODELS[kind](index)
    feed_with_reads(model)
    assert len(built) > 1
    counters = model.timings.counters
    for key in ("n_range_queries", "n_candidates"):
        assert counters[key] == sum(idx.counters()[key] for idx in built), key
    assert counters["distance_evals"] == model._store.n_cross_evals > 0


DRIFT_MODELS = {
    "windowed": lambda index: WindowedApproxDBSCAN(
        0.3, 8, rho=0.5, window=1000, n_buckets=8, index=index
    ),
    "ttl": lambda index: DecayingApproxDBSCAN(0.3, 8, rho=0.5, ttl=1000, index=index),
    "decay": lambda index: DecayingApproxDBSCAN(
        0.3, 8, rho=0.5, decay=0.001, index=index
    ),
}


@pytest.mark.parametrize("offset", [1e5, 1e6])
@pytest.mark.parametrize("kind", sorted(DRIFT_MODELS))
def test_far_from_origin_stream_keeps_the_index_free_answer(kind, offset):
    """A drifting 2-d stream shifted far from the origin, where a
    gram-expanded snapshot loses distances to cancellation and births
    extra centers: every index setting keeps the index-free reference's
    live centers, clusters and prediction partition."""
    rng = np.random.default_rng(0)
    pts = rng.normal(0.0, 1.0, (3000, 2)) + np.c_[np.arange(3000) / 200.0, np.zeros(3000)]
    pts += offset
    ref = PerArrivalReference(DRIFT_MODELS[kind](None), index_free=True)
    for p in pts:
        ref.insert(p)
    for index in INDEXES:
        model = DRIFT_MODELS[kind](index)
        for lo in range(0, len(pts), 500):
            model.insert_many(pts[lo : lo + 500])
        assert_same_partition(model, ref, pts[-200:])


def test_refresh_takes_no_core_squared_block(monkeypatch):
    """A default model over a uniform 2-d window with more than 5,000
    core centers refreshes through the index's blocked range query: the
    first refresh's traced peak stays far below one |core|² float32
    block (~125 MB).  The process default is pinned to ``auto``, as
    without ``REPRO_DEFAULT_INDEX``; the cover tree's per-query
    traversal would take seconds under tracemalloc."""
    monkeypatch.setenv("REPRO_DEFAULT_INDEX", "auto")
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 1.0, (12_000, 2))
    model = WindowedApproxDBSCAN(0.01, 3, rho=0.5, window=12_000, n_buckets=25)
    model.insert_many(pts)
    tracemalloc.start()
    try:
        assert model.n_clusters > 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.n_core_centers > 5000
    assert peak < 40 << 20
