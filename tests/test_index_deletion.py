"""Deletion-parity suite for the dynamic-index layer.

The load-bearing contract mirrors the insertion discipline: an index
that has had points removed via ``delete_batch`` must answer every
query exactly as one built fresh over the survivors — brute row
compaction, grid cell removal and the cover tree's tombstones alike,
also when deleted ids come back with recycled payloads.  On top sit
the windowed eviction parity (every index setting gives the view of
the index-free per-arrival reference) and the TTL / decay forgetting
policies of :class:`DecayingApproxDBSCAN`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.windowed import DecayingApproxDBSCAN, WindowedApproxDBSCAN
from repro.datasets import make_blobs
from repro.index import build_index
from repro.metricspace import EditDistanceMetric, MetricDataset
from repro.metricspace.dataset import GrowingMetricDataset
from conftest import assert_csr_equal
from test_windowed_ingest import canonical, index_free_view

BACKENDS = ["brute", "grid", "covertree"]
#: Every ``REPRO_DEFAULT_INDEX`` setting the CI matrix exercises.
INDEX_SETTINGS = ["auto", "brute", "grid", "covertree"]


@pytest.fixture(scope="module")
def dataset():
    pts, _ = make_blobs(
        n=300, n_clusters=4, dim=4, std=0.6, spread=7.0,
        outlier_fraction=0.1, seed=3,
    )
    return MetricDataset(pts)


def _assert_matches_fresh(index, fresh, n):
    queries = np.arange(0, n, 7)
    for radius in (0.4, 1.5, 5.0, np.linspace(0.3, 4.0, len(queries))):
        assert_csr_equal(
            index.range_query_batch_csr(queries, radius),
            fresh.range_query_batch_csr(queries, radius),
            atol=1e-9,
        )
    assert_csr_equal(
        index.range_query_batch_csr(queries, 1.5, with_distances=False),
        fresh.range_query_batch_csr(queries, 1.5, with_distances=False),
    )
    payloads = [index.dataset.point(int(q)) for q in queries[:5]]
    assert_csr_equal(
        index.range_query_points_csr(payloads, 1.5),
        fresh.range_query_points_csr(payloads, 1.5),
        atol=1e-9,
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestDeletedEqualsFresh:
    def test_out_of_order_delete_matches_fresh(self, dataset, backend):
        rng = np.random.default_rng(7)
        drop = rng.permutation(dataset.n)[:90]  # unsorted ids
        index = build_index(backend, dataset, radius_hint=1.5)
        index.delete_batch(drop)
        survivors = np.setdiff1d(np.arange(dataset.n), drop)
        assert index.n_stored == survivors.size
        fresh = build_index(backend, dataset, indices=survivors, radius_hint=1.5)
        _assert_matches_fresh(index, fresh, dataset.n)

    def test_delete_then_reinsert_matches_full(self, dataset, backend):
        rng = np.random.default_rng(8)
        drop = rng.permutation(dataset.n)[:60]
        index = build_index(backend, dataset, radius_hint=1.5)
        index.delete_batch(drop)
        index.insert_batch(drop)
        assert index.n_stored == dataset.n
        fresh = build_index(backend, dataset, radius_hint=1.5)
        _assert_matches_fresh(index, fresh, dataset.n)

    def test_interleaved_rounds_match_fresh(self, dataset, backend):
        rng = np.random.default_rng(9)
        index = build_index(
            backend, dataset, indices=np.arange(150), radius_hint=1.5
        )
        stored = set(range(150))
        for round_seed in range(4):
            gone = rng.choice(sorted(stored), size=30, replace=False)
            index.delete_batch(gone)
            stored -= set(int(g) for g in gone)
            fresh_ids = rng.choice(
                np.setdiff1d(np.arange(dataset.n), sorted(stored)),
                size=25, replace=False,
            )
            index.insert_batch(fresh_ids)
            stored |= set(int(f) for f in fresh_ids)
        fresh = build_index(
            backend, dataset, indices=sorted(stored), radius_hint=1.5
        )
        _assert_matches_fresh(index, fresh, dataset.n)

    def test_delete_to_empty_then_insert(self, dataset, backend):
        index = build_index(
            backend, dataset, indices=np.arange(40), radius_hint=1.5
        )
        index.delete_batch(np.arange(40))
        assert index.n_stored == 0
        empty = index.range_query_batch_csr(np.arange(6), 2.0)
        np.testing.assert_array_equal(empty.offsets, np.zeros(7))
        assert empty.ids.size == 0 and empty.dists.size == 0
        index.insert_batch([5, 1, 3])
        ids, _ = index.range_query_batch_csr([1], 1e9).row(0)
        np.testing.assert_array_equal(ids, [1, 3, 5])

    def test_recycled_payloads_match_fresh(self, dataset, backend):
        """Deleted ids whose payloads are overwritten and re-inserted
        (the windowed models' slot recycling) answer like a fresh
        build over the new payloads."""
        rng = np.random.default_rng(10)
        vectors = np.asarray(dataset.points)
        rounds = [(GrowingMetricDataset(), list(vectors), list(-vectors[:75]))]
        if backend != "grid":  # the grid serves vector metrics only
            words = [
                "".join(rng.choice(list("abcd"), size=int(rng.integers(2, 9))))
                for _ in range(160)
            ]
            rounds.append(
                (GrowingMetricDataset(EditDistanceMetric()), words[:120], words[120:])
            )
        for store, payloads, replacements in rounds:
            store.extend(payloads)
            # A quarter of the ids: the cover tree keeps them as
            # tombstones (more than half of its points stay live).
            recycled = rng.permutation(store.n)[: store.n // 4]
            index = build_index(backend, store, radius_hint=1.5)
            index.delete_batch(recycled)
            for slot, payload in zip(recycled, replacements):
                store.set(int(slot), payload)
            index.insert_batch(recycled)
            fresh = build_index(backend, store, radius_hint=1.5)
            _assert_matches_fresh(index, fresh, store.n)


class TestValidation:
    def test_unbuilt_raises(self, dataset):
        from repro.index.brute import BruteForceIndex

        with pytest.raises(RuntimeError):
            BruteForceIndex().delete_batch([0])

    def test_duplicate_ids_raise(self, dataset):
        index = build_index("brute", dataset, radius_hint=1.5)
        with pytest.raises(ValueError, match="duplicate"):
            index.delete_batch([3, 3])

    def test_unstored_ids_raise(self, dataset):
        index = build_index(
            "grid", dataset, indices=np.arange(100), radius_hint=1.5
        )
        with pytest.raises(ValueError, match="not stored"):
            index.delete_batch([5, 250])

    def test_empty_delete_is_noop(self, dataset):
        index = build_index("brute", dataset, radius_hint=1.5)
        index.delete_batch(np.empty(0, dtype=np.intp))
        assert index.n_stored == dataset.n


class TestCoverTreeTombstones:
    def test_tombstones_visible_until_compaction(self, dataset):
        index = build_index(
            "covertree", dataset, indices=np.arange(100), radius_hint=1.5
        )
        index.delete_batch(np.arange(0, 100, 3))  # 34 of 100: above half
        assert index.tombstones.size == 34
        ids, _ = index.range_query_batch_csr([1], 1e9).row(0)
        assert not np.isin(ids, np.arange(0, 100, 3)).any()
        # Masked, not rebuilt: the tree still holds the deleted ids.
        assert index.tombstones.size == 34
        assert index.tree.size == 100

    def test_compaction_below_live_fraction(self, dataset):
        index = build_index(
            "covertree", dataset, indices=np.arange(100), radius_hint=1.5
        )
        index.delete_batch(np.arange(60))  # live fraction 0.4 < 0.5
        assert index.tombstones.size == 0  # the delete rebuilt the tree
        assert index.tree.size == 40

    def test_rebuild_keeps_lifetime_build_cost(self, dataset):
        index = build_index(
            "covertree", dataset, indices=np.arange(50), radius_hint=1.5
        )
        assert index.counters()["n_rebuilds"] == 0
        index.insert_batch(np.arange(50, 120))
        grown = index.counters()["n_build_evals"]
        index.delete_batch(np.arange(70))  # live fraction 50/120 < 0.5
        counters = index.counters()
        assert counters["n_rebuilds"] == 1
        assert counters["n_build_evals"] > grown


@pytest.mark.parametrize("setting", INDEX_SETTINGS)
class TestWindowedEvictionParity:
    """Every ``REPRO_DEFAULT_INDEX`` setting the CI matrix runs gives
    the windowed, TTL and decay views of the index-free per-arrival
    reference (the cover tree may recycle slots in another order, so
    cluster ids are compared as a partition)."""

    MODELS = {
        "windowed": lambda index: WindowedApproxDBSCAN(
            1.2, 5, rho=0.5, window=200, n_buckets=5, index=index
        ),
        "ttl": lambda index: DecayingApproxDBSCAN(
            1.2, 5, rho=0.5, ttl=150, index=index
        ),
        "decay": lambda index: DecayingApproxDBSCAN(
            1.2, 5, rho=0.5, decay=0.03, index=index
        ),
    }

    QUERIES = [np.array([x, 0.0]) for x in np.linspace(-2.0, 14.0, 12)]

    def _stream(self):
        rng = np.random.default_rng(17)
        return [rng.normal([step / 40.0, 0.0], 0.25) for step in range(500)]

    def _run(self, model):
        model.insert_many(self._stream())
        labels = [model.predict(q) for q in self.QUERIES]
        return model, (labels, model.n_clusters, model.n_live_centers)

    def test_indexed_matches_dense_model(self, monkeypatch, setting):
        monkeypatch.setenv("REPRO_DEFAULT_INDEX", setting)
        for make in self.MODELS.values():
            indexed, (labels, k, live) = self._run(make(setting))
            want, want_k, want_live = index_free_view(
                make(setting), self._stream(), self.QUERIES
            )
            assert (canonical(labels), k, live) == (canonical(want), want_k, want_live)
            assert indexed.n_evict_deletes > 0
            assert "evict_index" in indexed.timings.phases

    def test_index_tracks_live_centers(self, monkeypatch, setting):
        monkeypatch.setenv("REPRO_DEFAULT_INDEX", setting)
        model, _ = self._run(self.MODELS["windowed"](setting))
        assert model._index is not None
        assert model._index.n_stored == model.n_live_centers


class TestDecayingTTL:
    STREAM_SEED = 23

    def _stream(self, n=450):
        rng = np.random.default_rng(self.STREAM_SEED)
        return [rng.normal([step / 40.0, 0.0], 0.25) for step in range(n)]

    QUERIES = [np.array([x, 0.0]) for x in np.linspace(-2.0, 12.0, 12)]

    def _view(self, model):
        return (
            [model.predict(q) for q in self.QUERIES],
            model.n_clusters,
            model.n_live_centers,
        )

    def test_uniform_ttl_matches_one_point_buckets(self):
        stream = self._stream()
        window = 100
        for index in (None, "grid"):
            ref = WindowedApproxDBSCAN(
                1.2, 5, rho=0.5, window=window, n_buckets=window, index=index
            )
            for p in stream:
                ref.insert(p)
            model = DecayingApproxDBSCAN(1.2, 5, rho=0.5, ttl=window, index=index)
            model.insert_many(stream)
            assert self._view(model) == self._view(ref)

    def test_insert_many_matches_insert_loop(self):
        stream = self._stream(300)
        for kwargs in ({"ttl": 80}, {"decay": 0.02}):
            looped = DecayingApproxDBSCAN(1.2, 5, rho=0.5, index="grid", **kwargs)
            for p in stream:
                looped.insert(p)
            batched = DecayingApproxDBSCAN(1.2, 5, rho=0.5, index="grid", **kwargs)
            batched.insert_many(stream)
            assert self._view(batched) == self._view(looped)

    def test_per_point_ttl_outlives_the_default(self):
        model = DecayingApproxDBSCAN(1.0, 2, rho=0.5, ttl=5)
        anchor = np.array([100.0, 100.0])
        model.insert(anchor, ttl=10_000)
        model.insert(anchor + [0.2, 0.0], ttl=10_000)
        for p in self._stream(200):
            model.insert(p)
        assert model.predict(np.array([100.1, 100.0])) >= 0
        # Default-lifetime points from 200 arrivals ago are long gone.
        assert model.predict(np.array([0.0, 0.0])) == -1

    def test_decay_forgets_abandoned_region(self):
        stream = self._stream()
        model = DecayingApproxDBSCAN(1.2, 5, rho=0.5, decay=0.01, index="grid")
        model.insert_many(stream)
        assert model.predict(np.array([-1.5, 0.0])) == -1  # decayed away
        assert model.predict(np.array([11.0, 0.0])) >= 0  # current region

    def test_decay_indexed_matches_dense(self):
        stream = self._stream(350)
        for backend in BACKENDS:
            model = DecayingApproxDBSCAN(1.2, 5, rho=0.5, decay=0.015, index=backend)
            want, want_k, want_live = index_free_view(model, stream, self.QUERIES)
            model.insert_many(stream)
            labels, k, live = self._view(model)
            assert (canonical(labels), k, live) == (canonical(want), want_k, want_live)

    def test_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            DecayingApproxDBSCAN(1.0, 3)
        with pytest.raises(ValueError, match="exactly one"):
            DecayingApproxDBSCAN(1.0, 3, ttl=10, decay=0.1)
        with pytest.raises(ValueError, match="ttl"):
            DecayingApproxDBSCAN(1.0, 3, ttl=0)
        with pytest.raises(ValueError, match="decay"):
            DecayingApproxDBSCAN(1.0, 3, decay=-1.0)
        with pytest.raises(ValueError, match="per-point ttl"):
            DecayingApproxDBSCAN(1.0, 3, decay=0.1).insert(
                np.array([0.0, 0.0]), ttl=5
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["min_weight", "prune_weight"])
    def test_rejects_bad_weights(self, name, bad):
        """A NaN ``min_weight`` would make no center core, and a NaN or
        negative ``prune_weight`` would turn pruning off."""
        with pytest.raises(ValueError, match=name):
            DecayingApproxDBSCAN(1.0, 3, decay=0.01, **{name: bad})
