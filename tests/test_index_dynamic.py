"""Tests for the dynamic-index layer and its consumers.

The load-bearing contract is *incremental equivalence*: an index grown
via ``insert_batch`` must answer every range query exactly as one built
fresh over the union, for every backend — the Gonzalez loop, the
streaming passes and the windowed maintenance all rely on it.  On top
sit the auto-policy grid probe, the bulk cover-tree build, and the solver-level
regressions: Algorithm 1 materializes no dense ``|E|²`` matrix on any
path, streaming labels under every backend match the index-free
per-element reference bit for bit, and windowed labels under every
backend match the index-free per-arrival reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import StreamingApproxDBSCAN
from repro.core.gonzalez import radius_guided_gonzalez
from repro.core.windowed import WindowedApproxDBSCAN
from repro.covertree.tree import BULK_BUILD_MIN, CoverTree
from repro.datasets import make_blobs
from repro.index import (
    BruteForceIndex,
    CoverTreeIndex,
    GridIndex,
    build_index,
    net_neighbor_sets,
)
from repro.index.registry import DEFAULT_INDEX_ENV
from repro.metricspace import EditDistanceMetric, MetricDataset
from repro.metricspace.dataset import GrowingMetricDataset
from conftest import assert_csr_equal
from test_streaming_batched import PerElementReference
from test_windowed_ingest import canonical, index_free_view

BACKENDS = ("brute", "grid", "covertree")


def blob_dataset(n=600, dim=8, seed=0):
    pts, _ = make_blobs(
        n=n, n_clusters=4, dim=dim, std=0.7, spread=8.0,
        outlier_fraction=0.1, seed=seed,
    )
    return MetricDataset(pts)


class TestIncrementalEquivalence:
    """Grown == fresh, per backend, including adversarial insert order."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_grown_matches_fresh(self, backend):
        ds = blob_dataset()
        grown = build_index(backend, ds, indices=np.arange(200), radius_hint=2.0)
        # Reverse-order inserts break any position==id monotonicity.
        grown.insert_batch(np.arange(ds.n - 1, 199, -1))
        fresh = build_index(backend, ds, radius_hint=2.0)
        queries = np.arange(0, ds.n, 13)
        for radius in (0.5, 2.0, 6.0):
            assert_csr_equal(
                grown.range_query_batch_csr(queries, radius),
                fresh.range_query_batch_csr(queries, radius),
                atol=1e-9,
            )

    @pytest.mark.parametrize("backend", ("brute", "covertree"))
    def test_grown_matches_fresh_edit_distance(self, backend):
        rng = np.random.default_rng(3)
        strings = [
            "".join(rng.choice(list("abcd"), size=rng.integers(3, 9)))
            for _ in range(80)
        ]
        ds = MetricDataset(strings, EditDistanceMetric())
        grown = build_index(backend, ds, indices=np.arange(40))
        grown.insert_batch(np.arange(40, 80))
        fresh = build_index(backend, ds)
        assert_csr_equal(
            grown.range_query_batch_csr(np.arange(80), 2.0),
            fresh.range_query_batch_csr(np.arange(80), 2.0),
            atol=1e-9,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_by_one_inserts(self, backend):
        ds = blob_dataset(n=120)
        grown = build_index(backend, ds, indices=[0], radius_hint=1.0)
        for i in range(1, ds.n):
            grown.insert(i)
        fresh = build_index(backend, ds, radius_hint=1.0)
        assert_csr_equal(
            grown.range_query_batch_csr(np.arange(ds.n), 1.5),
            fresh.range_query_batch_csr(np.arange(ds.n), 1.5),
            atol=1e-9,
        )

    def test_insert_validation(self):
        ds = blob_dataset(n=60)
        idx = build_index("brute", ds, indices=np.arange(30))
        with pytest.raises(ValueError, match="duplicate"):
            idx.insert_batch([31, 31])
        with pytest.raises(ValueError, match="out-of-range"):
            idx.insert_batch([999])
        with pytest.raises(ValueError, match="already-stored"):
            idx.insert_batch([5])
        with pytest.raises(RuntimeError):
            BruteForceIndex().insert(0)  # unbuilt
        idx.insert_batch([])  # no-op is fine

    def test_payload_queries_match_index_queries(self):
        ds = blob_dataset(n=200)
        pts = np.asarray(ds.points)
        for backend in BACKENDS:
            idx = build_index(backend, ds, radius_hint=2.0)
            by_index = idx.range_query_batch_csr(np.arange(0, 200, 17), 2.0)
            by_payload = idx.range_query_points_csr(
                [pts[i] for i in range(0, 200, 17)], 2.0
            )
            assert_csr_equal(by_payload, by_index)


class TestAutoPolicyProbe:
    def test_isotropic_high_d_falls_back_to_brute(self):
        rng = np.random.default_rng(1)
        ds = MetricDataset(rng.normal(size=(3000, 32)))
        idx = build_index("auto", ds, radius_hint=6.5)
        assert isinstance(idx, BruteForceIndex)
        # The probe leaves a fresh instrumentation scope.
        assert idx.counters() == {"n_range_queries": 0, "n_candidates": 0}

    def test_concentrated_data_keeps_grid(self):
        pts, _ = make_blobs(
            n=3000, n_clusters=8, dim=16, std=0.5, spread=30.0,
            outlier_fraction=0.05, seed=0,
        )
        idx = build_index("auto", MetricDataset(pts), radius_hint=2.5)
        assert isinstance(idx, GridIndex)

    def test_explicit_grid_is_never_probed_away(self):
        rng = np.random.default_rng(2)
        ds = MetricDataset(rng.normal(size=(3000, 32)))
        assert isinstance(
            build_index("grid", ds, radius_hint=6.5), GridIndex
        )

    def test_env_forced_grid_is_never_probed_away(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_INDEX_ENV, "grid")
        rng = np.random.default_rng(2)
        ds = MetricDataset(rng.normal(size=(3000, 32)))
        assert isinstance(build_index(None, ds, radius_hint=6.5), GridIndex)


class TestBulkCoverTree:
    def test_bulk_queries_match_classic(self):
        rng = np.random.default_rng(4)
        ds = MetricDataset(rng.normal(size=(500, 4)))
        classic = CoverTree(ds, bulk=False)
        bulk = CoverTree(ds, bulk=True)
        for radius in (0.5, 1.5, 4.0):
            q = rng.normal(size=4)
            got = sorted(i for i, _ in bulk.range_query(q, radius))
            want = sorted(i for i, _ in classic.range_query(q, radius))
            assert got == want
        for _ in range(10):
            q = rng.normal(size=4)
            assert bulk.nearest(q)[1] == pytest.approx(
                classic.nearest(q)[1], abs=1e-12
            )

    def test_bulk_handles_duplicates(self):
        pts = np.array([[0.0, 0.0]] * 3 + [[5.0, 5.0]] * 2 + [[9.0, 0.0]])
        tree = CoverTree(MetricDataset(pts), bulk=True)
        assert tree.size == 6
        assert sorted(tree.all_indices()) == list(range(6))
        hits = sorted(i for i, _ in tree.range_query(np.array([0.0, 0.0]), 0.1))
        assert hits == [0, 1, 2]

    def test_bulk_build_is_cheaper_at_scale(self):
        pts, _ = make_blobs(
            n=3000, n_clusters=6, dim=8, std=0.5, spread=20.0,
            outlier_fraction=0.05, seed=5,
        )
        ds = MetricDataset(pts)
        classic = CoverTree(ds, bulk=False)
        bulk = CoverTree(ds, bulk=True)
        assert bulk.n_distance_evals < classic.n_distance_evals / 2

    def test_insert_after_bulk_build(self):
        rng = np.random.default_rng(6)
        ds = MetricDataset(rng.normal(size=(300, 3)))
        tree = CoverTree(ds, indices=range(250), bulk=True)
        for i in range(250, 300):
            tree.insert(i)
        q = rng.normal(size=3)
        want = sorted(
            np.flatnonzero(ds.distances_point(q) <= 2.0).tolist()
        )
        assert sorted(i for i, _ in tree.range_query(q, 2.0)) == want

    def test_auto_policy_threshold(self):
        assert BULK_BUILD_MIN >= 2  # documented knob exists
        # Index adapter at scale uses bulk (far fewer evals than the
        # classic build's known cost profile is hard to pin exactly;
        # instead pin that bulk kicks in above the threshold).
        rng = np.random.default_rng(7)
        small = MetricDataset(rng.normal(size=(64, 3)))
        CoverTreeIndex().build(small)  # classic path, must just work


class TestGonzalezIndexBacked:
    def test_no_dense_matrix_materialized(self):
        ds = blob_dataset(n=500)
        net = radius_guided_gonzalez(ds, 0.8)
        assert net.index is not None
        assert net.index.n_stored == net.n_centers
        assert net._center_distances is None
        # Construction instrumentation present and sane.
        assert net.counters["net_range_queries"] > 0
        assert net.counters["peak_center_matrix_bytes"] > 0

    def test_auto_policy_resolves_against_dataset_size(self):
        # The in-loop index starts from one center; the auto policy
        # must not lock into brute because of that initial size when
        # the dataset (the worst-case |E|) is large.
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.0, 200.0, size=(3000, 2))
        net = radius_guided_gonzalez(MetricDataset(pts), 1.0, index="auto")
        assert net.n_centers > 2048
        assert net.index.name == "grid"

    def test_auto_policy_probes_grown_grid_on_isotropic_data(self):
        # Isotropic high-d data degenerates the ≤3-dim lattice; the
        # grown-index resolution must run the same probe-and-fall-back
        # the static build_index path does.
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(3000, 32))
        net = radius_guided_gonzalez(MetricDataset(pts), 4.0, index="auto")
        assert net.index.name == "brute"

    def test_small_stored_grid_projects_by_dataset_variance(self):
        # One stored point has zero variance everywhere; the lattice
        # dims must come from the dataset distribution instead of
        # argsort tie-breaking on zeros.
        rng = np.random.default_rng(11)
        pts = np.zeros((500, 6))
        pts[:, 4] = rng.normal(scale=10.0, size=500)  # all spread in dim 4
        pts[:, 1] = rng.normal(scale=5.0, size=500)
        ds = MetricDataset(pts)
        idx = GridIndex(max_grid_dims=2).build(ds, indices=[0], radius_hint=1.0)
        np.testing.assert_array_equal(idx._dims, [1, 4])

    def test_netgraph_reuses_carried_index_for_default_spec(self):
        # |E| <= AUTO_BRUTE_MAX resolves 'brute', but building anything
        # would be a second build — the carried index must be reused
        # and the merge graph must not cost ~|E|² fresh evaluations.
        rng = np.random.default_rng(12)
        pts = rng.uniform(0.0, 60.0, size=(5000, 2))
        ds = MetricDataset(pts)
        net = radius_guided_gonzalez(ds, 2.0, index="auto")
        m = net.n_centers
        assert m <= 2048 and net.index.name == "grid"
        evals0 = ds.n_cross_evals
        neighbors = net_neighbor_sets(net, net.r_bar, 1.0, "auto")
        assert neighbors.n_queries == m
        assert ds.n_cross_evals - evals0 < m * m / 4
        # An explicit mismatching name still builds what was asked.
        explicit = net_neighbor_sets(net, net.r_bar, 1.0, "brute")
        np.testing.assert_array_equal(neighbors.offsets, explicit.offsets)
        np.testing.assert_array_equal(neighbors.ids, explicit.ids)

    def test_peak_counter_scales_with_degree_not_m_squared(self):
        # Many centers, sparse neighborhoods: the pair working set must
        # stay far below the dense matrix footprint.
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.0, 400.0, size=(4000, 2))
        ds = MetricDataset(pts)
        net = radius_guided_gonzalez(ds, 1.0, eps_for_counts=2.0)
        m = net.n_centers
        assert m > 1000  # the regime the counter is about
        dense_bytes = m * m * 8
        assert net.counters["peak_center_matrix_bytes"] < dense_bytes / 10

    def test_lazy_dense_property_still_correct(self):
        ds = blob_dataset(n=200)
        net = radius_guided_gonzalez(ds, 1.0)
        m = net.n_centers
        for i in range(min(m, 6)):
            for j in range(min(m, 6)):
                assert net.center_distances[i, j] == pytest.approx(
                    ds.distance(net.centers[i], net.centers[j]), abs=1e-9
                )
        assert net.center_distances is net.center_distances  # cached

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_neighbor_centers_match_dense_threshold(self, backend):
        ds = blob_dataset(n=400)
        net = radius_guided_gonzalez(ds, 0.7, index=backend)
        threshold = 2.0 * net.r_bar + 1.1
        via_index = net_neighbor_sets(net, net.r_bar, 1.1, None)  # the carried index
        dense = net.center_distances  # materializes the matrix
        rows, cols = np.nonzero(dense <= threshold)
        np.testing.assert_array_equal(
            via_index.offsets, np.searchsorted(rows, np.arange(net.n_centers + 1))
        )
        np.testing.assert_array_equal(via_index.ids, cols)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_net_outputs_backend_independent(self, backend):
        ds = blob_dataset(n=400, seed=2)
        want = radius_guided_gonzalez(ds, 0.6, eps_for_counts=1.2, index="brute")
        got = radius_guided_gonzalez(ds, 0.6, eps_for_counts=1.2, index=backend)
        assert want.centers == got.centers
        np.testing.assert_array_equal(want.center_of, got.center_of)
        np.testing.assert_array_equal(want.ball_counts, got.ball_counts)
        np.testing.assert_allclose(
            want.dist_to_center, got.dist_to_center, atol=1e-9
        )


def index_free_streaming(solver, dataset):
    """Labels and footprint of the index-free per-element reference
    run with ``solver``'s parameters over ``dataset``'s points."""
    labels, stats, _ = PerElementReference(solver, index_free=True).fit_stream(
        lambda: iter(list(dataset.points)), metric=dataset.metric
    )
    return labels, stats


class TestStreamingIndexed:
    @pytest.mark.parametrize("backend", BACKENDS + ("auto",))
    def test_labels_bit_identical_to_dense(self, backend):
        rng = np.random.default_rng(11)
        pts = np.vstack([
            rng.normal(0.0, 0.3, size=(80, 2)),
            rng.normal([6.0, 0.0], 0.35, size=(80, 2)),
            rng.uniform(-15.0, 15.0, size=(8, 2)),
        ])
        rng.shuffle(pts)
        ds = MetricDataset(pts)
        solver = StreamingApproxDBSCAN(0.6, 5, rho=0.5, index=backend)
        labels, stats = index_free_streaming(solver, ds)
        got = solver.fit(ds)
        np.testing.assert_array_equal(labels, got.labels)
        assert got.stats["index_backend"] in BACKENDS
        assert got.timings.counters["n_range_queries"] > 0
        # Memory accounting is index-independent.
        assert got.stats["memory_points"] == stats["memory_points"]

    def test_text_stream_with_covertree(self, text_dataset):
        ds, _ = text_dataset
        solver = StreamingApproxDBSCAN(
            2.0, 3, rho=0.5, metric=EditDistanceMetric(), index="covertree"
        )
        labels, _ = index_free_streaming(solver, ds)
        np.testing.assert_array_equal(labels, solver.fit(ds).labels)

    def test_three_passes_preserved(self):
        from repro.datasets import ReplayStream

        rng = np.random.default_rng(12)
        pts = rng.normal(size=(150, 2))
        stream = ReplayStream(pts)
        result = StreamingApproxDBSCAN(0.6, 5, rho=0.5, index="grid").fit_stream(stream)
        assert stream.passes_started == 3
        assert result.labels.shape[0] == len(pts)


class TestWindowedIndexed:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_drift_stream_matches_dense(self, backend):
        rng = np.random.default_rng(13)
        stream = [
            rng.normal([step / 50.0, 0.0], 0.2) for step in range(600)
        ]
        queries = [np.array([x, 0.0]) for x in np.linspace(-2.0, 13.0, 16)]
        model = WindowedApproxDBSCAN(
            1.5, 5, rho=0.5, window=300, n_buckets=6, index=backend
        )
        want, want_k, want_live = index_free_view(model, stream, queries)
        for p in stream:
            model.insert(p)
        labels = [model.predict(q) for q in queries]
        assert canonical(labels) == canonical(want)
        assert (model.n_clusters, model.n_live_centers) == (want_k, want_live)

    def test_expiry_rebuilds_index(self):
        model = WindowedApproxDBSCAN(
            1.0, 5, rho=0.5, window=40, n_buckets=4, index="brute"
        )
        rng = np.random.default_rng(14)
        for _ in range(40):
            model.insert(rng.normal([0.0, 0.0], 0.2))
        assert model._index is not None
        stored_before = model._index.n_stored
        # Slide fully past the region: old centers must leave the index.
        for i in range(80):
            model.insert(np.array([50.0 + 3.0 * i, 0.0]))
        assert model.predict(np.array([0.0, 0.0])) == -1
        assert model._index.n_stored == model.n_live_centers
        assert model._index.n_stored <= stored_before + 80


class TestGrowingDataset:
    def test_grows_and_serves_indexes(self):
        ds = GrowingMetricDataset()
        rng = np.random.default_rng(15)
        for _ in range(10):
            ds.append(rng.normal(size=3))
        assert ds.n == 10
        idx = build_index("brute", ds, radius_hint=1.0)
        for _ in range(5):
            idx.insert(ds.append(rng.normal(size=3)))
        assert ds.n == 15 and idx.n_stored == 15
        ids, dists = idx.range_query_batch_csr([0], 100.0).row(0)
        assert len(ids) == 15  # sees every appended point
        assert np.all(np.diff(ids) > 0)

    def test_payload_store_compat(self):
        ds = GrowingMetricDataset(EditDistanceMetric())
        ds.append("abc")
        ds.append("abd")
        assert ds.get(1) == "abd"
        ds.set(1, "xyz")
        assert ds.view() == ["abc", "xyz"]

    @pytest.mark.parametrize("start", [0, 3, 4])
    def test_extend_matches_appends(self, start):
        """``extend`` stores exactly what one ``append`` per payload
        stores, whether it fills, grows or starts the buffer."""
        rng = np.random.default_rng(16)
        rows = rng.normal(size=(start + 9, 3)).astype(np.float32)
        one, many = GrowingMetricDataset(), GrowingMetricDataset()
        for row in rows:
            one.append(row)
        for row in rows[:start]:
            many.append(row)
        many.extend([])
        many.extend(list(rows[start : start + 2]))
        many.extend(rows[start + 2 :])
        assert many.n == one.n == len(rows)
        np.testing.assert_array_equal(many.view(), one.view())
        words = GrowingMetricDataset(EditDistanceMetric())
        words.append("abc")
        words.extend(["abd", "xyz"])
        assert words.view() == ["abc", "abd", "xyz"] and words.n == 3
