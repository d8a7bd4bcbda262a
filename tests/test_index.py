"""Tests for the pluggable neighbor-index subsystem (:mod:`repro.index`).

The load-bearing property is *backend equivalence*: every backend must
return exactly the neighbor sets the brute-force reference returns, on
every metric family it supports, because the solvers' correctness
proofs assume exact range queries.  On top of that sit solver-level
regressions (labels must not depend on the backend) and the registry's
selection policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ApproxMetricDBSCAN, MetricDBSCAN
from repro.baselines import DBSCANPlusPlus, OriginalDBSCAN
from repro.datasets import make_blobs
from repro.index import (
    AUTO_BRUTE_MAX,
    BruteForceIndex,
    CoverTreeIndex,
    GridIndex,
    available_backends,
    build_index,
    default_index_name,
    net_neighbor_sets,
    resolve_index_name,
)
from repro.index.registry import DEFAULT_INDEX_ENV
from repro.metricspace import (
    CosineMetric,
    EditDistanceMetric,
    JaccardMetric,
    ManhattanMetric,
    MetricDataset,
    MinkowskiMetric,
)

from conftest import bfs_dbscan

BACKENDS = ("brute", "grid", "covertree")


def euclidean_dataset(n=240, dim=16, seed=0):
    pts, _ = make_blobs(
        n=n, n_clusters=4, dim=dim, std=0.7, spread=5.0,
        outlier_fraction=0.1, seed=seed,
    )
    return MetricDataset(pts)


def cosine_dataset(n=160, dim=8, seed=1):
    rng = np.random.default_rng(seed)
    return MetricDataset(rng.normal(size=(n, dim)), CosineMetric())


def edit_dataset(seed=2):
    rng = np.random.default_rng(seed)
    alphabet = list("abcdef")
    strings = [
        "".join(rng.choice(alphabet, size=rng.integers(3, 12)))
        for _ in range(120)
    ]
    return MetricDataset(strings, EditDistanceMetric())


def assert_same_answers(got, want, atol=1e-6):
    assert len(got) == len(want)
    for (g_ids, g_d), (w_ids, w_d) in zip(got, want):
        np.testing.assert_array_equal(g_ids, w_ids)
        # Kernel families differ in the last ulps (gram vs difference
        # formulation), scaled by the coordinate magnitude; neighbor
        # membership is what must be exact.
        np.testing.assert_allclose(g_d, w_d, atol=atol)


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ("grid", "covertree"))
    @pytest.mark.parametrize("radius", (0.5, 2.0, 4.5))
    def test_range_euclidean(self, backend, radius):
        ds = euclidean_dataset()
        queries = np.arange(ds.n)
        want = build_index("brute", ds).range_query_batch(queries, radius)
        got = build_index(backend, ds, radius_hint=radius).range_query_batch(
            queries, radius
        )
        assert_same_answers(got, want)

    @pytest.mark.parametrize("backend", ("grid", "covertree"))
    def test_range_cosine(self, backend):
        ds = cosine_dataset()
        queries = np.arange(ds.n)
        for radius in (0.2, 0.8):
            want = build_index("brute", ds).range_query_batch(queries, radius)
            got = build_index(backend, ds, radius_hint=radius).range_query_batch(
                queries, radius
            )
            assert_same_answers(got, want)

    @pytest.mark.parametrize(
        "metric", [MinkowskiMetric(p=1.5), ManhattanMetric()]
    )
    def test_range_minkowski_family_grid(self, metric):
        rng = np.random.default_rng(7)
        ds = MetricDataset(rng.normal(size=(150, 6)), metric)
        want = build_index("brute", ds).range_query_batch(np.arange(ds.n), 2.0)
        got = build_index("grid", ds, radius_hint=2.0).range_query_batch(
            np.arange(ds.n), 2.0
        )
        assert_same_answers(got, want)

    def test_range_edit_distance_covertree(self):
        ds = edit_dataset()
        for radius in (2.0, 5.0):
            want = build_index("brute", ds).range_query_batch(
                np.arange(ds.n), radius
            )
            got = build_index("covertree", ds).range_query_batch(
                np.arange(ds.n), radius
            )
            assert_same_answers(got, want)

    @pytest.mark.parametrize("backend", ("grid", "covertree"))
    def test_range_on_subset(self, backend):
        ds = euclidean_dataset()
        stored = np.arange(0, ds.n, 3)
        queries = np.arange(0, ds.n, 5)  # queries need not be stored
        want = build_index("brute", ds, indices=stored).range_query_batch(
            queries, 2.5
        )
        got = build_index(
            backend, ds, indices=stored, radius_hint=2.5
        ).range_query_batch(queries, 2.5)
        assert_same_answers(got, want)

    @pytest.mark.parametrize("backend", ("grid", "covertree"))
    @pytest.mark.parametrize("k", (1, 5, 17))
    def test_knn_euclidean(self, backend, k):
        ds = euclidean_dataset(n=150)
        ref = build_index("brute", ds)
        idx = build_index(backend, ds, radius_hint=1.0)
        for q in range(0, ds.n, 7):
            w_ids, w_d = ref.knn(q, k)
            g_ids, g_d = idx.knn(q, k)
            np.testing.assert_array_equal(g_ids, w_ids)
            np.testing.assert_allclose(g_d, w_d, atol=1e-6)

    def test_knn_larger_than_stored(self):
        ds = euclidean_dataset(n=40)
        for backend in BACKENDS:
            ids, dists = build_index(backend, ds).knn(0, 100)
            assert len(ids) == ds.n
            assert dists[0] == pytest.approx(0.0, abs=1e-6)

    def test_self_is_reported(self):
        ds = euclidean_dataset(n=60)
        for backend in BACKENDS:
            ids, dists = build_index(backend, ds, radius_hint=0.5).range_query(
                11, 0.5
            )
            assert 11 in ids
            assert dists[list(ids).index(11)] == pytest.approx(0.0, abs=1e-6)

    def test_grid_radius_far_above_cell_width(self):
        # A query radius spanning many cell widths must fall back to
        # the occupied-cell scan, not enumerate the offset lattice.
        rng = np.random.default_rng(9)
        ds = MetricDataset(rng.uniform(-300, 300, size=(400, 3)))
        idx = GridIndex().build(ds, radius_hint=0.5)
        want = build_index("brute", ds).range_query_batch(np.arange(40), 50.0)
        # ±300 coordinates scale the gram-vs-diff kernel jitter up.
        assert_same_answers(
            idx.range_query_batch(np.arange(40), 50.0), want, atol=1e-4
        )

    def test_grid_knn_far_outlier(self):
        rng = np.random.default_rng(10)
        pts = np.vstack([rng.normal(size=(120, 3)), [[500.0, 500.0, 500.0]]])
        ds = MetricDataset(pts)
        idx = GridIndex().build(ds, radius_hint=0.3)
        ref = build_index("brute", ds)
        ids, dists = idx.knn(120, 4)
        w_ids, w_d = ref.knn(120, 4)
        np.testing.assert_array_equal(ids, w_ids)
        np.testing.assert_allclose(dists, w_d, atol=1e-6)

    def test_rebuild_resets_counters(self):
        ds = euclidean_dataset(n=80)
        idx = GridIndex()
        build_index(idx, ds, radius_hint=1.0).range_query_batch(np.arange(10), 1.0)
        assert idx.counters()["n_range_queries"] == 10
        build_index(idx, ds, radius_hint=1.0)
        assert idx.counters() == {"n_range_queries": 0, "n_candidates": 0}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ids_only_queries_match(self, backend):
        ds = euclidean_dataset(n=120)
        idx = build_index(backend, ds, radius_hint=2.0)
        full = idx.range_query_batch(np.arange(30), 2.0)
        slim = idx.range_query_batch(np.arange(30), 2.0, with_distances=False)
        for (f_ids, _), (s_ids, s_d) in zip(full, slim):
            np.testing.assert_array_equal(f_ids, s_ids)
            # Distances may be omitted (None) on the slim path; the
            # cover tree computes them anyway and may keep them.
            assert s_d is None or len(s_d) == len(s_ids)

    def test_counters_accumulate(self):
        ds = euclidean_dataset(n=90)
        for backend in BACKENDS:
            idx = build_index(backend, ds, radius_hint=1.0)
            fresh = idx.counters()
            assert fresh["n_range_queries"] == 0
            assert fresh["n_candidates"] == 0
            idx.range_query_batch(np.arange(30), 1.0)
            counts = idx.counters()
            assert counts["n_range_queries"] == 30
            assert counts["n_candidates"] > 0
            idx.reset_counters()
            assert idx.counters()["n_candidates"] == 0


class TestRegistry:
    def test_available_backends(self):
        names = available_backends()
        assert {"brute", "grid", "covertree", "auto"} <= set(names)

    def test_auto_small_is_brute(self):
        ds = euclidean_dataset(n=50)
        assert resolve_index_name("auto", ds, 50) == "brute"

    def test_auto_large_vector_is_grid(self):
        ds = euclidean_dataset(n=50)
        assert resolve_index_name("auto", ds, AUTO_BRUTE_MAX + 1) == "grid"

    def test_auto_large_general_metric_is_covertree(self):
        ds = edit_dataset()
        assert resolve_index_name("auto", ds, AUTO_BRUTE_MAX + 1) == "covertree"

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_INDEX_ENV, "covertree")
        assert default_index_name() == "covertree"
        ds = euclidean_dataset(n=30)
        assert isinstance(build_index(None, ds), CoverTreeIndex)

    def test_env_grid_falls_back_on_unsupported_metric(self, monkeypatch):
        # The env default is a preference: grid on edit distance must
        # degrade to the auto policy, not fail the whole run.
        monkeypatch.setenv(DEFAULT_INDEX_ENV, "grid")
        ds = edit_dataset()
        assert resolve_index_name(None, ds, 50) == "brute"
        assert resolve_index_name(None, ds, AUTO_BRUTE_MAX + 1) == "covertree"
        # An explicit per-call request still fails loudly.
        with pytest.raises(TypeError):
            build_index("grid", ds)

    def test_env_var_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_INDEX_ENV, "kdtree")
        with pytest.raises(ValueError, match="kdtree"):
            default_index_name()

    def test_unknown_name_rejected(self):
        ds = euclidean_dataset(n=30)
        with pytest.raises(ValueError, match="unknown index backend"):
            build_index("balltree", ds)

    def test_grid_rejects_general_metric(self):
        ds = edit_dataset()
        with pytest.raises(TypeError):
            build_index("grid", ds)
        rng = np.random.default_rng(0)
        sets = [frozenset(rng.choice(20, size=5)) for _ in range(30)]
        with pytest.raises(TypeError):
            build_index("grid", MetricDataset(sets, JaccardMetric()))

    def test_instance_spec_is_built_in_place(self):
        ds = euclidean_dataset(n=30)
        idx = GridIndex(max_grid_dims=2)
        assert build_index(idx, ds, radius_hint=1.0) is idx
        assert idx.n_stored == 30

    def test_class_spec(self):
        ds = euclidean_dataset(n=30)
        assert isinstance(build_index(BruteForceIndex, ds), BruteForceIndex)

    def test_build_validates_indices(self):
        ds = euclidean_dataset(n=30)
        with pytest.raises(ValueError, match="duplicate"):
            build_index("brute", ds, indices=[1, 1, 2])
        with pytest.raises(ValueError, match="out-of-range"):
            build_index("brute", ds, indices=[0, 999])
        with pytest.raises(ValueError, match="zero points"):
            build_index("brute", ds, indices=[])


class TestSolverRegression:
    """Labels must be independent of the backend answering the
    neighbor queries — on Euclidean, cosine, and edit-distance data."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exact_labels_euclidean(self, backend, two_blobs):
        ds, _ = two_blobs
        want = MetricDBSCAN(0.5, 5, index="brute").fit(ds)
        got = MetricDBSCAN(0.5, 5, index=backend).fit(ds)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.core_mask, want.core_mask)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_approx_labels_euclidean(self, backend, two_blobs):
        ds, _ = two_blobs
        want = ApproxMetricDBSCAN(0.5, 5, index="brute").fit(ds)
        got = ApproxMetricDBSCAN(0.5, 5, index=backend).fit(ds)
        np.testing.assert_array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("backend", ("brute", "covertree"))
    def test_exact_labels_edit_distance(self, backend, text_dataset):
        ds, _ = text_dataset
        want = MetricDBSCAN(2.0, 3, index="brute").fit(ds)
        got = MetricDBSCAN(2.0, 3, index=backend).fit(ds)
        np.testing.assert_array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("backend", ("brute", "grid", "covertree"))
    def test_exact_labels_cosine(self, backend):
        ds = cosine_dataset()
        want = MetricDBSCAN(0.3, 4, index="brute").fit(ds)
        got = MetricDBSCAN(0.3, 4, index=backend).fit(ds)
        np.testing.assert_array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dbscan_baseline_labels(self, backend):
        ds = euclidean_dataset(n=300)
        want = bfs_dbscan(ds, 2.0, 5)
        got = OriginalDBSCAN(2.0, 5, index=backend).fit(ds)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.core_mask, want.core_mask)
        counters = got.timings.counters
        assert counters["n_range_queries"] == ds.n
        assert counters["n_candidates"] > 0

    def test_covertree_counters_report_build_cost(self):
        ds = euclidean_dataset(n=120)
        idx = build_index("covertree", ds)
        assert idx.counters()["n_build_evals"] > 0
        result = OriginalDBSCAN(2.0, 5, index="covertree").fit(
            euclidean_dataset(n=120)
        )
        assert result.timings.counters["n_build_evals"] > 0

    def test_spawn_preserves_configuration(self):
        idx = GridIndex(cell_width=0.25, max_grid_dims=2)
        build_index(idx, euclidean_dataset(n=60), radius_hint=1.0)
        sibling = idx.spawn()
        assert sibling is not idx
        assert sibling.dataset is None
        assert sibling.cell_width == 0.25
        assert sibling.max_grid_dims == 2
        assert idx.n_stored == 60  # original untouched

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dbscanpp_labels(self, backend):
        ds = euclidean_dataset(n=300)
        want = DBSCANPlusPlus(2.0, 5, seed=3).fit(ds)
        got = DBSCANPlusPlus(2.0, 5, seed=3, index=backend).fit(ds)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.core_mask, want.core_mask)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dbscanpp_kcenter_duplicate_points(self, backend):
        # k-center sampling repeats indices on data with exact
        # duplicates; the index path must survive it and match the
        # dense path's labels (zero-distance duplicate edges included).
        pts = np.vstack([np.zeros((10, 3)), np.ones((4, 3))])
        want = DBSCANPlusPlus(0.5, 2, ratio=0.5, init="kcenter", seed=0).fit(
            MetricDataset(pts)
        )
        got = DBSCANPlusPlus(
            0.5, 2, ratio=0.5, init="kcenter", seed=0, index=backend
        ).fit(MetricDataset(pts))
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_dbscanpp_instance_spec_counters_not_doubled(self):
        pts = euclidean_dataset(n=200).points
        by_name = DBSCANPlusPlus(2.0, 3, ratio=0.5, index="grid").fit(
            MetricDataset(pts)
        )
        by_instance = DBSCANPlusPlus(2.0, 3, ratio=0.5, index=GridIndex()).fit(
            MetricDataset(pts)
        )
        assert (
            by_name.timings.counters["n_candidates"]
            == by_instance.timings.counters["n_candidates"]
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_net_neighbor_sets_match_dense(self, backend):
        from repro.core.gonzalez import radius_guided_gonzalez

        ds = euclidean_dataset(n=250)
        net = radius_guided_gonzalez(ds, 0.4)
        threshold = 2.0 * net.r_bar + 1.5
        within = net.center_distances <= threshold
        got = net_neighbor_sets(net, net.r_bar, 1.5, backend)
        assert got.n_queries == net.n_centers
        for j in range(net.n_centers):
            np.testing.assert_array_equal(got.row(j)[0], np.flatnonzero(within[j]))

    def test_counters_flow_into_timings(self):
        ds = euclidean_dataset(n=250)
        result = MetricDBSCAN(1.5, 5, index="grid").fit(ds)
        assert result.timings.counters["n_range_queries"] > 0
        assert result.timings.counters["n_candidates"] > 0
        dense = MetricDBSCAN(1.5, 5, index="brute").fit(euclidean_dataset(n=250))
        m = dense.stats["n_centers"]
        assert dense.timings.counters["n_range_queries"] == m
        assert dense.timings.counters["n_candidates"] == m * m
