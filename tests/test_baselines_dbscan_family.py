"""Tests for the DBSCAN-family baselines: original DBSCAN, DBSCAN++,
DYW_DBSCAN, and Gan--Tao exact/approximate."""

import importlib

import numpy as np
import pytest

from repro.baselines import DBSCANPlusPlus, DYWDBSCAN, GanTaoDBSCAN, OriginalDBSCAN, dbscan
from repro.datasets import make_blobs
from repro.metricspace import (
    EditDistanceMetric,
    ManhattanMetric,
    MetricDataset,
    rows_per_block,
)

from conftest import bfs_dbscan, core_partition, dense_dbscanpp, same_cluster_pairs

#: The module, not the ``dbscan`` convenience function the package
#: exports under the same name.
dbscan_module = importlib.import_module("repro.baselines.dbscan")

#: Every way to pick OriginalDBSCAN's region-query backend: the three
#: backends and the process default.
INDEXES = ("brute", "grid", "covertree", None)


def blob_instance(seed=0, n_out=6):
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal(0.0, 0.3, size=(50, 2)),
        rng.normal([5.0, 0.0], 0.3, size=(50, 2)),
        rng.uniform(-12.0, 12.0, size=(n_out, 2)),
    ])
    return MetricDataset(pts)


class TestOriginalDBSCAN:
    def test_basic_clusters(self, tiny_line):
        r = dbscan(tiny_line, 0.5, 3)
        assert r.n_clusters == 2
        assert r.labels[-1] == -1

    def test_core_counts_self(self):
        # Three points within eps of each other; MinPts=3 counts self.
        ds = MetricDataset(np.array([[0.0], [0.1], [0.2]]))
        r = OriginalDBSCAN(0.2, 3).fit(ds)
        assert r.core_mask[1]  # middle point has all three in its ball

    def test_border_points_not_core(self, two_blobs):
        ds, _ = two_blobs
        r = OriginalDBSCAN(1.0, 10).fit(ds)
        borders = (r.labels >= 0) & ~r.core_mask
        # Blob edges usually produce borders; at minimum none may be core.
        assert not np.any(r.core_mask & borders)

    def test_works_with_any_metric(self):
        ds = MetricDataset(np.array([[0.0, 0.0], [0.5, 0.5], [9.0, 9.0]]),
                           ManhattanMetric())
        r = OriginalDBSCAN(1.5, 2).fit(ds)
        assert r.labels[0] == r.labels[1]
        assert r.labels[2] == -1

    def test_all_points_identical(self):
        ds = MetricDataset(np.zeros((10, 2)))
        r = OriginalDBSCAN(0.1, 5).fit(ds)
        assert r.n_clusters == 1
        assert r.n_noise == 0


def assert_matches_oracle(ds, eps, min_pts, index):
    """OriginalDBSCAN's labels and core mask equal the BFS oracle's,
    border points included."""
    got = OriginalDBSCAN(eps, min_pts, index=index).fit(ds)
    want = bfs_dbscan(ds, eps, min_pts)
    np.testing.assert_array_equal(got.core_mask, want.core_mask)
    np.testing.assert_array_equal(got.labels, want.labels)
    return got


def equidistant_border_lattice(seed):
    """Two 5x5 integer lattices with a one-column gap, bridged by three
    points in the gap, shuffled.  At ε = 1 and MinPts 4 every lattice
    point but the far corners is core, and each bridge point is a
    border point at distance exactly ε from a core point of each side,
    so the cluster it joins depends only on the numbering."""
    left = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), -1).reshape(-1, 2)
    bridge = np.array([[5.0, 0.0], [5.0, 2.0], [5.0, 4.0]])
    pts = np.vstack([left, left + [6.0, 0.0], bridge])
    return MetricDataset(np.random.default_rng(seed).permutation(pts))


@pytest.fixture(scope="module")
def blobs_9k():
    """9,000 2-d blob points (several chunks at the module budget), the
    oracle's answer, and one fit through the process-default index."""
    pts, _ = make_blobs(
        n=9000, n_clusters=8, dim=2, std=0.5, spread=30.0,
        outlier_fraction=0.05, seed=0,
    )
    ds = MetricDataset(pts)
    eps, min_pts = 0.9, 10
    assert rows_per_block(ds.n, dbscan_module.CHUNK_BYTES) < ds.n
    oracle = bfs_dbscan(ds, eps, min_pts)
    return ds, eps, min_pts, oracle, OriginalDBSCAN(eps, min_pts).fit(ds)


class TestOriginalDBSCANOracle:
    """Label-for-label parity with the seed-list BFS of Ester et al."""

    @pytest.mark.parametrize("index", ("brute", "grid", None))
    def test_blobs_across_chunks(self, blobs_9k, index):
        ds, eps, min_pts, want, got = blobs_9k
        if index is not None:
            got = OriginalDBSCAN(eps, min_pts, index=index).fit(ds)
        np.testing.assert_array_equal(got.core_mask, want.core_mask)
        np.testing.assert_array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("index", INDEXES)
    def test_small_chunks(self, monkeypatch, index):
        # A few rows per chunk: most ε-edges join points answered in
        # different chunks, and the core–core edges are joined in
        # several batches of at least n.
        monkeypatch.setattr(dbscan_module, "CHUNK_BYTES", 64 << 10)
        pts, _ = make_blobs(
            n=1200, n_clusters=4, dim=16, std=0.5, spread=10.0,
            outlier_fraction=0.05, seed=1,
        )
        ds = MetricDataset(pts)
        assert rows_per_block(ds.n, dbscan_module.CHUNK_BYTES) <= 8
        got = assert_matches_oracle(ds, 2.5, 8, index=index)
        assert got.n_clusters > 1

    @pytest.mark.parametrize("index", INDEXES)
    @pytest.mark.parametrize("seed", range(4))
    def test_equidistant_border_lattice(self, index, seed):
        ds = equidistant_border_lattice(seed)
        got = assert_matches_oracle(ds, 1.0, 4, index=index)
        assert got.n_clusters == 2
        bridges = np.flatnonzero(ds.points[:, 0] == 5.0)
        assert not got.core_mask[bridges].any()
        # Both clusters reach every bridge; the smaller id keeps it.
        np.testing.assert_array_equal(got.labels[bridges], 0)

    @pytest.mark.parametrize("index", INDEXES)
    def test_exact_duplicates(self, index):
        rng = np.random.default_rng(2)
        pts = np.vstack([
            rng.normal(0.0, 0.3, size=(300, 2)),
            rng.normal([3.0, 0.0], 0.3, size=(300, 2)),
            rng.uniform(-6.0, 6.0, size=(60, 2)),
        ])
        pts = np.vstack([pts, pts[rng.integers(len(pts), size=200)]])
        ds = MetricDataset(rng.permutation(pts))
        assert_matches_oracle(ds, 0.25, 6, index=index)

    @pytest.mark.parametrize("index", ("brute", "covertree", None))
    def test_edit_distance(self, index):
        rng = np.random.default_rng(3)
        words = [
            "".join(rng.choice(list("abcd"), size=rng.integers(5, 9)))
            for _ in range(200)
        ]
        ds = MetricDataset(words, EditDistanceMetric())
        assert_matches_oracle(ds, 2.0, 4, index=index)

    def test_counters_on_the_default_index(self, blobs_9k):
        # Every region query reaches the index and every candidate it
        # filters is a counted distance evaluation.
        ds, _, _, _, result = blobs_9k
        counters = result.timings.counters
        assert counters["n_range_queries"] == ds.n
        assert counters["distance_evals"] >= counters["n_candidates"] > 0
        assert "region_queries" in result.timings.phases


class TestDBSCANPlusPlus:
    def test_full_ratio_matches_exact_cores(self):
        """ratio=1.0 samples everything, so core points equal DBSCAN's."""
        ds = blob_instance(1)
        ref = bfs_dbscan(ds, 0.5, 5)
        pp = DBSCANPlusPlus(0.5, 5, ratio=1.0).fit(ds)
        assert np.array_equal(pp.core_mask, ref.core_mask)

    def test_sampled_cores_subset_of_true_cores(self):
        ds = blob_instance(2)
        ref = bfs_dbscan(ds, 0.5, 5)
        pp = DBSCANPlusPlus(0.5, 5, ratio=0.3, seed=3).fit(ds)
        assert np.all(~pp.core_mask | ref.core_mask)

    def test_separated_blobs_recovered(self):
        ds = blob_instance(3, n_out=0)
        pp = DBSCANPlusPlus(0.5, 5, ratio=0.5, seed=0).fit(ds)
        assert pp.n_clusters == 2

    def test_kcenter_init(self):
        ds = blob_instance(4, n_out=0)
        pp = DBSCANPlusPlus(0.5, 5, ratio=0.3, init="kcenter").fit(ds)
        assert pp.n_clusters >= 2

    def test_deterministic_under_seed(self):
        ds = blob_instance(5)
        a = DBSCANPlusPlus(0.5, 5, seed=11).fit(ds)
        b = DBSCANPlusPlus(0.5, 5, seed=11).fit(ds)
        assert np.array_equal(a.labels, b.labels)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DBSCANPlusPlus(0.5, 5, ratio=0.0)
        with pytest.raises(ValueError):
            DBSCANPlusPlus(0.5, 5, init="fancy")

    @staticmethod
    def _assert_matches_oracle(solver, ds):
        got = solver.fit(ds)
        want = dense_dbscanpp(solver, ds)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.core_mask, want.core_mask)
        return got

    @pytest.mark.parametrize("index", INDEXES)
    @pytest.mark.parametrize("init", ["uniform", "kcenter"])
    def test_matches_dense_oracle(self, index, init, monkeypatch):
        # A small query chunk spreads every pass over several chunks.
        monkeypatch.setattr(DBSCANPlusPlus, "QUERY_CHUNK", 37)
        for seed in range(3):
            solver = DBSCANPlusPlus(
                0.5, 5, ratio=0.4, init=init, seed=seed, index=index
            )
            self._assert_matches_oracle(solver, blob_instance(seed + 30, n_out=20))

    @pytest.mark.parametrize("index", INDEXES)
    @pytest.mark.parametrize("init", ["uniform", "kcenter"])
    def test_duplicate_points_match_dense_oracle(self, index, init):
        rng = np.random.default_rng(4)
        base = rng.normal(0.0, 0.3, size=(30, 2))
        pts = np.vstack([base, base[:15], base[:5], [[4.0, 4.0]] * 6])
        solver = DBSCANPlusPlus(0.4, 4, ratio=0.5, init=init, seed=1, index=index)
        self._assert_matches_oracle(solver, MetricDataset(pts))

    @pytest.mark.parametrize("index", INDEXES)
    @pytest.mark.parametrize("init", ["uniform", "kcenter"])
    def test_assignment_tie_takes_lowest_core_id(self, index, init):
        # Two clusters on a line, B = [3, 4] and A = [0, 1], and the
        # non-core point 2.0 (id 9) exactly 1.0 from A's core 1.0
        # (id 8) and B's core 3.0 (id 10).  B holds the lowest id, so
        # it is cluster 0; the tie still goes to A, the lower core id.
        b_far = [4.0, 3.75, 3.5, 3.25]
        a = [0.0, 0.25, 0.5, 0.75, 1.0]
        ds = MetricDataset(np.array(b_far + a + [2.0, 3.0])[:, None])
        solver = DBSCANPlusPlus(1.0, 4, ratio=1.0, init=init, index=index)
        got = self._assert_matches_oracle(solver, ds)
        assert got.n_clusters == 2 and not got.core_mask[9]
        assert got.labels[9] == got.labels[8] == 1
        assert got.labels[10] == got.labels[0] == 0

    @pytest.mark.parametrize("init", ["uniform", "kcenter"])
    def test_brute_evaluates_no_more_than_dense(self, init):
        """The core index serves the merge and the assignment over the
        unique core points: never more evaluations than the dense
        ``|sample|·n + |core|² + n·|core|`` scans."""
        rng = np.random.default_rng(5)
        base = rng.normal(0.0, 0.3, size=(60, 2))
        ds = MetricDataset(np.vstack([base, base[:30], [[6.0, 6.0]] * 8]))
        solver = DBSCANPlusPlus(0.4, 4, ratio=0.6, init=init, seed=2, index="brute")
        got = solver.fit(ds).timings.counters["distance_evals"]
        before = ds.n_cross_evals
        dense_dbscanpp(solver, ds)
        assert 0 < got <= ds.n_cross_evals - before


class TestDYW:
    def test_matches_reference_partition(self):
        """DYW is exact DBSCAN with a different pre-processing, so the
        core partition must match brute force."""
        ds = blob_instance(6)
        ref = bfs_dbscan(ds, 0.5, 5)
        dyw = DYWDBSCAN(0.5, 5, z_tilde=10, seed=0).fit(ds)
        assert np.array_equal(dyw.core_mask, ref.core_mask)
        assert core_partition(dyw.labels, dyw.core_mask) == core_partition(
            ref.labels, ref.core_mask
        )

    def test_underestimated_z_still_correct(self):
        """Singleton fallback keeps the result correct even when z̃ is
        far below the true outlier count (only speed degrades)."""
        ds = blob_instance(7, n_out=15)
        ref = bfs_dbscan(ds, 0.5, 5)
        dyw = DYWDBSCAN(0.5, 5, z_tilde=0, seed=1).fit(ds)
        assert np.array_equal(dyw.core_mask, ref.core_mask)

    def test_text_metric(self, text_dataset):
        ds, _ = text_dataset
        ref = bfs_dbscan(ds, 2.0, 3)
        dyw = DYWDBSCAN(2.0, 3, z_tilde=2, seed=0).fit(ds)
        assert np.array_equal(dyw.core_mask, ref.core_mask)

    def test_validation(self):
        with pytest.raises(ValueError):
            DYWDBSCAN(0.5, 5, z_tilde=-1)
        with pytest.raises(ValueError):
            DYWDBSCAN(0.5, 5, eta=-1.0)


class TestGanTao:
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_matches_reference(self, seed):
        ds = blob_instance(seed + 10)
        ref = bfs_dbscan(ds, 0.5, 5)
        gt = GanTaoDBSCAN(0.5, 5).fit(ds)
        assert np.array_equal(gt.core_mask, ref.core_mask)
        assert core_partition(gt.labels, gt.core_mask) == core_partition(
            ref.labels, ref.core_mask
        )
        assert np.array_equal(gt.labels == -1, ref.labels == -1)

    @pytest.mark.parametrize("rho", [0.25, 0.5, 1.0])
    def test_approx_sandwich(self, rho):
        ds = blob_instance(20)
        eps, min_pts = 0.5, 5
        gt = GanTaoDBSCAN(eps, min_pts, rho=rho).fit(ds)
        lo = bfs_dbscan(ds, eps, min_pts)
        hi = bfs_dbscan(ds, (1.0 + rho) * eps, min_pts)
        cores = np.flatnonzero(lo.core_mask)
        assert same_cluster_pairs(lo.labels, cores) <= same_cluster_pairs(
            gt.labels, cores
        ) <= same_cluster_pairs(hi.labels, cores)

    def test_core_mask_identical_exact_vs_approx(self):
        """ρ only relaxes merging; core labeling stays exact."""
        ds = blob_instance(21)
        exact = GanTaoDBSCAN(0.5, 5).fit(ds)
        approx = GanTaoDBSCAN(0.5, 5, rho=0.5).fit(ds)
        assert np.array_equal(exact.core_mask, approx.core_mask)

    def test_higher_dimension(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([
            rng.normal(0.0, 0.3, size=(40, 5)),
            rng.normal(6.0, 0.3, size=(40, 5)),
        ])
        ds = MetricDataset(pts)
        ref = bfs_dbscan(ds, 1.5, 5)
        gt = GanTaoDBSCAN(1.5, 5).fit(ds)
        assert np.array_equal(gt.core_mask, ref.core_mask)

    def test_requires_euclidean(self):
        ds = MetricDataset(["ab", "cd"], EditDistanceMetric())
        with pytest.raises(ValueError):
            GanTaoDBSCAN(1.0, 2).fit(ds)

    def test_stats(self):
        ds = blob_instance(22)
        gt = GanTaoDBSCAN(0.5, 5, rho=0.5).fit(ds)
        assert gt.stats["algorithm"] == "gt_approx"
        assert gt.stats["n_cells"] > 0
