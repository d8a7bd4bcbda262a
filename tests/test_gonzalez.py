"""Tests for Algorithm 1 (radius-guided Gonzalez) and its by-products."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ApproxMetricDBSCAN, MetricDBSCAN
from repro.core import gonzalez, radius_guided_gonzalez
from repro.datasets import make_blobs
from repro.index import GridIndex, net_neighbor_sets
from repro.index.registry import build_index
from repro.kcenter import gonzalez_kcenter
from repro.metricspace import EditDistanceMetric, EuclideanMetric, MetricDataset


def make_ds(seed=0, n=150):
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal(0.0, 0.5, size=(n // 2, 2)),
        rng.normal(8.0, 0.5, size=(n - n // 2, 2)),
    ])
    return MetricDataset(pts)


def blob_ds(n, dim, seed=0):
    pts, _ = make_blobs(
        n=n, n_clusters=8, dim=dim, std=0.5, spread=30.0,
        outlier_fraction=0.05, seed=seed,
    )
    return MetricDataset(pts)


#: (dataset, r̄) pairs in general position: two tight blobs at three
#: scales, 2-d blobs with outliers (a grid-served center index), and
#: 16-d blobs at r̄ = ε/2 where |E| = 1,173 of 1,200 and rounds hold
#: up to 256 interacting candidates.
TRAVERSAL_CASES = {
    "two-blobs-0.05": (lambda: make_ds(seed=5, n=400), 0.05),
    "two-blobs-0.3": (lambda: make_ds(seed=5, n=400), 0.3),
    "two-blobs-1.5": (lambda: make_ds(seed=5, n=400), 1.5),
    "blobs-d2": (lambda: blob_ds(3000, 2), 0.45),
    "blobs-d16": (lambda: blob_ds(1200, 16), 0.45 * np.sqrt(32.0)),
}


class TestTextbookTraversal:
    """Algorithm 1 is the textbook farthest-first traversal stopped at
    the first covering radius <= r̄: the batched rounds, the pruned
    flushes and the refinement change none of its picks."""

    @pytest.mark.parametrize("case", list(TRAVERSAL_CASES))
    def test_matches_farthest_first(self, case):
        make, r_bar = TRAVERSAL_CASES[case]
        ds = make()
        net = radius_guided_gonzalez(ds, r_bar)
        k = net.n_centers
        ref = gonzalez_kcenter(ds, k=k, first_index=0)
        assert net.centers == ref.centers
        np.testing.assert_array_equal(net.center_of, ref.assignment)
        assert ref.radius <= r_bar
        if k > 1:
            assert gonzalez_kcenter(ds, k=k - 1, first_index=0).radius > r_bar

    def test_max_centers_truncates_traversal(self):
        """With r̄ far below the data's spacing, ``max_centers`` stops the
        net before r̄ is reached: it is the traversal's first 17 picks."""
        ds = make_ds(seed=6, n=300)
        net = radius_guided_gonzalez(ds, 0.01, max_centers=17)
        ref = gonzalez_kcenter(ds, k=17, first_index=0)
        assert net.n_centers == 17
        assert net.centers == ref.centers
        np.testing.assert_array_equal(net.center_of, ref.assignment)


class TestNetProperties:
    def test_covering(self):
        ds = make_ds()
        net = radius_guided_gonzalez(ds, r_bar=0.5)
        assert net.max_cover_radius() <= 0.5
        assert np.all(net.dist_to_center <= 0.5 + 1e-12)

    def test_packing(self):
        ds = make_ds()
        net = radius_guided_gonzalez(ds, r_bar=0.5)
        assert not net.packing_violated()

    def test_assignment_is_nearest_center(self):
        """Every point is assigned to its nearest center, and on ties
        to the earliest-inserted one.  Beside two blobs, the inputs are
        full of ties: an integer lattice, rounded Gaussians, and 16-d
        points with exact duplicates where nearly every point is a
        center."""
        rng = np.random.default_rng(1)
        lattice = np.stack(
            np.meshgrid(np.arange(12.0), np.arange(12.0)), -1
        ).reshape(-1, 2)
        rounded = np.round(2.0 * rng.normal(size=(400, 3)))
        gauss = rng.normal(size=(300, 16))
        duplicated = np.vstack([gauss, gauss[rng.choice(300, 60, replace=False)]])
        cases = [(make_ds(1), 0.7)] + [
            (MetricDataset(pts), r_bar)
            for pts, radii in (
                (lattice, (1.5, 2.5)),
                (rounded, (1.5, 2.2)),
                (duplicated, (2.0, 3.0)),
            )
            for r_bar in radii
        ]
        for ds, r_bar in cases:
            net = radius_guided_gonzalez(ds, r_bar=r_bar)
            centers = np.asarray(net.centers)
            for p in range(ds.n):
                d = ds.distances_from(p, centers)
                assert net.dist_to_center[p] == pytest.approx(float(d.min()))
                assert net.center_of[p] == np.flatnonzero(d == d.min())[0]

    def test_cover_sets_partition(self):
        ds = make_ds(2)
        net = radius_guided_gonzalez(ds, r_bar=0.4)
        cover = net.cover()
        assert cover.sizes.size == net.n_centers
        assert sorted(cover.flat.tolist()) == list(range(ds.n))

    def test_cover_set_within_r_bar(self):
        ds = make_ds(3)
        net = radius_guided_gonzalez(ds, r_bar=0.4)
        cover = net.cover()
        for j, center in enumerate(net.centers):
            members = cover[j]
            assert np.all(net.center_of[members] == j)
            d = ds.distances_from(center, members)
            assert np.all(d <= 0.4 + 1e-12)

    def test_smaller_r_bar_more_centers(self):
        ds = make_ds(4)
        coarse = radius_guided_gonzalez(ds, r_bar=1.0)
        fine = radius_guided_gonzalez(ds, r_bar=0.2)
        assert fine.n_centers >= coarse.n_centers

    def test_single_center_when_r_bar_huge(self):
        ds = make_ds(5)
        net = radius_guided_gonzalez(ds, r_bar=1e6)
        assert net.n_centers == 1

    def test_invalid_r_bar(self):
        ds = make_ds(6)
        with pytest.raises(ValueError):
            radius_guided_gonzalez(ds, r_bar=0.0)
        with pytest.raises(ValueError):
            radius_guided_gonzalez(ds, r_bar=float("inf"))

    def test_first_index_respected(self):
        ds = make_ds(7)
        net = radius_guided_gonzalez(ds, r_bar=0.5, first_index=13)
        assert net.centers[0] == 13

    def test_first_index_out_of_range(self):
        ds = make_ds(8)
        with pytest.raises(ValueError):
            radius_guided_gonzalez(ds, r_bar=0.5, first_index=ds.n)

    def test_max_centers_cap(self):
        ds = make_ds(9)
        net = radius_guided_gonzalez(ds, r_bar=1e-9, max_centers=5)
        assert net.n_centers == 5


class TestHarvestedByproducts:
    def test_center_distances_match_direct(self):
        ds = make_ds(10)
        net = radius_guided_gonzalez(ds, r_bar=0.5)
        m = net.n_centers
        for i in range(min(m, 10)):
            for j in range(min(m, 10)):
                assert net.center_distances[i, j] == pytest.approx(
                    ds.distance(net.centers[i], net.centers[j]), abs=1e-9
                )

    def test_neighbor_centers_threshold(self):
        ds = make_ds(11)
        net = radius_guided_gonzalez(ds, r_bar=0.5)
        threshold = 2.0
        neighbors = net_neighbor_sets(net, net.r_bar, 1.0, None)
        assert neighbors.n_queries == net.n_centers
        for j in range(net.n_centers):
            neigh = neighbors.row(j)[0]
            assert np.all(np.diff(neigh) > 0)  # ascending positions
            assert j in neigh  # self at distance 0
            for k in range(net.n_centers):
                within = net.center_distances[j, k] <= threshold
                assert (k in neigh) == within

    def test_negative_threshold_rejected(self):
        ds = make_ds(12)
        net = radius_guided_gonzalez(ds, r_bar=0.5)
        with pytest.raises(ValueError):
            net_neighbor_sets(net, net.r_bar, -1.0, None)

    def test_harvested_ball_counts_exact(self):
        ds = make_ds(13)
        eps = 1.0
        net = radius_guided_gonzalez(ds, r_bar=0.5, eps_for_counts=eps)
        counts = net.ball_count_for(eps)
        for j, center in enumerate(net.centers):
            expected = int(np.count_nonzero(ds.distances_from(center) <= eps))
            assert counts[j] == expected

    def test_ball_counts_recompute_other_eps(self):
        ds = make_ds(14)
        net = radius_guided_gonzalez(ds, r_bar=0.5, eps_for_counts=1.0)
        counts = net.ball_count_for(2.0)  # different eps -> recompute path
        for j, center in enumerate(net.centers):
            expected = int(np.count_nonzero(ds.distances_from(center) <= 2.0))
            assert counts[j] == expected

    @staticmethod
    def check_lemma2(realized):
        ds = make_ds(15)
        eps = 1.2
        r_bar = eps / 2.0
        net = radius_guided_gonzalez(ds, r_bar=r_bar)
        radii = net.realized_radii() if realized else r_bar
        neighbors = net_neighbor_sets(net, radii, eps, None)
        cover = net.cover()
        for p in range(0, ds.n, 7):
            ball = set(np.flatnonzero(ds.distances_from(p) <= eps).tolist())
            j = int(net.center_of[p])
            candidates = set(
                int(x) for k in neighbors.row(j)[0] for x in cover[int(k)]
            )
            assert ball <= candidates

    def test_lemma2_candidate_sets_cover_eps_balls(self):
        """Lemma 2: B(p, eps) ⊆ ∪_{e ∈ A_p} C_e with threshold 2r̄+ε."""
        self.check_lemma2(realized=False)

    def test_lemma2_realized_radii_cover_eps_balls(self):
        """The same with each center's realized radius."""
        self.check_lemma2(realized=True)


class TestMetricGeneric:
    def test_edit_distance_net(self):
        strings = ["aaaa", "aaab", "aaac", "zzzz", "zzzy", "mmmm"]
        ds = MetricDataset(strings, EditDistanceMetric())
        net = radius_guided_gonzalez(ds, r_bar=1.5)
        assert net.max_cover_radius() <= 1.5
        # The three well-separated families need at least three centers.
        assert net.n_centers >= 3


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=50),
    st.floats(0.1, 20.0),
)
@settings(max_examples=60, deadline=None)
def test_net_properties_1d(values, r_bar):
    """Property: covering radius <= r̄ and pairwise center separation
    > r̄ for arbitrary 1-D inputs (with duplicates allowed)."""
    pts = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    ds = MetricDataset(pts, EuclideanMetric())
    net = radius_guided_gonzalez(ds, r_bar=r_bar)
    assert net.max_cover_radius() <= r_bar + 1e-9
    m = net.n_centers
    if m >= 2:
        off = net.center_distances[~np.eye(m, dtype=bool)]
        assert off.min() > r_bar - 1e-9


def adversarial_outlier_dataset(seed=3):
    """Many tight fringe-rich clusters plus one distant diffuse outlier
    group — the configuration that exposed the inflated flush radius.

    While the outlier group still holds active points, its (stale)
    group radius dominates ``max(g_e)``.  The buggy flush queried
    *every* pending center at the global bound ``2·max(g_e)``, so the
    long-covered tight groups were dragged into every harvest; the
    per-center bound keeps each group's query at its own reach.
    """
    rng = np.random.default_rng(seed)
    pts = []
    for i in range(50):
        cx, cy = (i % 10) * 8.0, (i // 10) * 8.0
        ang = rng.uniform(0, 2 * np.pi, 120)
        rad = 1.35 * np.sqrt(rng.uniform(0, 1, 120))
        pts.append(np.c_[cx + rad * np.cos(ang), cy + rad * np.sin(ang)])
    pts.append(
        rng.uniform(-50.0, 50.0, (400, 2)) + np.array([10000.0, 0.0])
    )
    return np.vstack(pts)


def uniform_square_dataset(seed=0):
    """4,000 uniform points in the unit square.  At r̄ = 0.01 some
    rounds' probe blocks (old centers owning uncovered points × new
    centers) exceed the brute-block size and the others do not."""
    return np.random.default_rng(seed).uniform(size=(4000, 2))


class TestFlushRadiusCounters:
    """Regression tests for the per-center flush radius fix."""

    def test_counters_shrink_on_adversarial_dataset(self):
        """The global-radius flush measured 41520 peak pair bytes and
        1_048_490 brute candidate scans on this exact dataset; the
        per-center bound must stay strictly below both (measured:
        36672 / 941_377, asserted with ~5% headroom)."""
        ds = MetricDataset(adversarial_outlier_dataset(), EuclideanMetric())
        net = radius_guided_gonzalez(
            ds, r_bar=1.0, index="brute", eps_for_counts=1.0
        )
        assert net.counters["peak_center_matrix_bytes"] <= 39_000
        assert net.counters["net_candidates"] <= 990_000

    def test_backends_identical_on_adversarial_dataset(self):
        """The harvested steal-pair superset differs per backend only
        in float-boundary wobble absorbed by the slack, so the pick
        sequence, assignment, and ball counts must be bit-identical.

        Both inputs have round flushes on both sides of the size test:
        small probe blocks are one brute block, larger ones probe a
        throwaway index of the center index's backend — a grid here,
        brute in the reference."""
        for X, r_bar in (
            (adversarial_outlier_dataset(), 1.0),
            (uniform_square_dataset(), 0.01),
        ):
            ref, other = [
                radius_guided_gonzalez(
                    MetricDataset(X, EuclideanMetric()),
                    r_bar=r_bar,
                    index=backend,
                    eps_for_counts=r_bar,
                )
                for backend in ("brute", "grid")
            ]
            assert isinstance(other.index, GridIndex)
            for net in (ref, other):
                flushes = net.counters["net_flush_rounds"]
                assert 0 < net.counters["net_brute_flushes"] < flushes
            assert ref.centers == other.centers
            np.testing.assert_array_equal(ref.center_of, other.center_of)
            np.testing.assert_array_equal(
                ref.dist_to_center, other.dist_to_center
            )
            np.testing.assert_array_equal(ref.ball_counts, other.ball_counts)


class TestRoundFlush:
    """Small round flushes probe with one brute block: no throwaway
    index per round, and the center index grows once, after the loop."""

    def test_small_rounds_build_no_flush_index(self, monkeypatch):
        """On the blobs-d2 case every round's probe block is small, so
        the loop builds no index beyond the grid-served center index,
        whose centers join it in one ``insert_batch``."""
        built = []

        def recording_build_index(*args, **kwargs):
            index = build_index(*args, **kwargs)
            built.append(index)
            return index

        inserted = []
        insert_batch = GridIndex.insert_batch

        def recording_insert_batch(self, indices):
            inserted.append(len(indices))
            insert_batch(self, indices)

        monkeypatch.setattr(gonzalez, "build_index", recording_build_index)
        monkeypatch.setattr(GridIndex, "insert_batch", recording_insert_batch)
        make, r_bar = TRAVERSAL_CASES["blobs-d2"]
        net = radius_guided_gonzalez(make(), r_bar, index="auto")
        assert isinstance(net.index, GridIndex)
        assert len(built) == 1 and built[0] is net.index
        assert inserted == [net.n_centers - 1]
        rounds = net.counters["net_flush_rounds"]
        assert rounds > 1
        assert net.counters["net_brute_flushes"] == rounds

    def test_flush_counters_reach_the_run_record(self):
        """Exact and approx fold the net's flush counters into their
        ``timings.counters``, so a run record shows the size test's
        choices."""
        make, r_bar = uniform_square_dataset, 0.01
        net = radius_guided_gonzalez(MetricDataset(make()), r_bar)
        for solver in (
            MetricDBSCAN(2.0 * r_bar, 5),
            ApproxMetricDBSCAN(2.0 * r_bar, 5, rho=1.0),
        ):
            counters = solver.fit(MetricDataset(make())).timings.counters
            for key in ("net_flush_rounds", "net_brute_flushes"):
                assert counters[key] == net.counters[key]
            assert counters["net_flush_rounds"] > counters["net_brute_flushes"]
