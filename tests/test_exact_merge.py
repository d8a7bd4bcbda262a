"""Exact Step (2) against its reference: the cover-tree closest-pair loop.

The production merge decides neighboring core-set pairs in scheduled
core-pair slices and prunes connected pairs with the numpy components
kernel.  The reference here is the per-center cover-tree loop it
replaced: one cover tree per core set, early-exit nearest-neighbor
queries from the smaller side, and a union-find ``connected`` skip.
Both must produce the same ``center_cluster`` array — hence the same
labels and core mask — on every instance and index backend.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import MetricDBSCAN
from repro.core import exact as exact_module
from repro.core.flatgroups import FlatGroups
from repro.core.gonzalez import radius_guided_gonzalez
from repro.covertree.tree import CoverTree
from repro.datasets import make_blobs, make_moons
from repro.datasets.text import make_text_clusters
from repro.index.netgraph import net_neighbor_sets
from repro.metricspace import EditDistanceMetric, MetricDataset
from repro.metricspace.dataset import pairs_per_slice
from repro.utils import UnionFind

BACKENDS = ["auto", "brute", "grid", "covertree"]

PRODUCTION_MERGE = MetricDBSCAN._merge_cores


def cover_tree_merge_cores(self, dataset, net, neighbors, core_mask):
    """Reference Step (2): per-center cover trees answer the BCP test."""
    m = net.n_centers
    cover = net.cover()
    core_by_center = [cover[j][core_mask[cover[j]]] for j in range(m)]
    occupied = [j for j in range(m) if len(core_by_center[j]) > 0]
    uf = UnionFind(m)
    trees = {}

    def tree_for(j):
        if j not in trees:
            trees[j] = CoverTree(dataset, indices=core_by_center[j])
        return trees[j]

    def bcp_within(j, k):
        # Build the tree on the larger side, query with the smaller.
        if len(core_by_center[j]) >= len(core_by_center[k]):
            tree, queries = tree_for(j), core_by_center[k]
        else:
            tree, queries = tree_for(k), core_by_center[j]
        for q in queries:
            _, dist = tree.nearest(dataset.point(int(q)), early_stop=self.eps)
            if dist <= self.eps:
                return True
        return False

    for j in occupied:
        for k in neighbors.row(j)[0]:
            k = int(k)
            if k <= j or len(core_by_center[k]) == 0 or uf.connected(j, k):
                continue
            if bcp_within(j, k):
                uf.union(j, k)
    center_cluster = np.full(m, -1, dtype=np.int64)
    labels = uf.component_labels(occupied)
    for j in occupied:
        center_cluster[j] = labels[j]
    core = np.flatnonzero(core_mask)
    return center_cluster, FlatGroups.from_assignment(core, net.center_of[core], m)


def fit_with(merge, dataset, eps, min_pts):
    """Exact fit with Step (2) swapped for ``merge``; also returns the
    ``center_cluster`` array it produced."""
    captured = {}

    def spy(self, *args):
        out = merge(self, *args)
        captured["center_cluster"] = out[0]
        return out

    with mock.patch.object(MetricDBSCAN, "_merge_cores", spy):
        result = MetricDBSCAN(eps, min_pts).fit(dataset)
    return result, captured["center_cluster"]


def assert_matches_reference(dataset, eps, min_pts):
    got, got_clusters = fit_with(PRODUCTION_MERGE, dataset, eps, min_pts)
    ref, ref_clusters = fit_with(cover_tree_merge_cores, dataset, eps, min_pts)
    np.testing.assert_array_equal(got_clusters, ref_clusters)
    np.testing.assert_array_equal(got.labels, ref.labels)
    np.testing.assert_array_equal(got.core_mask, ref.core_mask)


def random_instance(seed):
    rng = np.random.default_rng(seed)
    parts = [
        rng.normal(0.0, 0.3, size=(int(rng.integers(15, 60)), 2)),
        rng.normal([5.0, 1.0], 0.4, size=(int(rng.integers(15, 60)), 2)),
        rng.normal([-3.0, 4.0], 0.25, size=(int(rng.integers(10, 40)), 2)),
        rng.uniform(-12.0, 12.0, size=(int(rng.integers(0, 12)), 2)),
    ]
    return MetricDataset(np.vstack(parts))


def bench_blobs(dim, n, spread):
    """The benchmark's blobs workloads: ε = 0.9·0.5·√(2d), MinPts 10."""
    pts, _ = make_blobs(
        n=n, n_clusters=8, dim=dim, std=0.5, spread=spread,
        outlier_fraction=0.05, seed=1,
    )
    return MetricDataset(pts), 0.9 * 0.5 * float(np.sqrt(2.0 * dim)), 10


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    monkeypatch.setenv("REPRO_DEFAULT_INDEX", request.param)
    return request.param


@pytest.mark.parametrize("seed", range(4))
def test_random_instances(backend, seed):
    rng = np.random.default_rng(seed + 1000)
    assert_matches_reference(
        random_instance(seed),
        float(rng.uniform(0.3, 1.0)),
        int(rng.integers(3, 9)),
    )


@pytest.mark.parametrize("eps", [0.08, 0.12])
def test_moons(backend, eps):
    pts, _ = make_moons(n=1200, noise=0.06, outlier_fraction=0.02, seed=0)
    assert_matches_reference(MetricDataset(pts), eps, 10)


@pytest.mark.parametrize(
    "dim,n,spread", [(2, 6000, 100.0), (16, 1200, 30.0)], ids=["d2", "d16"]
)
def test_bench_size_blobs(backend, dim, n, spread):
    assert_matches_reference(*bench_blobs(dim, n, spread))


def test_edit_distance_strings(backend):
    strings, _ = make_text_clusters(n=60, seed_length=24, max_edits=3, seed=0)
    dataset = MetricDataset(strings, EditDistanceMetric())
    assert_matches_reference(dataset, 5.0, 4)


def step2_inputs(dataset, eps, min_pts):
    """The solver and the arguments its Step (2) receives."""
    solver = MetricDBSCAN(eps, min_pts)
    net = radius_guided_gonzalez(dataset, solver.r_bar)
    neighbors = net_neighbor_sets(net, net.realized_radii(), eps, None)
    core_mask = solver._label_cores(dataset, net, neighbors, net.cover())
    return solver, (dataset, net, neighbors, core_mask)


def pair_certified_sizes(monkeypatch):
    """Record the pair count of every ``MetricDataset.pair_certified``."""
    sizes = []
    original = MetricDataset.pair_certified

    def spy(self, a_indices, b_indices, threshold):
        sizes.append(len(a_indices))
        return original(self, a_indices, b_indices, threshold)

    monkeypatch.setattr(MetricDataset, "pair_certified", spy)
    return sizes


def test_exact_fit_builds_no_cover_tree(backend, monkeypatch):
    built = []
    original = CoverTree.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    dataset, eps, min_pts = bench_blobs(2, 2000, 100.0)
    solver, args = step2_inputs(dataset, eps, min_pts)
    monkeypatch.setattr(CoverTree, "__init__", counting_init)
    solver._merge_cores(*args)
    assert built == []
    if backend != "covertree":  # that backend's index is itself a cover tree
        MetricDBSCAN(eps, min_pts).fit(dataset)
        assert built == []


def test_pair_certified_calls_stay_within_a_slice(monkeypatch):
    dataset, eps, min_pts = bench_blobs(2, 6000, 100.0)
    sizes = pair_certified_sizes(monkeypatch)
    MetricDBSCAN(eps, min_pts).fit(dataset)
    assert sizes
    assert max(sizes) <= pairs_per_slice(dataset)


@pytest.mark.parametrize("slice_len", [1, 7, 1000])
def test_tiny_slices_split_blocks_and_match_reference(monkeypatch, slice_len):
    """Slices shorter than one core-pair block still decide every pair
    exactly like the reference."""
    pts, _ = make_moons(n=1200, noise=0.06, outlier_fraction=0.02, seed=0)
    solver, args = step2_inputs(MetricDataset(pts), 0.12, 10)
    expected, _ = cover_tree_merge_cores(solver, *args)
    monkeypatch.setattr(
        exact_module, "pairs_per_slice", lambda dataset, *budget: slice_len
    )
    sizes = pair_certified_sizes(monkeypatch)
    got, _ = solver._merge_cores(*args)
    np.testing.assert_array_equal(got, expected)
    assert sizes and max(sizes) <= slice_len


def test_schedule_is_fixed():
    assert exact_module.MERGE_SCHEDULE == (1, 4, None)
    assert not hasattr(MetricDBSCAN(1.0, 3), "use_cover_tree")
