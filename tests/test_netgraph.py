"""The center graph of Lemma 2 at each center's realized radius.

``center_neighbor_sets`` joins centers ``e`` and ``e'`` when
``dis(e, e') <= rad(e) + τ + rad(e')``.  These tests pin it against
brute force on nets that mix singleton cover sets (scattered outliers,
radius 0) with full ones (tight blobs), with exact duplicates, near the
origin and shifted by 1e7:

- rows are ascending and the graph is symmetric;
- it is a subset of the uniform graph at ``2r̄ + τ``;
- it holds every center pair whose cover sets contain a point pair
  within ``τ``, over all point pairs, by the difference kernel;
- with every radius ``r̄`` it is the uniform graph, exactly.
"""

import numpy as np
import pytest

from repro.core.gonzalez import radius_guided_gonzalez
from repro.datasets import make_blobs
from repro.index import net_neighbor_sets
from repro.metricspace import MetricDataset

BACKENDS = ["brute", "grid", "covertree"]
EPS = 1.0


def mixed_points(dim, seed=0):
    """Five tight blobs, scattered outliers, and 10% exact duplicates."""
    rng = np.random.default_rng(seed)
    std = 0.25 if dim == 2 else 0.1
    means = rng.uniform(-6.0, 6.0, size=(5, dim))
    blobs = means[rng.integers(5, size=300)] + std * rng.normal(size=(300, dim))
    outliers = rng.uniform(-15.0, 15.0, size=(80, dim))
    points = np.vstack([blobs, outliers])
    copies = rng.random(len(points)) < 0.1
    points[copies] = points[rng.integers(len(points), size=int(copies.sum()))]
    return points


def adjacency(graph, m):
    rows = np.repeat(np.arange(m), np.diff(graph.offsets))
    dense = np.zeros((m, m), dtype=bool)
    dense[rows, graph.ids] = True
    return dense


def uniform_graph(net, tau):
    """The graph at one threshold ``2r̄ + τ``, straight from the index."""
    m = net.n_centers
    hits = net.index.range_query_batch_csr(
        np.asarray(net.centers), 2.0 * net.r_bar + tau, with_distances=False
    )
    rows = hits.query_rows()
    cols = net.positions_of()[hits.ids]
    order = np.lexsort((cols, rows))
    offsets = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=m), out=offsets[1:])
    return offsets, cols[order]


@pytest.fixture(scope="module", params=[(2, 0.0), (16, 0.0), (2, 1e7), (16, 1e7)],
                ids=["d2", "d16", "d2-shift1e7", "d16-shift1e7"])
def points(request):
    dim, shift = request.param
    return mixed_points(dim) + shift


@pytest.mark.parametrize("backend", BACKENDS)
def test_realized_graph_against_brute_force(points, backend):
    ds = MetricDataset(points)
    net = radius_guided_gonzalez(ds, EPS / 2.0, index=backend)
    m = net.n_centers
    radii = net.realized_radii()
    sizes = net.cover().sizes
    assert (radii == 0).any() and (sizes > 1).any()  # a mixed net
    graph = net_neighbor_sets(net, radii, EPS, backend)
    assert graph.n_queries == m

    for j in range(m):
        assert np.all(np.diff(graph.row(j)[0]) > 0)
    dense = adjacency(graph, m)
    np.testing.assert_array_equal(dense, dense.T)

    uniform = adjacency(
        net_neighbor_sets(net, np.full(m, net.r_bar), EPS, backend), m
    )
    assert not (dense & ~uniform).any()

    # Every point pair within ε, by the difference kernel.
    sq = np.stack([np.einsum("ij,ij->i", p - points, p - points) for p in points])
    p, q = np.nonzero(sq <= EPS * EPS)
    need = np.zeros((m, m), dtype=bool)
    need[net.center_of[p], net.center_of[q]] = True
    assert not (need & ~dense).any()


@pytest.mark.parametrize("backend", BACKENDS)
def test_equal_radii_give_the_uniform_graph(points, backend):
    ds = MetricDataset(points)
    net = radius_guided_gonzalez(ds, EPS / 2.0, index=backend)
    offsets, ids = uniform_graph(net, EPS)
    for radii in (net.r_bar, np.full(net.n_centers, net.r_bar)):
        graph = net_neighbor_sets(net, radii, EPS, backend)
        np.testing.assert_array_equal(graph.offsets, offsets)
        np.testing.assert_array_equal(graph.ids, ids)


def test_realized_graph_is_smaller_when_cover_sets_are_singletons():
    """The point of the realized radii: on blobs in 16-d most cover
    sets are singletons, whose rows shrink from a (2r̄ + ε)-ball to an
    ε-ball."""
    pts, _ = make_blobs(n=400, n_clusters=8, dim=16, std=0.5, spread=30.0,
                        outlier_fraction=0.05, seed=1)
    eps = 0.9 * 0.5 * np.sqrt(32.0)
    net = radius_guided_gonzalez(MetricDataset(pts), eps / 2.0)
    realized = net_neighbor_sets(net, net.realized_radii(), eps, None)
    uniform = net_neighbor_sets(net, net.r_bar, eps, None)
    assert realized.ids.size < 0.6 * uniform.ids.size


def test_metric_without_band_keeps_the_uniform_graph():
    """A metric that states no rounding band answers every row with the
    uniform query."""
    from repro.metricspace import ManhattanMetric

    ds = MetricDataset(mixed_points(2), ManhattanMetric())
    net = radius_guided_gonzalez(ds, EPS / 2.0, index="brute")
    assert ds.metric.reduced_band(ds.points[:3]) is None
    offsets, ids = uniform_graph(net, EPS)
    graph = net_neighbor_sets(net, net.realized_radii(), EPS, "brute")
    np.testing.assert_array_equal(graph.offsets, offsets)
    np.testing.assert_array_equal(graph.ids, ids)
