"""Tests for the vectorized streaming ingestion engine.

Two load-bearing properties:

1. **Backend CSR equivalence** — every backend's flat CSR answers
   (``offsets``, ``ids``, ``dists``) must describe exactly the rows of
   the brute-force scan, in the same order, with the same distances,
   for scalar and per-query radii, with and without distances.
2. **Chunk steps == one arrival at a time** — :class:`PerElementReference`
   runs Algorithm 3 the straightforward way: pass 1 takes each arrival
   on its own against the chunk-start snapshot plus the centers born
   earlier in the chunk, and the indexed passes consume their index
   answers row by row.  The production passes (one shared epoch loop
   for pass 1, CSR sweeps for passes 2 and 3) must reproduce the
   index-free reference's labels and footprint exactly under every
   index setting, and the indexed reference's deterministic work
   counters (``distance_evals``, ``n_candidates``,
   ``n_range_queries``) — not merely close.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.streaming as streaming
from repro.core.streaming import StreamingApproxDBSCAN, stream_chunks
from repro.core.windowed import WindowedApproxDBSCAN
from repro.datasets import make_blobs
from repro.index import build_index, segment_argmin
from repro.index.base import NeighborIndex
from repro.index.csr import CSRQueryResult, csr_from_parts, csr_from_rows
from repro.index.registry import DEFAULT_INDEX_ENV, build_index
from repro.metricspace import EditDistanceMetric, MetricDataset
from repro.metricspace.dataset import GrowingMetricDataset, rows_per_block
from repro.utils.components import component_labels
from conftest import assert_csr_equal
from test_windowed_ingest import index_free_view

BACKENDS = ("brute", "grid", "covertree")
#: Index specs the streaming solvers are exercised under; ``auto``
#: resolves through the registry policy, the rest force a backend.
INDEX_SETTINGS = ("auto", "brute", "grid", "covertree")

COUNTER_KEYS = ("distance_evals", "n_candidates", "n_range_queries")


STATS_KEYS = ("n_centers", "watch_size", "summary_size", "memory_points")


def _counters(result):
    return {k: result.timings.counters.get(k, 0) for k in COUNTER_KEYS}


def _words(n=180, seed=3):
    rng = np.random.default_rng(seed)
    alphabet = list("abcdef")
    stems = ["".join(rng.choice(alphabet, size=8)) for _ in range(6)]
    out = []
    for _ in range(n):
        stem = list(stems[int(rng.integers(len(stems)))])
        for _ in range(int(rng.integers(0, 3))):
            stem[int(rng.integers(len(stem)))] = str(
                rng.choice(alphabet)
            )
        out.append("".join(stem))
    return out


# ----------------------------------------------------------------------
# CSR container + kernels


class TestCSRContainer:
    def test_round_trip_and_views(self):
        rows = [
            (np.array([3, 7]), np.array([0.5, 1.5])),
            (np.array([], dtype=np.intp), np.array([])),
            (np.array([1]), np.array([0.25])),
        ]
        csr = csr_from_rows(rows, with_distances=True)
        assert csr.n_queries == 3
        assert len(csr) == 3
        np.testing.assert_array_equal(csr.offsets, [0, 2, 2, 3])
        np.testing.assert_array_equal(csr.ids, [3, 7, 1])
        np.testing.assert_allclose(csr.dists, [0.5, 1.5, 0.25])
        np.testing.assert_array_equal(csr.counts(), [2, 0, 1])
        np.testing.assert_array_equal(csr.query_rows(), [0, 0, 2])
        for i, (w_ids, w_d) in enumerate(rows):
            g_ids, g_d = csr.row(i)
            np.testing.assert_array_equal(g_ids, w_ids)
            np.testing.assert_allclose(g_d, w_d)

    def test_empty(self):
        csr = CSRQueryResult.empty(4, with_distances=False)
        assert csr.n_queries == 4
        assert csr.ids.size == 0
        assert csr.dists is None
        assert all(csr.row(i)[0].size == 0 for i in range(4))

    def test_offsets_validated(self):
        with pytest.raises(ValueError):
            CSRQueryResult(
                np.array([0, 2]), np.array([1, 2, 3]), None
            )

    def test_csr_from_parts_sorts_rows(self):
        # Parts arrive interleaved by block; assembly must be stable
        # per query row so within-row candidate order is preserved.
        csr = csr_from_parts(
            3,
            [np.array([2, 0]), np.array([0, 2])],
            [np.array([10, 11]), np.array([12, 13])],
            None,
        )
        np.testing.assert_array_equal(csr.counts(), [2, 0, 2])
        np.testing.assert_array_equal(csr.row(0)[0], [11, 12])
        np.testing.assert_array_equal(csr.row(2)[0], [10, 13])


class TestSegmentArgmin:
    def test_basic_and_empty_segments(self):
        values = np.array([5.0, 2.0, 9.0, 1.0, 4.0])
        offsets = np.array([0, 2, 2, 5])
        arg, minima = segment_argmin(values, offsets)
        np.testing.assert_array_equal(arg, [1, -1, 3])
        assert minima[0] == 2.0
        assert np.isinf(minima[1])
        assert minima[2] == 1.0

    def test_tie_break_is_first_occurrence(self):
        values = np.array([3.0, 1.0, 1.0, 1.0, 1.0])
        offsets = np.array([0, 3, 5])
        arg, _ = segment_argmin(values, offsets)
        np.testing.assert_array_equal(arg, [1, 3])

    def test_all_empty(self):
        arg, minima = segment_argmin(
            np.array([]), np.array([0, 0, 0])
        )
        np.testing.assert_array_equal(arg, [-1, -1])
        assert np.isinf(minima).all()


# ----------------------------------------------------------------------
# Backend CSR == brute-force CSR


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendCSREquivalence:
    def _dataset(self):
        pts, _ = make_blobs(
            n=240, n_clusters=4, dim=8, std=0.7, spread=5.0,
            outlier_fraction=0.1, seed=0,
        )
        return MetricDataset(pts)

    def _assert_match(self, csr, want):
        assert_csr_equal(csr, want)
        for i in range(csr.n_queries):
            assert np.all(np.diff(csr.row(i)[0]) > 0)  # sorted ascending

    @pytest.mark.parametrize("with_distances", [True, False])
    def test_scalar_radius(self, backend, with_distances):
        ds = self._dataset()
        index = build_index(backend, ds, radius_hint=1.8)
        queries = np.arange(0, ds.n, 3, dtype=np.intp)
        csr = index.range_query_batch_csr(
            queries, 1.8, with_distances=with_distances
        )
        want = build_index("brute", ds).range_query_batch_csr(
            queries, 1.8, with_distances=with_distances
        )
        self._assert_match(csr, want)
        assert csr.ids.size > 0  # non-degenerate instance

    def test_per_query_radii(self, backend):
        ds = self._dataset()
        index = build_index(backend, ds, radius_hint=2.0)
        queries = np.arange(0, 60, dtype=np.intp)
        radii = np.linspace(0.4, 2.4, queries.size)
        csr = index.range_query_batch_csr(queries, radii)
        want = build_index("brute", ds).range_query_batch_csr(queries, radii)
        self._assert_match(csr, want)

    @pytest.mark.parametrize("with_distances", [True, False])
    def test_payload_queries(self, backend, with_distances):
        ds = self._dataset()
        index = build_index(backend, ds, radius_hint=1.5)
        rng = np.random.default_rng(7)
        payloads = ds.points[::5] + rng.normal(0, 0.05, ds.points[::5].shape)
        csr = index.range_query_points_csr(
            payloads, 1.5, with_distances=with_distances
        )
        want = build_index("brute", ds).range_query_points_csr(
            payloads, 1.5, with_distances=with_distances
        )
        self._assert_match(csr, want)

    @pytest.mark.parametrize("n_stored", [30, 240], ids=["more-queries", "fewer-queries"])
    def test_block_shapes_match_direct_distances(self, backend, n_stored):
        """120 queries against 30 or 240 stored points: blocks with more
        queries than stored points and with fewer, so a row/column
        mix-up in the flat hit assembly fails one of them."""
        ds = self._dataset()
        index = build_index(
            backend, ds, indices=np.arange(n_stored), radius_hint=1.8
        )
        queries = np.arange(0, ds.n, 2, dtype=np.intp)
        d = np.linalg.norm(
            ds.points[queries, None, :] - ds.points[None, :n_stored, :], axis=2
        )
        want_rows, want_ids = np.nonzero(d <= 1.8)
        assert want_ids.size > 0
        for csr in (
            index.range_query_batch_csr(queries, 1.8, with_distances=False),
            index.range_query_points_csr(ds.points[queries], 1.8),
        ):
            np.testing.assert_array_equal(csr.query_rows(), want_rows)
            np.testing.assert_array_equal(csr.ids, want_ids)

    def test_counters_advance_identically(self, backend):
        """Index queries and payload queries of the same points count
        the same queries and candidates."""
        ds = self._dataset()
        a = build_index(backend, ds, radius_hint=1.8)
        b = build_index(backend, ds, radius_hint=1.8)
        queries = np.arange(0, ds.n, 4, dtype=np.intp)
        a.reset_counters()
        b.reset_counters()
        a.range_query_batch_csr(queries, 1.8)
        b.range_query_points_csr(ds.points[queries], 1.8)
        assert a.counters() == b.counters()


@pytest.mark.parametrize("backend", ("brute", "covertree"))
def test_csr_equivalence_edit_distance(backend):
    strings = _words(n=120, seed=2)
    ds = MetricDataset(strings, EditDistanceMetric())
    index = build_index(backend, ds, radius_hint=3.0)
    queries = np.arange(0, ds.n, 2, dtype=np.intp)
    csr = index.range_query_batch_csr(queries, 3.0)
    # The reference is one dense block of true distances, no index.
    d = ds.cross(queries)
    rows, cols = np.nonzero(d <= 3.0)
    offsets = np.zeros(queries.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=queries.size), out=offsets[1:])
    assert_csr_equal(csr, CSRQueryResult(offsets, cols, d[rows, cols]))


# ----------------------------------------------------------------------
# The per-element reference


class PerElementReference:
    """Algorithm 3 one arrival at a time, with the configuration of
    ``solver``.

    Pass 1 reads the stream in the production chunks.  Each chunk's
    snapshot is one range query of the center index, or, with
    ``index_free=True``, one dense block against the centers.  Every
    arrival then gets one ``reduced_distance_many`` call — to its
    snapshot hits plus the centers born earlier in the chunk (indexed),
    or to those births alone, next to its block row (index-free) —
    counts its ε-hits, takes the first argmin, and becomes a center, a
    watch-list entry, or neither.  Indexed, pass 2 counts each watch
    point's ε-ball and merges ``S*`` from the watch and summary indexes
    row by row, and pass 3 labels row by row through the center and
    summary indexes.  Index-free, passes 2 and 3 scan dense blocks:
    certified masks for the recount and the merge, float64 argmins for
    the labels.

    The indexed reference builds its indexes from ``solver.index``
    (``None`` resolving to the process default, as in the solver), so
    it checks the solver's work counters, not its labels: the labels
    are checked against the index-free reference, which builds no index
    and so cannot share a backend's mistake.
    """

    def __init__(self, solver: StreamingApproxDBSCAN, index_free: bool = False) -> None:
        self.solver = solver
        self.index_free = index_free

    def _spec(self):
        spec = self.solver.index
        return spec.spawn() if isinstance(spec, NeighborIndex) else spec

    def fit_stream(self, factory, metric=None) -> Tuple[np.ndarray, Dict, Optional[Dict]]:
        """Labels, footprint stats and work counters (``None`` when
        index-free)."""
        cfg = self.solver
        metric = metric if metric is not None else cfg.metric
        spec = cfg.index
        indexed = not self.index_free
        eps, min_pts, rho = cfg.eps, cfg.min_pts, cfg.rho
        red_eps = metric.reduce_threshold(eps)
        red_r = metric.reduce_threshold(cfg.r_bar)
        probe = max(eps, cfg.r_bar)
        centers = GrowingMetricDataset(metric)
        detected: List[int] = []
        watch = GrowingMetricDataset(metric)
        watch_center: List[int] = []
        watch_is_center: List[bool] = []
        center_index = None

        # -- pass 1 ----------------------------------------------------
        for chunk in stream_chunks(
            factory(), lambda: rows_per_block(max(1, len(centers)))
        ):
            m0 = len(centers)
            if m0 and indexed:
                snapshot = center_index.range_query_points_csr(
                    chunk, probe, with_distances=False
                )
            elif m0:
                block = metric.reduced_cross(chunk, centers.view())
            for i, payload in enumerate(chunk):
                if indexed:
                    cand = np.arange(m0, len(centers), dtype=np.intp)
                    if m0:
                        cand = np.concatenate([snapshot.row(i)[0], cand])
                    red = (
                        metric.reduced_distance_many(payload, centers.gather(cand))
                        if cand.size else np.empty(0)
                    )
                else:
                    cand = np.arange(len(centers), dtype=np.intp)
                    red = block[i] if m0 else np.empty(0)
                    if len(centers) > m0:
                        red = np.concatenate([
                            red,
                            metric.reduced_distance_many(
                                payload, centers.view()[m0:]
                            ),
                        ])
                red = np.asarray(red, dtype=np.float64)
                for c in cand[red <= red_eps]:
                    detected[int(c)] += 1
                if red.size:
                    k = int(np.argmin(red))
                    nearest, nearest_red = int(cand[k]), float(red[k])
                else:
                    nearest, nearest_red = -1, np.inf
                if nearest_red > red_r:
                    j = centers.append(payload)
                    detected.append(1)  # the center counts itself
                    watch.append(payload)
                    watch_center.append(j)
                    watch_is_center.append(True)
                elif detected[nearest] < min_pts:
                    watch.append(payload)
                    watch_center.append(nearest)
                    watch_is_center.append(False)
            if indexed and len(centers) > m0:
                if center_index is None:
                    center_index = build_index(spec, centers, radius_hint=probe)
                else:
                    center_index.insert_batch(
                        np.arange(center_index.n_stored, len(centers))
                    )

        # -- pass 2: recount, S*, merge --------------------------------
        counts = np.zeros(len(watch), dtype=np.int64)
        watch_index = None
        if indexed:
            watch_index = build_index(self._spec(), watch, radius_hint=eps)
        for chunk in stream_chunks(factory(), lambda: rows_per_block(len(watch))):
            if watch_index is not None:
                hits = watch_index.range_query_points_csr(
                    chunk, eps, with_distances=False
                )
                for i in range(hits.n_queries):
                    counts[hits.row(i)[0]] += 1
            else:
                mask = metric.cross_certified(chunk, watch.view(), eps)
                counts += np.count_nonzero(mask, axis=0)
        watch_core = counts >= min_pts
        center_is_core = np.asarray(detected, dtype=np.int64) >= min_pts
        for pos, j in enumerate(watch_center):
            if watch_is_center[pos] and watch_core[pos]:
                center_is_core[j] = True
        summary = GrowingMetricDataset(metric)
        center_pos = np.full(len(centers), -1, dtype=np.int64)
        for j in range(len(centers)):
            if center_is_core[j]:
                center_pos[j] = summary.append(centers.get(j))
        for pos, j in enumerate(watch_center):
            if watch_core[pos] and not watch_is_center[pos] and not center_is_core[j]:
                summary.append(watch.get(pos))
        size = len(summary)
        merge_radius = (1.0 + rho) * eps
        summary_index = None
        if indexed and size:
            summary_index = build_index(
                self._spec(), summary, radius_hint=merge_radius
            )
            rows = summary_index.range_query_batch_csr(
                np.arange(size, dtype=np.intp), merge_radius, with_distances=False
            )
            edges = [(a, int(b)) for a in range(size) for b in rows.row(a)[0] if b > a]
        elif size:
            mask = metric.cross_certified(summary.view(), summary.view(), merge_radius)
            edges = list(zip(*np.nonzero(np.triu(mask, 1))))
        else:
            edges = []
        cluster = component_labels(
            size, [a for a, _ in edges], [b for _, b in edges]
        )
        fallback = (1.0 + rho / 2.0) * eps

        # -- pass 3 ----------------------------------------------------
        labels: List[int] = []
        for chunk in stream_chunks(
            factory(), lambda: rows_per_block(max(1, len(centers) + size))
        ):
            chunk_labels = [-1] * len(chunk)
            if indexed:
                rest = []
                hits = center_index.range_query_points_csr(
                    chunk, cfg.r_bar, with_distances=False
                )
                for i, payload in enumerate(chunk):
                    ids = hits.row(i)[0]
                    if ids.size:
                        red = metric.reduced_distance_many(payload, centers.gather(ids))
                        j = int(ids[int(np.argmin(red))])
                        if center_is_core[j]:
                            chunk_labels[i] = int(cluster[center_pos[j]])
                            continue
                    rest.append(i)
                if rest and summary_index is not None:
                    shits = summary_index.range_query_points_csr(
                        [chunk[i] for i in rest], fallback, with_distances=False
                    )
                    for row, i in enumerate(rest):
                        ids = shits.row(row)[0]
                        if ids.size:
                            red = metric.reduced_distance_many(
                                chunk[i], summary.gather(ids)
                            )
                            chunk_labels[i] = int(cluster[int(ids[int(np.argmin(red))])])
            else:
                block = metric.reduced_cross(chunk, centers.view())
                rest = []
                for i in range(len(chunk)):
                    j = int(np.argmin(block[i]))
                    if center_is_core[j] and block[i, j] <= red_r:
                        chunk_labels[i] = int(cluster[center_pos[j]])
                    else:
                        rest.append(i)
                if rest and size:
                    sblock = metric.reduced_cross(
                        [chunk[i] for i in rest], summary.view()
                    )
                    for row, i in enumerate(rest):
                        k = int(np.argmin(sblock[row]))
                        if sblock[row, k] <= metric.reduce_threshold(fallback):
                            chunk_labels[i] = int(cluster[k])
            labels.extend(chunk_labels)

        stats = {
            "n_centers": len(centers),
            "watch_size": len(watch),
            "summary_size": size,
            "memory_points": len(centers) + len(watch),
        }
        if not indexed:
            return np.asarray(labels, dtype=np.int64), stats, None
        work = dict.fromkeys(COUNTER_KEYS, 0)
        for idx in (center_index, watch_index, summary_index):
            if idx is not None:
                for key, value in idx.counters().items():
                    if key in work:
                        work[key] += value
        work["distance_evals"] = sum(
            store.n_cross_evals for store in (centers, watch, summary)
        )
        return np.asarray(labels, dtype=np.int64), stats, work


def _assert_matches_reference(result, reference) -> None:
    labels, stats, work = reference
    # Bit-identical labels — not up-to-relabeling, *identical*: both
    # visit arrivals in the same order and must make the same
    # center/watch/label decisions.
    np.testing.assert_array_equal(result.labels, labels)
    assert {k: result.stats[k] for k in STATS_KEYS} == stats
    if work is not None:
        # Same evaluations, only scheduled differently.
        assert _counters(result) == work


def _assert_matches_references(solver, result, factory, metric=None, oracle=None):
    """``result`` (a fit of ``solver``) against the index-free
    reference (``oracle``, computed when not given) and, for its work
    counters, the reference indexed like the solver."""
    if oracle is None:
        oracle = PerElementReference(solver, index_free=True).fit_stream(factory, metric)
    _assert_matches_reference(result, oracle)
    _assert_matches_reference(result, PerElementReference(solver).fit_stream(factory, metric))


# ----------------------------------------------------------------------
# Chunk steps == the per-element reference


@st.composite
def _blob_streams(draw):
    """Tight blobs plus 0–100% far outliers, shuffled into one stream;
    snapped to a coarse lattice when ``lattice`` is drawn, so that
    exact distance ties (and duplicate points) exercise the first-wins
    tie-breaks."""
    n = draw(st.integers(1, 400))
    dim = draw(st.sampled_from([1, 2, 5]))
    n_out = int(round(draw(st.floats(0.0, 1.0)) * n))
    k = draw(st.integers(1, 4))
    lattice = draw(st.sampled_from([None, 0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blob_centers = rng.uniform(-8.0, 8.0, size=(k, dim))
    blobs = blob_centers[rng.integers(k, size=n - n_out)] + rng.normal(
        0.0, 0.3, size=(n - n_out, dim)
    )
    outliers = rng.uniform(-200.0, 200.0, size=(n_out, dim))
    pts = rng.permutation(np.vstack([blobs, outliers]))
    if lattice is not None:
        pts = np.round(pts / lattice) * lattice
    return pts, dim


@settings(max_examples=25, deadline=None)
@given(
    stream=_blob_streams(),
    rho=st.sampled_from([0.5, 1.0, 2.0]),
    min_pts=st.integers(2, 8),
    max_chunk=st.integers(1, 64),
)
def test_chunk_steps_match_per_element_reference(stream, rho, min_pts, max_chunk):
    """Small chunks put every pass-1 chunk after the first on the
    snapshot branch, under every index setting.  ε is a multiple of the
    lattice step, so lattice streams also tie exactly at ε and r̄."""
    pts, dim = stream
    eps = {1: 0.5, 2: 0.75, 5: 1.0}[dim]
    ds = MetricDataset(pts)
    with mock.patch.object(streaming, "_MAX_CHUNK", max_chunk):
        oracle = PerElementReference(
            StreamingApproxDBSCAN(eps, min_pts, rho=rho), index_free=True
        ).fit_stream(lambda: iter(pts), metric=ds.metric)
        for spec in (None,) + INDEX_SETTINGS:
            solver = StreamingApproxDBSCAN(eps, min_pts, rho=rho, index=spec)
            _assert_matches_references(
                solver, solver.fit(ds), lambda: iter(pts), ds.metric, oracle
            )


@pytest.mark.parametrize("spec", (None,) + INDEX_SETTINGS)
@pytest.mark.parametrize("max_chunk", [4, 4096], ids=["snapshot", "births"])
def test_argmin_ties_go_to_the_older_center(monkeypatch, spec, max_chunk):
    """0.5 lies exactly r̄ = ε from the centers 0 and 1.  The older
    center (0, already core) must win the tie, so 0.5 is not watched;
    the newer one (1, one hit short of MinPts) would watch it.  The tie
    falls in the chunk-start snapshot (chunks of 4) or between two
    births of one chunk."""
    monkeypatch.setattr(streaming, "_MAX_CHUNK", max_chunk)
    pts = np.array([[0.0], [0.0], [0.0], [1.0], [0.5]])
    solver = StreamingApproxDBSCAN(0.5, 3, rho=2.0, index=spec)
    result = solver.fit(MetricDataset(pts))
    _assert_matches_references(solver, result, lambda: iter(pts))
    assert result.stats["watch_size"] == 3  # both centers and the second 0.0


@pytest.fixture(scope="module")
def beyond_one_chunk():
    """5,000 blob points and the index-free reference's answer on them."""
    pts, _ = make_blobs(
        n=5000, n_clusters=4, dim=2, std=0.35, spread=9.0,
        outlier_fraction=0.04, seed=21,
    )
    oracle = PerElementReference(
        StreamingApproxDBSCAN(0.7, 6, rho=0.5), index_free=True
    ).fit_stream(lambda: iter(pts))
    return pts, oracle


@pytest.mark.parametrize("spec", (None, "auto", "brute", "grid"))
def test_stream_beyond_one_chunk_matches_reference(beyond_one_chunk, spec):
    """Unpatched chunking: the first 4096 arrivals meet no centers, the
    rest take the chunk-start snapshot.  (The cover tree takes seconds
    here; the property above covers its snapshots.)"""
    pts, oracle = beyond_one_chunk
    ds = MetricDataset(pts)
    solver = StreamingApproxDBSCAN(0.7, 6, rho=0.5, index=spec)
    result = solver.fit(ds)
    _assert_matches_references(solver, result, lambda: iter(pts), ds.metric, oracle)
    assert _counters(result)["n_range_queries"] > 0


@pytest.mark.parametrize("spec", ("auto", "brute", "covertree"))
def test_epoch_parity_edit_distance_stream(monkeypatch, spec):
    """Non-vector payloads take the list-based expansion path; short
    chunks make the string snapshots run too."""
    monkeypatch.setenv(DEFAULT_INDEX_ENV, spec)
    monkeypatch.setattr(streaming, "_MAX_CHUNK", 16)
    words = _words()
    metric = EditDistanceMetric()

    def factory():
        return iter(list(words))

    oracle = PerElementReference(
        StreamingApproxDBSCAN(2.0, 4, rho=0.5, metric=metric), index_free=True
    ).fit_stream(factory)
    for index in (None, spec):
        solver = StreamingApproxDBSCAN(2.0, 4, rho=0.5, metric=metric, index=index)
        _assert_matches_references(
            solver, solver.fit_stream(factory), factory, oracle=oracle
        )


def test_grid_env_preference_falls_back_for_strings(monkeypatch):
    """A process-wide grid preference must not break string streams:
    the registry falls back to the auto policy for metrics grid cannot
    serve, and the labels still match the index-free reference."""
    monkeypatch.setenv(DEFAULT_INDEX_ENV, "grid")
    words = _words(n=120, seed=5)
    metric = EditDistanceMetric()

    def factory():
        return iter(list(words))

    default = StreamingApproxDBSCAN(2.0, 4, rho=0.5, metric=metric)
    oracle = PerElementReference(default, index_free=True).fit_stream(factory)
    result = default.fit_stream(factory)
    assert result.stats["index_backend"] != "grid"
    _assert_matches_reference(result, oracle)
    auto = StreamingApproxDBSCAN(2.0, 4, rho=0.5, metric=metric, index="auto")
    _assert_matches_reference(auto.fit_stream(factory), oracle)


# ----------------------------------------------------------------------
# Windowed insert_many consumes the same CSR machinery


@pytest.mark.parametrize("backend", BACKENDS)
def test_windowed_insert_many_matches_insert(backend):
    rng = np.random.default_rng(11)
    pts = np.vstack([
        rng.normal([0.0, 0.0], 0.25, size=(140, 2)),
        rng.normal([6.0, 0.0], 0.25, size=(140, 2)),
        rng.normal([3.0, 40.0], 0.25, size=(20, 2)),
    ])
    order = rng.permutation(len(pts))
    pts = pts[order]

    def build():
        return WindowedApproxDBSCAN(
            1.0, 5, rho=0.5, window=240, n_buckets=6, index=backend
        )

    one = build()
    for p in pts:
        one.insert(p)
    many = build()
    many.insert_many(pts)
    _, dense_clusters, _ = index_free_view(many, pts, [])

    assert many.n_live_centers == one.n_live_centers
    assert many.n_clusters == one.n_clusters == dense_clusters
    probes = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 40.0], [50.0, 50.0]])
    for p in probes:
        assert many.predict(p) == one.predict(p)
