"""The grid backend's flat cell table against reference answers.

Two properties:

1. **Grid ≡ brute, row by row.**  For random clustered inputs in 1–16
   dimensions (1–3 projected axes), scalar and per-query radii from
   0.05× to 50× the cell width (so both the stencil lookup and the
   occupied-cell scan run), with and without distances, for stored and
   unstored dataset queries and for payload queries, after interleaved
   inserts and deletes down to an empty index: every CSR row holds the
   brute-force ids, and distances agree within the suite's tolerance.
   Dense cases query every point of a tightly packed set, so queries
   sharing a cell are also evaluated as one block.
2. **Exact cells past the int64 range.**  Points more than 2^63 cell
   widths from the origin are clipped into the lattice's edge cells
   without a float→int64 cast warning, and answers stay exact.  The far
   group is small, so the difference kernel decides every pair; brute's
   gram blocks are not a valid reference at that magnitude.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.index import build_index
from repro.index.grid import GridIndex
from repro.metricspace import MetricDataset

from conftest import assert_csr_equal


def _clustered(rng, n, dim):
    centers = rng.uniform(-6.0, 6.0, size=(3, dim))
    pts = centers[rng.integers(3, size=n)] + rng.normal(scale=0.8, size=(n, dim))
    dup = n // 10
    pts[:dup] = pts[dup : 2 * dup]  # exact duplicates share cells
    return pts


def _radii(rng, width, size):
    return width * np.exp(rng.uniform(np.log(0.05), np.log(50.0), size=size))


@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.sampled_from([1, 2, 3, 8, 16]),
    n=st.integers(1, 300),
    per_query=st.booleans(),
    with_distances=st.booleans(),
    dense=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_grid_rows_equal_brute(seed, dim, n, per_query, with_distances, dense):
    rng = np.random.default_rng(seed)
    extra = 20  # dataset points that start out unstored
    pts = _clustered(rng, n + extra, dim)
    ds = MetricDataset(0.05 * pts if dense else pts)
    width = float(rng.uniform(0.2, 1.5))
    stored = rng.choice(n + extra, size=n, replace=False)
    grid = GridIndex(cell_width=width).build(ds, indices=stored)
    brute = build_index("brute", ds, indices=stored)
    live = np.sort(stored)
    for _ in range(int(rng.integers(0, 4))):
        if live.size and rng.random() < 0.25:
            gone = live  # delete to empty
        else:
            gone = rng.choice(live, size=int(rng.integers(0, live.size + 1)),
                              replace=False)
        for index in (grid, brute):
            index.delete_batch(gone)
        live = np.setdiff1d(live, gone)
        free = np.setdiff1d(np.arange(ds.n), live)
        new = rng.choice(free, size=int(rng.integers(0, free.size + 1)),
                         replace=False)
        for index in (grid, brute):
            index.insert_batch(new)
        live = np.union1d(live, new)

    queries = (
        np.arange(ds.n) if dense
        else rng.integers(0, ds.n, size=int(rng.integers(0, 40)))
    )
    radius = (
        _radii(rng, width, queries.size) if per_query
        else float(_radii(rng, width, 1)[0])
    )
    assert_csr_equal(
        grid.range_query_batch_csr(queries, radius, with_distances),
        brute.range_query_batch_csr(queries, radius, with_distances),
    )
    payloads = np.vstack([
        rng.normal(scale=6.0, size=(8, dim)),
        ds.gather(queries[:8]) + rng.normal(scale=0.05, size=(min(8, queries.size), dim)),
    ])
    radius = (
        _radii(rng, width, len(payloads)) if per_query
        else float(_radii(rng, width, 1)[0])
    )
    assert_csr_equal(
        grid.range_query_points_csr(payloads, radius, with_distances),
        brute.range_query_points_csr(payloads, radius, with_distances),
    )


def _far_dataset(span):
    """60 points near the origin plus 40 on the float grid around
    ``span``: with cell width 1, the far group sits ``span`` cell
    widths out, past the int64 range."""
    rng = np.random.default_rng(0)
    near = rng.normal(scale=3.0, size=(60, 2))
    ulp = np.spacing(span)
    far = span + ulp * rng.integers(0, 12, size=(40, 2)).astype(np.float64)
    return MetricDataset(np.vstack([near, far])), ulp


def _reference(ds, stored, queries, radius):
    """Difference-kernel answers: ids ascending and true distances."""
    rows = []
    for q, r in zip(queries, np.broadcast_to(radius, len(queries))):
        diff = ds.gather(stored) - ds.point(int(q))
        d2 = np.einsum("ij,ij->i", diff, diff)
        hit = d2 <= r * r
        rows.append((stored[hit], np.sqrt(d2[hit])))
    return rows


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("span", [1e19, 1e30])
def test_far_cells_are_clipped_not_cast_blindly(span):
    ds, ulp = _far_dataset(span)
    grid = GridIndex(cell_width=1.0).build(ds, indices=np.arange(0, ds.n, 2))
    grid.insert_batch(np.arange(1, ds.n, 2))
    grid.delete_batch(np.arange(0, ds.n, 9))
    stored = np.setdiff1d(np.arange(ds.n), np.arange(0, ds.n, 9))
    queries = np.arange(0, ds.n, 3)
    for radius in (2.5, 3.0 * ulp, np.where(queries < 60, 2.5, 3.0 * ulp)):
        want = _reference(ds, stored, queries, radius)
        got = grid.range_query_batch_csr(queries, radius)
        masks = grid.range_query_points_csr(
            ds.gather(queries), radius, with_distances=False
        )
        for i, (w_ids, w_d) in enumerate(want):
            g_ids, g_d = got.row(i)
            np.testing.assert_array_equal(g_ids, w_ids)
            np.testing.assert_allclose(g_d, w_d, rtol=1e-12)
            np.testing.assert_array_equal(masks.row(i)[0], w_ids)
