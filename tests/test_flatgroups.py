"""``FlatGroups`` against per-group Python lists.

The solvers compose the CSR center graph with flat point groups
(``FlatGroups.expand``) and fan center pairs out to group members
(``FlatGroups.take``).  Both must equal the list concatenations they
replace, element for element and in the same order, including empty
groups, empty graph rows and repeated groups.  ``rectangle_slices``
must walk the cells of its rectangles exactly as nested loops would.
"""

import numpy as np
import pytest

from repro.core.flatgroups import FlatGroups, rectangle_slices
from repro.index.csr import CSRQueryResult


def random_groups(rng, m, n):
    """``m`` groups over ``n`` items (some groups empty) as FlatGroups
    plus the reference lists."""
    assign = rng.integers(0, m, size=n)
    items = rng.permutation(n) + 1000
    groups = FlatGroups.from_assignment(items, assign, m)
    lists = [items[assign == j] for j in range(m)]
    return groups, lists


def random_graph(rng, n_rows, m):
    """A CSR graph over ``m`` group ids, with empty rows."""
    counts = rng.integers(0, 5, size=n_rows)
    offsets = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return CSRQueryResult(offsets, rng.integers(0, m, size=int(offsets[-1])))


@pytest.mark.parametrize("seed", range(5))
def test_from_assignment_keeps_item_order(seed):
    rng = np.random.default_rng(seed)
    groups, lists = random_groups(rng, m=12, n=60)
    assert groups.sizes.tolist() == [len(x) for x in lists]
    for j, want in enumerate(lists):
        np.testing.assert_array_equal(groups[j], want)


@pytest.mark.parametrize("seed", range(5))
def test_take_concatenates_groups_in_order(seed):
    rng = np.random.default_rng(seed)
    groups, lists = random_groups(rng, m=12, n=60)
    picked = rng.integers(0, 12, size=30)  # repeats included
    taken = groups.take(picked)
    assert taken.sizes.tolist() == [len(lists[j]) for j in picked]
    np.testing.assert_array_equal(
        taken.flat, np.concatenate([lists[j] for j in picked])
    )
    for k, j in enumerate(picked):
        np.testing.assert_array_equal(taken[k], lists[j])


@pytest.mark.parametrize("seed", range(5))
def test_expand_composes_graph_rows(seed):
    rng = np.random.default_rng(seed)
    groups, lists = random_groups(rng, m=12, n=60)
    graph = random_graph(rng, n_rows=20, m=12)
    rows = np.sort(rng.choice(20, size=9, replace=False))
    expanded = groups.expand(graph, rows)
    assert expanded.sizes.size == rows.size
    for k, r in enumerate(rows):
        listed = graph.row(int(r))[0]
        want = (
            np.concatenate([lists[j] for j in listed])
            if listed.size
            else np.empty(0, dtype=np.int64)
        )
        np.testing.assert_array_equal(expanded[k], want)


def test_expand_over_no_rows_is_empty():
    groups, _ = random_groups(np.random.default_rng(0), m=4, n=10)
    graph = random_graph(np.random.default_rng(1), n_rows=3, m=4)
    expanded = groups.expand(graph, np.empty(0, dtype=np.intp))
    assert expanded.sizes.size == 0 and expanded.flat.size == 0


@pytest.mark.parametrize("seed", range(5))
def test_rectangle_slices_walk_cells_in_row_major_order(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, 15))
    n_rows = rng.integers(0, 5, size=k)
    n_cols = rng.integers(0, 6, size=k)
    want = [
        (rect, r, c)
        for rect in range(k)
        for r in range(n_rows[rect])
        for c in range(n_cols[rect])
    ]
    for slice_len in (1, 2, 3, 7, 1000):
        got = []
        for rect, r, c in rectangle_slices(n_rows, n_cols, slice_len):
            assert rect.size <= slice_len
            got += zip(rect.tolist(), r.tolist(), c.tolist())
        assert got == want
