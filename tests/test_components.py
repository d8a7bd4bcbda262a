"""The numpy connected-components kernel against ``UnionFind``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils import UnionFind
from repro.utils.components import (
    _hook_and_jump,
    component_labels,
    component_roots,
    first_seen_labels,
)

#: Hooking rounds the worst-case shapes below may take at n = 10⁵.
ROUND_BOUND = 20


@st.composite
def edge_lists(draw):
    """``(n, a, b)`` with self-loops, duplicate edges and both
    orientations of some edges mixed in."""
    n = draw(st.integers(0, 200))
    if n == 0:
        return 0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=300))
    loops = draw(st.lists(node, max_size=5))
    edges += [(v, v) for v in loops]
    if edges:
        repeat = draw(st.lists(st.sampled_from(edges), max_size=20))
        edges += repeat + [(v, u) for u, v in repeat]
    edges = draw(st.permutations(edges))
    a = np.array([u for u, _ in edges], dtype=np.int64)
    b = np.array([v for _, v in edges], dtype=np.int64)
    return n, a, b


def union_find(n, a, b):
    uf = UnionFind(n)
    for u, v in zip(a.tolist(), b.tolist()):
        uf.union(u, v)
    return uf


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_connectivity_matches_union_find(graph):
    n, a, b = graph
    uf = union_find(n, a, b)
    roots = component_roots(n, a, b)
    assert roots.shape == (n,)
    for u in range(n):
        # The root is the smallest member of the component.
        assert roots[u] <= u
        assert uf.connected(u, int(roots[u]))
    for u, v in zip(range(n), np.random.default_rng(n).integers(0, max(n, 1), n)):
        assert (roots[u] == roots[v]) == uf.connected(u, int(v))


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.data())
def test_first_seen_labels_match_union_find(graph, data):
    n, a, b = graph
    elements = data.draw(
        st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([])
    )
    uf = union_find(n, a, b)
    roots = component_roots(n, a, b)
    got = first_seen_labels(roots[np.asarray(elements, dtype=np.int64)])
    expected = uf.component_labels(elements)
    assert got.tolist() == [expected[e] for e in elements]
    all_nodes = uf.component_labels()
    assert component_labels(n, a, b).tolist() == [all_nodes[u] for u in range(n)]


def unique_first_seen(keys):
    """First-appearance ids through one ``np.unique`` sort."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size)
    return rank[inverse.ravel()]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_first_seen_labels_match_unique_formulation(data):
    """Keys repeat, and their first appearances run out of key order."""
    top = data.draw(st.integers(0, 60), label="max key")
    keys = np.asarray(
        data.draw(st.lists(st.integers(0, top), max_size=150), label="keys"),
        dtype=np.int64,
    )
    keys = np.concatenate([keys, keys[::-1], keys[: keys.size // 2]])
    got = first_seen_labels(keys)
    assert got.dtype == np.int64
    assert got.tolist() == unique_first_seen(keys).tolist()


def test_first_seen_labels_at_scale():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 200_000, 500_000) * 5
    assert np.array_equal(first_seen_labels(keys), unique_first_seen(keys))


def test_labels_follow_first_appearance():
    assert first_seen_labels(np.array([7, 3, 7, 0, 3, 9])).tolist() == [0, 1, 0, 2, 1, 3]
    a, b = np.array([4, 2]), np.array([3, 0])
    assert component_labels(5, a, b).tolist() == [0, 1, 0, 2, 2]


def test_no_edges_and_no_nodes():
    empty = np.empty(0, dtype=np.int64)
    assert component_labels(0, empty, empty).size == 0
    assert component_labels(3, empty, empty).tolist() == [0, 1, 2]
    assert first_seen_labels(empty).size == 0


def test_mismatched_endpoints_rejected():
    with pytest.raises(ValueError):
        component_roots(3, [0, 1], [2])


def _worst_cases(n):
    rng = np.random.default_rng(0)
    path = rng.permutation(n)
    nodes = np.arange(n)
    yield "path, ascending", nodes[:-1], nodes[1:]
    yield "path, descending", nodes[1:], nodes[:-1]
    yield "path, shuffled labels", path[:-1], path[1:]
    for center in (0, n // 2, n - 1):
        leaves = np.delete(nodes, center)
        yield f"star, center {center}", np.full(n - 1, center), leaves


@pytest.mark.parametrize("case", range(6))
def test_path_and_star_finish_within_round_bound(case):
    n = 100_000
    name, a, b = list(_worst_cases(n))[case]
    roots, rounds = _hook_and_jump(n, a, b)
    assert rounds <= ROUND_BOUND, name
    assert np.all(roots == 0), name
