"""Distance kernels and the row-min sums priced from them, against reference answers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import floyd_warshall, owned_graphs
from degprice._kernels import APSP_MAX_NODES, UNREACHABLE, apsp, apsp_update_add
from degprice.constructions import build_path
from degprice.costs import GameConfig
from degprice.errors import ResourceCapExceeded
from degprice.graph import OwnedGraph
from degprice.moves import _degrees, _Pricing, _Tariff


@settings(max_examples=50, deadline=None)
@given(owned_graphs())
def test_apsp_matches_floyd_warshall(g):
    assert np.array_equal(apsp(g._adj), floyd_warshall(g))
    for u in range(g.n):
        # taking u out is the same as deleting all of u's edges
        rest = OwnedGraph(g.n, [(a, b) for a, b in g.owned_edges if u not in (a, b)])
        assert np.array_equal(apsp(g._adj, without=u), floyd_warshall(rest))


def test_apsp_reaches_the_far_end_of_a_long_path():
    n = 1000
    i = np.arange(n)
    assert np.array_equal(apsp(build_path(n)._adj), abs(i[:, None] - i[None, :]))


def test_apsp_refuses_a_table_past_the_cap():
    # every row would be a full BFS, so only an up-front check returns at once
    with pytest.raises(ResourceCapExceeded, match=str(APSP_MAX_NODES)):
        apsp([set()] * (APSP_MAX_NODES + 1))
    assert APSP_MAX_NODES >= 1600  # the long-path dynamics stay under it


def test_apsp_peak_memory_is_about_its_table():
    neighbours = [set() for _ in range(2000)]
    tracemalloc.start()
    try:
        table = apsp(neighbours)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * table.nbytes


@settings(max_examples=50, deadline=None)
@given(owned_graphs(), st.data())
def test_incremental_update_matches_recompute(g, data):
    """Adding one edge then patching distances equals a fresh solve."""
    non_edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    if not non_edges:
        return
    u, v = data.draw(st.sampled_from(non_edges))
    dist = apsp(g._adj)
    g.add_edge(u, v)
    apsp_update_add(dist, u, v)
    assert np.array_equal(dist, apsp(g._adj))


@st.composite
def several_components(draw):
    """Two or three owned graphs side by side in one graph."""
    parts = draw(st.lists(owned_graphs(max_n=6), min_size=2, max_size=3))
    g = OwnedGraph(sum(p.n for p in parts))
    offset = 0
    for p in parts:
        for a, b in p.owned_edges:
            g.add_edge(a + offset, b + offset)
        offset += p.n
    return g


@settings(max_examples=50, deadline=None)
@given(several_components(), st.data())
def test_update_chain_matches_recompute(g, data):
    """Patching after each of 1-5 additions, some joining components, equals a fresh solve."""
    dist = apsp(g._adj)
    for _ in range(data.draw(st.integers(1, 5))):
        non_edges = [
            (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
        ]
        if not non_edges:
            break
        u, v = data.draw(st.sampled_from(non_edges))
        g.add_edge(u, v)
        apsp_update_add(dist, u, v)
        assert np.array_equal(dist, apsp(g._adj))


@settings(max_examples=50)
@given(owned_graphs(max_n=7))
def test_addition_row_sums_against_naive(g):
    """Add-only pricing on G's own matrix sums min(dist[u], 1 + dist[v]) per addition."""
    dist = apsp(g._adj)
    free_edges = GameConfig(variant="aog", price_beta=0, price_gamma=0)
    for u in range(g.n):
        pricing = _Pricing(g, u, free_edges, _Tariff(g.n, free_edges), _degrees(g), dist)
        _, targets, got = next(pricing.move_groups(adds_only=True))
        assert targets == [v for v in range(g.n) if v != u and not g.has_edge(u, v)]
        for v, total in zip(targets, got):
            merged = [min(dist[u, w], 1 + dist[v, w]) for w in range(g.n)]
            if max(merged) >= UNREACHABLE:
                assert total == pricing.unreachable
            else:
                assert total == sum(merged)


def test_sentinel_rows_never_overflow():
    # two components: distances across them must clamp, not wrap
    dist = apsp([{1}, {0}, {3}, {2}])
    assert dist[0, 2] == UNREACHABLE
    apsp_update_add(dist, 0, 1)  # re-relaxing an existing edge is a no-op
    assert dist[0, 2] == UNREACHABLE and dist[0, 1] == 1
