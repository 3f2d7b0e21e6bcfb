"""Distance kernels and the row-min sums priced from them, against reference answers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import owned_graphs
from degprice._kernels import UNREACHABLE, apsp, apsp_update_add, row_sums_with_sentinel
from degprice.costs import GameConfig
from degprice.graph import bfs_distances
from degprice.moves import _Pricing


@settings(max_examples=50)
@given(owned_graphs())
def test_apsp_matches_bfs(g):
    dist = apsp(g.adjacency_matrix())
    for s in range(g.n):
        assert np.array_equal(dist[s], bfs_distances(g, s).dist)


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
    dist = apsp(g.adjacency_matrix())
    g.add_edge(u, v)
    apsp_update_add(dist, u, v)
    assert np.array_equal(dist, apsp(g.adjacency_matrix()))


@settings(max_examples=50)
@given(owned_graphs(max_n=7))
def test_addition_row_sums_against_naive(g):
    """Add-only pricing on G's own matrix sums min(dist[u], 1 + dist[v]) per addition."""
    dist = apsp(g.adjacency_matrix())
    free_edges = GameConfig(variant="aog", price_beta=0, price_gamma=0)
    for u in range(g.n):
        _, targets, got = _Pricing(g, u, free_edges, dist).move_groups(adds_only=True)[0]
        assert targets == [v for v in range(g.n) if v != u and not g.has_edge(u, v)]
        for v, total in zip(targets, got):
            merged = [min(dist[u, w], 1 + dist[v, w]) for w in range(g.n)]
            if max(merged) >= UNREACHABLE:
                assert total == UNREACHABLE
            else:
                assert total == sum(merged)


def test_sentinel_rows_never_overflow():
    # two components: distances across them must clamp, not wrap
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[2, 3] = adj[3, 2] = True
    dist = apsp(adj)
    assert dist[0, 2] == UNREACHABLE
    apsp_update_add(dist, 0, 1)  # re-relaxing an existing edge is a no-op
    assert dist[0, 2] == UNREACHABLE and dist[0, 1] == 1
    assert list(row_sums_with_sentinel(np.array([[0, 1], [UNREACHABLE, 0]]))) == [
        1,
        UNREACHABLE,
    ]
