"""Distance kernels and the row-min sums priced from them, against reference answers."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import floyd_warshall, owned_graphs
from degprice import _kernels
from degprice._kernels import APSP_MAX_NODES, UNREACHABLE, apsp, apsp_update_add, apsp_without
from degprice.constructions import build_path, build_star
from degprice.costs import GameConfig, evaluate_deviation
from degprice.errors import ResourceCapExceeded
from degprice.graph import OwnedGraph
from degprice.moves import (
    BEST_SINGLE_EDGE,
    FIRST_IMPROVING_SINGLE_MOVE,
    DeleteEdge,
    ReplaceStrategy,
    SwapEdge,
    _Position,
    _Pricing,
    strategy_after,
)


def without(g, u):
    """g with all of u's edges deleted: G - u on the same node ids."""
    return OwnedGraph(g.n, [(a, b) for a, b in g.owned_edges if u not in (a, b)])


@settings(max_examples=50, deadline=None)
@given(owned_graphs())
def test_apsp_matches_floyd_warshall(g):
    assert np.array_equal(apsp(g._adj), floyd_warshall(g))
    for u in range(g.n):
        rest = without(g, u)
        assert np.array_equal(apsp(rest._adj), floyd_warshall(rest))


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
    """u gaining edges to a set of non-neighbours, then patching distances, equals a fresh solve."""
    u = data.draw(st.integers(0, g.n - 1))
    strangers = [v for v in range(g.n) if v != u and not g.has_edge(u, v)]
    if not strangers:
        return
    targets = sorted(data.draw(st.sets(st.sampled_from(strangers), min_size=1)))
    dist = apsp(g._adj)
    for v in targets:
        g.add_edge(u, v)
    apsp_update_add(dist, u, targets)
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
        apsp_update_add(dist, u, [v])
        assert np.array_equal(dist, apsp(g._adj))


@settings(max_examples=50, deadline=None)
@given(st.one_of(owned_graphs(), several_components()), st.data())
def test_removal_then_gain_matches_recompute(g, data):
    """Any move of u as G - u, then u gaining all its new neighbours, equals a fresh solve."""
    u = data.draw(st.integers(0, g.n - 1))
    incoming = g._adj[u] - g.targets(u)
    allowed = [v for v in range(g.n) if v != u and v not in incoming]
    strategy = data.draw(st.sets(st.sampled_from(allowed))) if allowed else set()
    table = apsp_without(apsp(g._adj), g._adj, u)
    apsp_update_add(table, u, sorted(strategy | incoming))
    g.replace_strategy(u, strategy)
    assert np.array_equal(table, apsp(g._adj))


@settings(max_examples=50, deadline=None)
@given(st.one_of(owned_graphs(), several_components()), st.data())
def test_an_update_relaxed_one_row_at_a_time_matches_recompute(g, data):
    """Blocks of one changed row each, later ones reading earlier mirrors, equal a fresh solve."""
    u = data.draw(st.integers(0, g.n - 1))
    strangers = [v for v in range(g.n) if v != u and not g.has_edge(u, v)]
    targets = sorted(data.draw(st.sets(st.sampled_from(strangers)))) if strangers else []
    dist = apsp(g._adj)
    with mock.patch.object(_kernels, "_RELAX_ENTRIES", 1):
        apsp_update_add(dist, u, targets)
    for v in targets:
        g.add_edge(u, v)
    assert np.array_equal(dist, apsp(g._adj))


def assert_removals_match_recompute(g):
    """Every G - u from G's table equals a fresh solve, and only changed rows are re-run."""
    dist = apsp(g._adj)
    kept = dist.copy()
    for u in range(g.n):
        fresh = apsp(without(g, u)._adj)
        with mock.patch.object(_kernels, "bfs_row", wraps=_kernels.bfs_row) as bfs:
            table = apsp_without(dist, g._adj, u)
        assert np.array_equal(table, fresh)
        rerun = [c.args[1] for c in bfs.call_args_list]
        changed = [
            s
            for s in range(g.n)
            if s != u and not np.array_equal(np.delete(fresh[s], u), np.delete(dist[s], u))
        ]
        assert rerun == changed
    assert np.array_equal(dist, kept)


# path 0-1-2-3 with isolated 4 and the edge 5-6: node 4 is isolated, 0 a
# leaf, 1 a cut vertex, and the sources 5 and 6 lie in another component
SHAPES = OwnedGraph(7, [(0, 1), (1, 2), (3, 2), (5, 6)])


@settings(max_examples=50, deadline=None)
@given(owned_graphs())
@example(SHAPES)
def test_removal_matches_recompute(g):
    assert_removals_match_recompute(g)


@settings(max_examples=50, deadline=None)
@given(several_components())
@example(SHAPES)
def test_removal_across_components_matches_recompute(g):
    assert_removals_match_recompute(g)


@pytest.mark.parametrize(
    "cfg, u, kind",
    [
        pytest.param(GameConfig(locality_k=2), 0, None, id="add"),
        pytest.param(GameConfig(), 0, SwapEdge(1, 150), id="ncg-swap"),
        pytest.param(GameConfig(), 150, DeleteEdge(151), id="ncg-delete"),
        pytest.param(
            GameConfig(variant="aog"),
            0,
            ReplaceStrategy((1, 100, 150, 200, 299)),
            id="aog-replace-adding-4",
        ),
        pytest.param(GameConfig(), 150, SwapEdge(151, 152), id="ncg-swap-joining-two-components"),
    ],
)
def test_one_move_allocates_at_most_1_8_tables(cfg, u, kind, monkeypatch):
    """Pricing and playing one move on path(300) allocates at most 1.3 times G's table.

    A drop holds the table of G - u, plus one block of the update's
    changed rows; an add holds only that block.  ``kind`` None plays u's
    best single edge.  A drop whose new neighbours join two components
    of G - u changes nearly every row, and so does the aog replace
    adding 4 edges.  The 300-node table is smaller than one block of
    ``_RELAX_ENTRIES``, so the block is cut to an eighth of it, about the
    share one block is of a 2900-node table.
    """
    monkeypatch.setattr(_kernels, "_RELAX_ENTRIES", 300 * 300 // 8)
    position = _Position(build_path(300), cfg)
    position.dist  # G's table is built on first use and is not part of the step
    tracemalloc.start()
    try:
        pricing = _Pricing(position, u)
        if kind is None:
            kind = pricing.improving_move(BEST_SINGLE_EDGE).kind
        else:
            pricing.total(strategy_after(position.graph, u, kind))
        position.apply(pricing, kind)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(position.dist, apsp(position.graph._adj))
    assert peak <= 1.3 * position.dist.nbytes


@pytest.mark.parametrize(
    "g, u", [(build_path(300), 150), (build_star(300), 0)], ids=["path-middle", "star-center"]
)
def test_one_first_improving_activation_allocates_at_most_1_3_tables(g, u):
    """Pricing one ncg first-improving activation on 300 nodes stays near G's table.

    The middle of a path finds an improving addition from its candidates'
    rows.  The star's center has no candidate, and the drop screen reads
    the columns of its 299 neighbours, together the size of the table.
    """
    position = _Position(g, GameConfig())
    position.dist  # G's table is built on first use and is not part of the step
    tracemalloc.start()
    try:
        found = _Pricing(position, u).improving_move(FIRST_IMPROVING_SINGLE_MOVE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (found is None) == (u == 0)
    assert peak <= 1.3 * position.dist.nbytes


@pytest.mark.parametrize("beta", [1, Fraction(1, 10**15), Fraction(1, 10**17)])
@pytest.mark.parametrize("split", [15, 10])
def test_totals_read_disconnection_from_the_row_sum(beta, split):
    """Rows holding UNREACHABLE or UNREACHABLE + 1 entries total exactly ``unreachable``.

    Nodes ``split``..15 form a second component, so u's rows miss one or
    several nodes.  beta = 1/10^15 scales int64 prices near the int64
    limit, and 1/10^17 needs Python ints.
    """
    g = OwnedGraph(16, [(i, i + 1) for i in range(15) if i != split - 1])
    cfg = GameConfig(price_beta=beta, price_gamma=0)
    # a discarded lane that wrapped under the scale would raise here
    with np.errstate(over="raise"):
        for u in (0, 4, split):
            check_totals(g, u, cfg)


def check_totals(g, u, cfg):
    p = _Pricing(_Position(g, cfg), u)
    assert p.price.dtype == (object if cfg.price_beta == Fraction(1, 10**17) else np.int64)
    for make, targets, totals in p.move_groups():
        for v, total in zip(targets, totals):
            expected = evaluate_deviation(g, u, strategy_after(g, u, make(v)), cfg)
            if expected == math.inf:
                assert total == p.unreachable
            else:
                assert p.value(total) == expected
    assert p.now == p.unreachable
    rows = np.tile(np.arange(16, dtype=np.int64), (5, 1))
    rows[1, 5] = UNREACHABLE
    rows[2, 3:9] = UNREACHABLE
    rows[3, 7] = UNREACHABLE + 1
    rows[4, 1:] = UNREACHABLE + 1
    got = p.totals(rows, p.spend(p.current))
    assert got[0] == 120 * p.scale + p.spend(p.current)
    assert got[1:].tolist() == [p.unreachable] * 4


@settings(max_examples=50)
@given(owned_graphs(max_n=7))
@example(OwnedGraph(6, [(0, 1), (2, 1), (3, 4)]))
def test_addition_row_sums_against_naive(g):
    """Additions in ncg and aog sum min(dist[u], 1 + dist[v]) over G's own table.

    Pricing them builds no table of G - u in either game.
    """
    dist = apsp(g._adj)
    for variant in ("ncg", "aog"):
        position = _Position(g, GameConfig(variant=variant, price_beta=0, price_gamma=0))
        for u in range(g.n):
            pricing = _Pricing(position, u)
            _, targets, got = next(pricing.move_groups())
            assert "table" not in vars(pricing)
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
    apsp_update_add(dist, 0, [1])  # re-relaxing an existing edge is a no-op
    assert dist[0, 2] == UNREACHABLE and dist[0, 1] == 1
