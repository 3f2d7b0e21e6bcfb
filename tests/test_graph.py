"""Structural layer: ownership bookkeeping, distances, connectivity."""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import floyd_warshall, owned_graphs
from degprice.constructions import build_path
from degprice.costs import GameConfig, evaluate_deviation
from degprice.graph import (
    UNREACHABLE,
    OwnedGraph,
    bfs_distances,
    degree,
    diameter,
    is_connected,
)


class TestOwnedGraph:
    def test_rejects_bad_edges(self):
        g = OwnedGraph(3, [(0, 1)])
        with pytest.raises(ValueError, match="already present"):
            g.add_edge(1, 0)
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge(2, 2)
        with pytest.raises(ValueError, match="out of range"):
            g.add_edge(0, 3)
        with pytest.raises(ValueError):
            OwnedGraph(0)

    def test_remove_requires_ownership(self):
        g = OwnedGraph(2, [(0, 1)])
        with pytest.raises(ValueError, match="owns no edge"):
            g.remove_edge(1, 0)
        g.remove_edge(0, 1)
        assert g.owned_edges == set()

    def test_targets_vs_neighbors(self):
        g = OwnedGraph(3, [(0, 1), (2, 1)])
        assert g.targets(1) == set()
        assert g.neighbors(1) == {0, 2}
        assert g.targets(2) == {1}
        # mutating the returned set must not leak into the graph
        g.targets(0).clear()
        assert g.targets(0) == {1}

    def test_replace_strategy_keeps_incoming_edges(self):
        g = OwnedGraph(4, [(0, 1), (2, 0), (0, 3)])
        g.replace_strategy(0, {3})
        assert g.owned_edges == {(2, 0), (0, 3)}
        with pytest.raises(ValueError, match="already linked"):
            g.replace_strategy(0, {2, 3})

    def test_a_strategy_is_checked_by_one_rule(self):
        """Switching and pricing refuse the same strategies with the same
        message, and a refused switch changes nothing."""
        g = OwnedGraph(4, [(0, 1), (2, 0), (3, 0)])
        # -1 must not reach node 3's edge through negative indexing
        bad = [(-1, {1}), (4, set()), (0, {4}), (0, {-1}), (0, {0}), (0, {1, 2, 3})]
        for u, targets in bad:
            with pytest.raises(ValueError) as switched:
                g.replace_strategy(u, targets)
            with pytest.raises(ValueError) as priced:
                evaluate_deviation(g, u, targets, GameConfig())
            assert str(switched.value) == str(priced.value)
        assert g.owned_edges == {(0, 1), (2, 0), (3, 0)}
        assert g.check_strategy(3, [1, 0, 1]) == {0, 1}

    def test_equality_is_ownership_sensitive(self):
        a = OwnedGraph(3, [(0, 1), (1, 2)])
        b = OwnedGraph(3, [(0, 1), (2, 1)])
        assert a != b
        assert a.state_key() != b.state_key()
        c = a.copy()
        assert c == a and c.state_key() == a.state_key()
        c.remove_edge(1, 2)
        assert a.owned_edges == {(0, 1), (1, 2)}
        # the smallest case: one edge, bought by either end
        assert OwnedGraph(2, [(0, 1)]).state_key() != OwnedGraph(2, [(1, 0)]).state_key()


@settings(max_examples=60)
@given(owned_graphs())
def test_bfs_matches_floyd_warshall(g):
    expected = floyd_warshall(g)
    for s in range(g.n):
        assert np.array_equal(bfs_distances(g, s), expected[s])


def test_degree_and_diameter():
    g = build_path(4)
    assert [degree(g, v) for v in range(4)] == [1, 2, 2, 1]
    assert diameter(g) == 3
    clique = OwnedGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert diameter(clique) == 1
    assert diameter(OwnedGraph(3, [(0, 1)])) == UNREACHABLE


def test_connectivity_and_layers():
    g = build_path(4)
    assert is_connected(g)
    assert not is_connected(OwnedGraph(3, [(0, 1)]))
    assert is_connected(OwnedGraph(1))
