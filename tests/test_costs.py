"""Cost model: edge pricing, per-agent breakdowns, social cost, ratio."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import owned_graphs
from degprice.costs import (
    GameConfig,
    UNREACHABLE,
    agent_cost,
    edge_price,
    evaluate_deviation,
    plain,
    rho,
    social_cost,
)
from degprice.constructions import build_clique, build_star
from degprice.graph import OwnedGraph, is_connected


def test_default_pricing_is_degree_minus_one():
    cfg = GameConfig()
    assert edge_price(cfg, 1) == 0
    assert edge_price(cfg, 4) == 3
    frac = GameConfig(price_beta=Fraction(1, 2), price_gamma=0)
    assert edge_price(frac, 3) == Fraction(3, 2)


def test_config_validation():
    with pytest.raises(ValueError, match="variant"):
        GameConfig(variant="swap-only")
    with pytest.raises(ValueError, match="radius"):
        GameConfig(locality_k=0)
    # a float or bool price, or a non-integer or bool radius, is refused by name
    with pytest.raises(ValueError, match="price_beta"):
        GameConfig(price_beta=0.1, price_gamma=Fraction(1, 5))
    with pytest.raises(ValueError, match="price_gamma"):
        GameConfig(price_beta=Fraction(1, 10), price_gamma=0.2)
    with pytest.raises(ValueError, match="price_beta"):
        GameConfig(price_beta=True)
    with pytest.raises(ValueError, match="locality_k"):
        GameConfig(locality_k=1.5)
    with pytest.raises(ValueError, match="locality_k"):
        GameConfig(locality_k=True)
    assert GameConfig(variant="aog").add_only
    assert "k=global" in GameConfig().describe()


def test_path_breakdown():
    g = OwnedGraph(3, [(0, 1), (1, 2)])
    b = agent_cost(g, 0, GameConfig())
    # one edge to a degree-2 node, distances 1 + 2
    assert (b.edge_cost, b.distance_cost, b.total) == (1, 3, 4)
    assert agent_cost(g, 2, GameConfig()).total == 3  # buys nothing here
    assert b.as_dict() == {"edge_cost": 1, "distance_cost": 3, "total": 4}


def test_ownership_changes_cost_but_not_distances():
    # leaves are free to buy (degree 1), the center is not (degree 2)
    center_buys = OwnedGraph(3, [(1, 0), (1, 2)])
    leaves_buy = OwnedGraph(3, [(0, 1), (2, 1)])
    cfg = GameConfig()
    assert social_cost(center_buys, cfg) == 8
    assert social_cost(leaves_buy, cfg) == 10
    assert agent_cost(center_buys, 1, cfg).edge_cost == 0
    assert agent_cost(leaves_buy, 0, cfg).edge_cost == 1


def test_star_and_clique_social_cost():
    cfg = GameConfig()
    assert social_cost(build_star(5), cfg) == 32  # 2(n-1)^2 with free leaf edges
    for n in range(3, 7):
        assert social_cost(build_clique(n), cfg) == n * (n - 1) + n * (n - 1) * (n - 2) // 2


def test_disconnection_is_sentinel_not_a_big_number():
    g = OwnedGraph(4, [(0, 1), (2, 3)])
    cfg = GameConfig()
    assert social_cost(g, cfg) == math.inf
    assert agent_cost(g, 0, cfg).total == math.inf
    with pytest.raises(ValueError, match="disconnected"):
        rho(g, 8, cfg)


def test_disconnection_outweighs_a_price_no_float_holds():
    g = OwnedGraph(3, [(0, 1)])
    cfg = GameConfig(price_beta=10**400)
    assert agent_cost(g, 0, cfg).total == math.inf
    assert agent_cost(g, 0, cfg).edge_cost == 10**400 - 1
    assert evaluate_deviation(g, 0, {1}, cfg) == math.inf


def test_deviation_refuses_bad_node_ids():
    """An id out of range, u as its own target and a target that already
    bought an edge to u are refused, never priced."""
    g = OwnedGraph(4, [(0, 1), (1, 2), (2, 3)])
    cfg = GameConfig()
    for u, targets in ((-1, set()), (7, set()), (0, {-2}), (0, {1, 4})):
        with pytest.raises(ValueError, match="out of range"):
            evaluate_deviation(g, u, targets, cfg)
    with pytest.raises(ValueError, match="self-loop"):
        evaluate_deviation(g, 0, {0}, cfg)
    with pytest.raises(ValueError, match=r"targets \[0\] already linked to 1"):
        evaluate_deviation(g, 1, {0, 2}, cfg)
    assert evaluate_deviation(g, 1, {2, 3}, cfg) == 5


def test_plain_prints_exactly_a_cost_no_float_holds():
    assert plain(Fraction(19, 2)) == "19/2" and plain(Fraction(6, 3)) == 2
    assert plain(Fraction(10**400, 3)) == f"{10**400}/3"
    assert plain(Fraction(-(10**400), 3)) == f"-{10**400}/3"


# past 10^400 no float holds the value
@given(
    st.integers()
    | st.just(math.inf)
    | st.fractions(max_value=0)
    | st.builds(Fraction, st.integers().map(lambda p: p * 10**400), st.integers(1, 10**6))
)
def test_plain_prints_every_cost_exactly(cost):
    """``plain`` gives "unreachable", an int, or the exact "p/q": never a float."""
    out = plain(cost)
    if cost == math.inf:
        assert out == "unreachable"
    elif type(out) is int:
        assert out == cost
    else:
        assert type(out) is str and Fraction(out) == cost and "." not in out


def test_rho_is_exact_fraction():
    cfg = GameConfig()
    g = OwnedGraph(3, [(0, 1), (2, 1)])
    assert rho(g, 8, cfg) == Fraction(5, 4)
    assert rho(OwnedGraph(3, [(1, 0), (1, 2)]), 8, cfg) == 1
    with pytest.raises(ValueError):
        rho(g, 0, cfg)
    # a connected graph whose cost passes 10^9 still has a ratio
    huge = GameConfig(price_beta=10**9, price_gamma=0)
    assert rho(OwnedGraph(3, [(0, 1), (1, 2)]), 10, huge) == Fraction(1500000004, 5)


@settings(max_examples=60)
@given(owned_graphs(connected=True))
def test_social_cost_lower_bound(g):
    """Distances alone cost at least 2n(n-1) - 2m on a connected graph."""
    n, m = g.n, len(g.owned_edges)
    cost = social_cost(g, GameConfig())
    assert cost < UNREACHABLE
    assert cost >= 2 * n * (n - 1) - 2 * m


@settings(max_examples=60)
@given(owned_graphs())
def test_social_cost_is_sum_of_agent_costs(g):
    cfg = GameConfig()
    totals = [agent_cost(g, u, cfg).total for u in range(g.n)]
    if is_connected(g):
        assert social_cost(g, cfg) == sum(totals)
    else:
        assert social_cost(g, cfg) == math.inf
        assert math.inf in totals
