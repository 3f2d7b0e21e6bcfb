"""Cost model: degree pricing, agent cost, social cost, quality ratio.

Buying the edge {u,v} costs u ``beta * deg(v) + gamma`` where deg(v) is
v's degree in the evaluated network (the purchased edge included).  The
default (beta, gamma) = (1, -1) therefore prices an edge at the target's
degree not counting the edge itself.  On top of edge prices every agent
pays the sum of her hop distances to all other agents, ``math.inf``
when the network is disconnected.

``agent_cost``, ``evaluate_deviation`` and ``candidate_targets`` are the
scalar reference that the tests hold ``moves`` to: their own BFS over
node sets, sharing no code with ``_kernels``.

All arithmetic is exact: integers under integer pricing, fractions.Fraction
otherwise.  Nothing here ever rounds, and nothing prints rounded:
``plain`` is the one rule for printing a cost or ratio, and it never
makes a float.
"""

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from degprice._kernels import UNREACHABLE, apsp
from degprice.graph import degree

NCG = "ncg"
AOG = "aog"

__all__ = [
    "NCG",
    "AOG",
    "GameConfig",
    "CostBreakdown",
    "edge_price",
    "agent_cost",
    "evaluate_deviation",
    "candidate_targets",
    "social_cost",
    "rho",
    "plain",
]


@dataclass(frozen=True)
class GameConfig:
    """Which game is played: variant, locality radius, price coefficients.

    ``locality_k=None``, the default and the CLI's ``--k global``, means
    unrestricted purchases; otherwise new targets must lie within hop
    distance k of the buyer.  An edge to v costs ``price_beta * deg(v) +
    price_gamma``, both int or Fraction, kept exact.  A float or bool
    price and a non-integer or bool radius raise ValueError.
    """

    variant: str = NCG
    locality_k: int | None = None
    price_beta: int | Fraction = 1
    price_gamma: int | Fraction = -1

    def __post_init__(self):
        if self.variant not in (NCG, AOG):
            raise ValueError(f"unknown variant {self.variant!r}")
        for name in ("price_beta", "price_gamma"):
            price = getattr(self, name)
            if not isinstance(price, numbers.Rational) or isinstance(price, bool):
                raise ValueError(f"{name} must be an int or Fraction, got {price!r}")
        k = self.locality_k
        if k is not None and (not isinstance(k, numbers.Integral) or isinstance(k, bool) or k < 1):
            raise ValueError(f"radius locality_k must be an int >= 1 or None, got {k!r}")

    @property
    def add_only(self):
        return self.variant == AOG

    def describe(self):
        k = "global" if self.locality_k is None else str(self.locality_k)
        return f"{self.variant} k={k} beta={self.price_beta} gamma={self.price_gamma}"


@dataclass(frozen=True)
class CostBreakdown:
    """One agent's cost, split into edge prices and distance sum."""

    edge_cost: int | Fraction
    distance_cost: int | float
    total: int | Fraction | float

    def as_dict(self):
        return {
            "edge_cost": plain(self.edge_cost),
            "distance_cost": plain(self.distance_cost),
            "total": plain(self.total),
        }


def plain(cost):
    """The one rule for printing a cost or ratio: "unreachable" for inf, an
    int when integral, else the exact "p/q"."""
    if cost == math.inf:
        return "unreachable"
    if cost == int(cost):
        return int(cost)
    return str(cost)


def edge_price(cfg, target_degree):
    """Price of buying an edge whose target ends up with the given degree."""
    return cfg.price_beta * target_degree + cfg.price_gamma


def agent_cost(g, u, cfg):
    """Edge prices of u's owned edges plus u's distance sum."""
    return CostBreakdown(*_deviation(g, u, g.targets(u), cfg))


def evaluate_deviation(g, u, new_targets, cfg):
    """Total cost of u if u switched to new_targets, everyone else fixed;
    math.inf when that leaves u disconnected."""
    return _deviation(g, u, new_targets, cfg)[2]


def _deviation(g, u, new_targets, cfg):
    """(edge prices, distance sum, total) of u under new_targets, by a BFS
    over node sets that starts at u's neighbours and never enters u."""
    new_targets = g.check_strategy(u, new_targets)
    owned = g._targets[u]
    incoming = g._adj[u] - owned
    # a new edge adds one to its target's degree
    edge = sum((edge_price(cfg, len(g._adj[v]) + (v not in owned)) for v in new_targets), 0)

    frontier = new_targets | incoming
    seen = frontier | {u}
    total, depth = 0, 1
    while frontier:
        total += depth * len(frontier)
        frontier = {y for x in frontier for y in g._adj[x]} - seen
        seen |= frontier
        depth += 1
    if len(seen) < g.n:  # inf + a huge int price would overflow
        return edge, math.inf, math.inf
    return edge, total, edge + total


def candidate_targets(g, u, cfg):
    """Nodes u could buy a new edge to: its non-neighbours, within cfg's
    locality radius of u if it has one."""
    g._check_node(u)
    ball = frontier = set(range(g.n)) if cfg.locality_k is None else {u}
    # no shortest path has n or more edges
    for _ in range(min(cfg.locality_k or 0, g.n)):
        frontier = {y for x in frontier for y in g._adj[x]} - ball
        ball |= frontier
    return ball - g._adj[u] - {u}


def social_cost(g, cfg):
    """Sum of all agents' totals; math.inf when disconnected."""
    return _social_cost_from(g, cfg, apsp(g._adj))


def _social_cost_from(g, cfg, dist):
    """social_cost of g, given g's all-pairs distance table."""
    if int(dist.max()) == UNREACHABLE:
        return math.inf
    total = int(dist.sum())
    for owner, target in g.owned_edges:
        total = total + edge_price(cfg, degree(g, target))
    return total


def rho(g, best_reachable_cost, cfg):
    """Quality ratio: g's social cost over the best reachable cost."""
    if best_reachable_cost <= 0:
        raise ValueError("best reachable cost must be positive")
    cost = social_cost(g, cfg)
    if cost == math.inf:
        raise ValueError("quality ratio of a disconnected network is undefined")
    return Fraction(cost) / Fraction(best_reachable_cost)
