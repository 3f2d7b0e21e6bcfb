"""Cost model: degree pricing, agent cost, social cost, quality ratio.

Buying the edge {u,v} costs u ``beta * deg(v) + gamma`` where deg(v) is
v's degree in the evaluated network (the purchased edge included).  The
default (beta, gamma) = (1, -1) therefore prices an edge at the target's
degree not counting the edge itself.  On top of edge prices every agent
pays the sum of her hop distances to all other agents, ``math.inf``
when the network is disconnected.

All arithmetic is exact: integers under integer pricing, fractions.Fraction
otherwise.  Nothing here ever rounds.  ``plain`` is the one rule for
printing a cost.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from degprice._kernels import UNREACHABLE, apsp
from degprice.graph import bfs_distances, degree

NCG = "ncg"
AOG = "aog"
GLOBAL = None

__all__ = [
    "NCG",
    "AOG",
    "GLOBAL",
    "GameConfig",
    "CostBreakdown",
    "edge_price",
    "agent_cost",
    "social_cost",
    "rho",
    "plain",
]


@dataclass(frozen=True)
class GameConfig:
    """Which game is played: variant, locality radius, price coefficients.

    ``locality_k=None`` means unrestricted (global) purchases; otherwise
    new targets must lie within hop distance k of the buyer.
    """

    variant: str = NCG
    locality_k: int | None = GLOBAL
    price_beta: int | Fraction = 1
    price_gamma: int | Fraction = -1

    def __post_init__(self):
        if self.variant not in (NCG, AOG):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.locality_k is not None and self.locality_k < 1:
            raise ValueError("locality radius must be >= 1 (or None for global)")

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
    """A cost as printed: "unreachable" for inf, an int when integral, else a
    float, or the exact "p/q" when no float holds it."""
    if cost == math.inf:
        return "unreachable"
    if cost == int(cost):
        return int(cost)
    try:
        return float(cost)
    except OverflowError:
        return str(cost)


def edge_price(cfg, target_degree):
    """Price of buying an edge whose target ends up with the given degree."""
    return cfg.price_beta * target_degree + cfg.price_gamma


def agent_cost(g, u, cfg):
    """Edge prices of u's owned edges plus u's distance sum."""
    edge = sum((edge_price(cfg, degree(g, v)) for v in g.targets(u)), 0)
    row = bfs_distances(g, u)
    d = math.inf if int(row.max()) == UNREACHABLE else int(row.sum())
    return CostBreakdown(edge_cost=edge, distance_cost=d, total=edge + d)


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
