"""Degree-priced network creation games: engine, oracles and simulator.

Agents are the nodes of a network.  Each agent picks a set of other nodes
to buy edges to; an edge to v costs a linear function of v's degree
(beta * deg + gamma, default deg - 1), and the agent additionally pays the
sum of her hop distances to everyone else.  The package covers the swap
game (agents may add, delete and swap their own edges), the add-only
variant, and the k-local restriction of either, plus brute-force oracles
for small instances and an improving-response dynamics engine.
"""

from degprice.graph import OwnedGraph, UNREACHABLE, bfs_distances, degree, diameter
from degprice.costs import GameConfig, CostBreakdown, agent_cost, social_cost, rho
from degprice.costs import candidate_targets
from degprice.moves import enumerate_single_moves, best_response_exact, verify_equilibrium
from degprice.dynamics import ActivationScheme, run_dynamics

__all__ = [
    "OwnedGraph",
    "UNREACHABLE",
    "bfs_distances",
    "degree",
    "diameter",
    "GameConfig",
    "CostBreakdown",
    "agent_cost",
    "social_cost",
    "rho",
    "candidate_targets",
    "enumerate_single_moves",
    "best_response_exact",
    "verify_equilibrium",
    "ActivationScheme",
    "run_dynamics",
]

__version__ = "0.1.0"
