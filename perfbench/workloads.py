"""The benchmark's four workloads: inputs, one timed pass, and its check.

Each workload class builds its inputs in ``__init__`` (set-up, untimed
per pass), runs pass ``i`` in ``run(i)`` (timed), and checks that pass's
output in ``check(out)``, which returns a list of problems (empty when
the output is right).  ``tiny=True`` shrinks every workload for the
self-test.

A workload is cut into ``parts``, each a short pass: pass ``i`` runs
part ``i % parts``, so a run repeats every part a few times or many.
The time of the whole workload is the sum, over its parts, of each
part's fastest pass (see ``run.py``).

Calls go through module attributes (``dynamics.run_dynamics``, not a
name imported into this file), so the wrappers that ``tracing`` installs
on the degprice modules see them.
"""

from fractions import Fraction

from degprice import constructions, costs, dynamics, moves, oracle
from degprice.costs import GameConfig


class VerifyFig2b:
    """Exact equilibrium check of the paper's Figure 2b network (aog).

    Part u is agent u's share of ``moves.verify_equilibrium(level=EXACT)``:
    its current cost and its exact best response, which must not be
    cheaper.  All parts pass exactly when the network is an equilibrium.
    """

    def __init__(self, seed, tiny):
        self.graph = constructions.build_figure_network("fig2a" if tiny else "fig2b")
        self.cfg = GameConfig(variant="aog")
        self.parts = self.graph.n

    def run(self, i):
        u = i % self.parts
        before = costs.agent_cost(self.graph, u, self.cfg).total
        strategy, cost = moves.best_response_exact(self.graph, u, self.cfg)
        return u, before, strategy, cost

    def check(self, out):
        u, before, strategy, cost = out
        if cost < before:
            return [f"agent {u} improves from {before} to {cost} with {strategy}"]
        return []


class DynamicsPath:
    """Round-robin best-single-edge dynamics, aog with k=2, from a path."""

    parts = 1
    # (activations, applied moves, rounds, final diameter, final social cost)
    EXPECTED = {150: (1050, 482, 7, 4, 73404), 30: (150, 62, 5, 3, 2514)}

    def __init__(self, seed, tiny):
        self.n = 30 if tiny else 150
        self.start = constructions.build_path(self.n)
        self.cfg = GameConfig(variant="aog", locality_k=2)
        self.scheme = dynamics.ActivationScheme.round_robin(dynamics.BEST_SINGLE_EDGE)

    def run(self, i):
        return dynamics.run_dynamics(self.start, self.cfg, self.scheme)

    def check(self, trace):
        got = (
            trace.activations,
            len(trace.steps),
            trace.rounds,
            trace.final_diameter,
            trace.final_social_cost,
        )
        problems = []
        if trace.outcome != dynamics.CONVERGED:
            problems.append(f"outcome {trace.outcome}")
        if got != self.EXPECTED[self.n]:
            problems.append(
                f"(activations, moves, rounds, diameter, social cost) = {got}, "
                f"expected {self.EXPECTED[self.n]}"
            )
        return problems


class CensusN5:
    """Exhaustive n=5 census of ncg/aog, each global and with k=2.

    Part j is the census of game j.
    """

    GAMES = (("ncg", None), ("ncg", 2), ("aog", None), ("aog", 2))
    # n -> (states, disconnected, equilibria per game, PoA per game); PoS is 1
    EXPECTED = {
        5: (59049, 3801, (1149, 2229, 43728, 54288), ("5/4", "5/4", "25/16", "25/16")),
        3: (27, 7, (20, 20, 20, 20), ("5/4", "5/4", "5/4", "5/4")),
    }

    def __init__(self, seed, tiny):
        self.n = 3 if tiny else 5
        self.cfgs = [GameConfig(variant=v, locality_k=k) for v, k in self.GAMES]
        self.parts = len(self.cfgs)
        oracle._tables(self.n)  # fill the lazy distance-table cache

    def run(self, i):
        j = i % self.parts
        return j, oracle.equilibrium_census(self.n, self.cfgs[j], workers=1)

    def check(self, out):
        j, s = out
        states, disconnected, eqs, poas = self.EXPECTED[self.n]
        problems = []
        got = (s.stage_counts["states"], s.stage_counts["disconnected"], s.equilibrium_count)
        if got != (states, disconnected, eqs[j]):
            problems.append(f"{self.cfgs[j].describe()}: (states, disconnected, equilibria) = {got}")
        if s.poa != Fraction(poas[j]) or s.pos != 1:
            problems.append(f"{self.cfgs[j].describe()}: PoA {s.poa}, PoS {s.pos}")
        return problems


class DynamicsRandom:
    """Uniform-random first-improving dynamics, ncg global, from a path.

    Part j runs activation seed ``seed * 10000 + j``, so the same seed
    always gives the same runs.  The whole workload is ``SEEDS`` such
    runs: enough that how much work the seeds happen to take varies
    little from one benchmark seed to the next.
    """

    SEEDS = 96

    def __init__(self, seed, tiny):
        self.seed = seed
        self.parts = 1 if tiny else self.SEEDS
        self.start = constructions.build_path(16)
        self.cfg = GameConfig(variant="ncg")

    def run(self, i):
        scheme = dynamics.ActivationScheme.uniform_random(
            self.seed * 10000 + i % self.parts, dynamics.FIRST_IMPROVING_SINGLE_MOVE
        )
        return dynamics.run_dynamics(self.start, self.cfg, scheme)

    def check(self, trace):
        label = trace.metadata["scheme"]
        if trace.outcome != dynamics.CONVERGED:
            return [f"{label}: outcome {trace.outcome}"]
        problems = []
        report = moves.verify_equilibrium(trace.final, self.cfg, level=moves.SINGLE_MOVE)
        if not report.is_equilibrium:
            problems.append(f"{label}: final graph has witness {report.witness}")
        fresh = costs.social_cost(trace.final, self.cfg)
        if trace.final_social_cost != fresh:
            problems.append(f"{label}: social cost {trace.final_social_cost} != {fresh}")
        return problems


WORKLOADS = {
    "verify-fig2b": VerifyFig2b,
    "dynamics-path": DynamicsPath,
    "census-n5": CensusN5,
    "dynamics-random": DynamicsRandom,
}
