"""Improving-response dynamics: activation schemes, replay, traces.

A run activates one agent at a time.  An activation either applies
that agent's move or records that the agent is currently stuck.  Each
scheme is a source of activations: round-robin and uniform-random wake
agents who look for their own move under the scheme's move policy
(``moves._Position.play``, the same search that verifies equilibria),
while a scripted schedule names each move, which must replay as
strictly improving (``moves._Position.replay``).  This module keeps
only the loop that consumes every source and holds no schedule: the
paper's scripted runs live in ``claims``.  ``max_steps`` caps
activations, not applied moves; convergence statistics are reported in
activations because that is the unit the random process is naturally
measured in.

An agent's answer depends only on the graph, so an agent found stuck is
not priced again until some move is applied; its later wake-ups still
count as activations.  A run plays every activation on one position
(``moves._Position``) over a private copy of the start graph, which the
trace hands back as its final graph; the position keeps its distance
table current across moves.  Every applied move, searched or scripted,
is the ``MoveRecord`` that priced it.  Prices stay exact, as int or
Fraction, and a move that leaves its agent disconnected costs
``math.inf``.
"""

import itertools
import random
from dataclasses import dataclass, field

from degprice.costs import _social_cost_from, plain
from degprice.moves import (
    BEST_SINGLE_EDGE,
    FIRST_IMPROVING_SINGLE_MOVE,
    FULL_BEST_RESPONSE,
    POLICIES,
    _Position,
    _every_move_adds,
)

UNIFORM_RANDOM = "uniform-random"
ROUND_ROBIN = "round-robin"
SCRIPTED = "scripted"

CONVERGED = "converged"
CYCLE_DETECTED = "cycle-detected"
STEP_LIMIT = "step-limit"

# the default cap on activations, for the library and the CLI's --max-steps
MAX_STEPS = 100_000

__all__ = [
    "UNIFORM_RANDOM",
    "ROUND_ROBIN",
    "SCRIPTED",
    "BEST_SINGLE_EDGE",
    "FIRST_IMPROVING_SINGLE_MOVE",
    "FULL_BEST_RESPONSE",
    "POLICIES",
    "CONVERGED",
    "CYCLE_DETECTED",
    "STEP_LIMIT",
    "ActivationScheme",
    "DynamicsTrace",
    "run_dynamics",
]


# the fields each kind of scheme reads; one its kind does not read must stay None
_FIELDS_USED = {
    UNIFORM_RANDOM: ("move_policy", "seed"),
    ROUND_ROBIN: ("move_policy",),
    SCRIPTED: ("schedule",),
}


@dataclass(frozen=True)
class ActivationScheme:
    """Who moves when, and what counts as their move."""

    kind: str
    move_policy: str | None = None
    seed: int | None = None
    schedule: tuple | None = None

    def __post_init__(self):
        if self.kind not in _FIELDS_USED:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        unused = {"move_policy", "seed", "schedule"} - set(_FIELDS_USED[self.kind])
        stray = sorted(f for f in unused if getattr(self, f) is not None)
        if stray:
            raise ValueError(f"a {self.kind} scheme takes no {', '.join(stray)}")
        if self.kind == SCRIPTED:
            if not self.schedule:
                raise ValueError("scripted scheme needs a nonempty schedule")
        elif self.kind == UNIFORM_RANDOM and self.seed is None:
            raise ValueError("uniform-random needs a seed")
        elif self.move_policy not in POLICIES:
            raise ValueError(f"{self.kind} needs a move policy")

    @classmethod
    def uniform_random(cls, seed, move_policy):
        """Seeded uniform-random activations; the policy is required, as
        the CLI's ``--policy`` holds the one default."""
        return cls(kind=UNIFORM_RANDOM, move_policy=move_policy, seed=seed)

    @classmethod
    def round_robin(cls, move_policy):
        """Agents 0..n-1 in turn; the policy is required, as the CLI's
        ``--policy`` holds the one default."""
        return cls(kind=ROUND_ROBIN, move_policy=move_policy)

    @classmethod
    def scripted(cls, schedule):
        return cls(kind=SCRIPTED, schedule=tuple(schedule))

    def describe(self):
        if self.kind == UNIFORM_RANDOM:
            return f"{self.kind}(seed={self.seed}) / {self.move_policy}"
        if self.kind == ROUND_ROBIN:
            return f"{self.kind} / {self.move_policy}"
        return f"{self.kind}({len(self.schedule)} moves)"


@dataclass
class DynamicsTrace:
    """Full record of one run: applied moves plus summary statistics.

    ``steps`` holds applied moves only; ``activations`` also counts
    agent wake-ups that found nothing to do.  ``rounds`` is
    ``activations // n`` for every scheme: the completed sweeps of a
    round-robin run.
    """

    initial: object
    steps: list
    outcome: str
    rounds: int
    final_social_cost: object
    final_diameter: int
    final: object
    activations: int
    metadata: dict = field(default_factory=dict)

    # the columns of csv_row, in its order
    CSV_HEADER = ("n", "steps", "rounds", "diameter", "social_cost")

    def as_dict(self):
        diameter, cost = self._final_values()
        return {
            "initial": _graph_dict(self.initial),
            "steps": [s.as_dict() for s in self.steps],
            "outcome": self.outcome,
            "rounds": self.rounds,
            "final_social_cost": cost,
            "final_diameter": diameter,
            "final": _graph_dict(self.final),
            "activations": self.activations,
            "metadata": self.metadata,
        }

    def csv_row(self):
        """The run's row under ``CSV_HEADER``: steps = activations."""
        return (self.initial.n, self.activations, self.rounds, *self._final_values())

    def _final_values(self):
        """(diameter, social cost) as printed, both "unreachable" when disconnected."""
        cost = plain(self.final_social_cost)
        return (cost if cost == "unreachable" else self.final_diameter), cost


def _graph_dict(g):
    return {"n": g.n, "edges": [list(e) for e in sorted(g.owned_edges)]}


def _activation_source(scheme, n):
    """(agent, scripted move kind or None) per activation, in order.

    Only a scripted source ends; the others wake agents until the loop
    stops them.
    """
    if scheme.kind == SCRIPTED:
        return iter(scheme.schedule)
    if scheme.kind == ROUND_ROBIN:
        return ((agent, None) for agent in itertools.cycle(range(n)))
    rng = random.Random(scheme.seed)
    return ((rng.randrange(n), None) for _ in itertools.count())


def run_dynamics(g0, cfg, scheme, max_steps=MAX_STEPS):
    """Run the dynamics until stability, a repeated state, or the cap.

    Every applied move is validated as strictly improving.  Scripted
    schedules that contain a non-improving or illegal move abort with
    ScheduleReplayError.  A scripted run whose schedule ends cleanly is
    CONVERGED when the final graph is single-move stable, STEP_LIMIT
    otherwise (noted in metadata).  Round-robin runs converge at the end
    of a round in which every agent was stuck; uniform-random runs as
    soon as every agent has been found stuck since the last move.  A
    wake-up of an agent already found stuck since the last move counts
    as an activation without pricing it again.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    position = _Position(g0.copy(), cfg)
    g = position.graph
    n = g.n
    steps = []
    activations = 0
    metadata = {
        "config": cfg.describe(),
        "scheme": scheme.describe(),
    }
    if scheme.move_policy == FIRST_IMPROVING_SINGLE_MOVE:
        metadata["pick_rule"] = "additions scanned in ascending target id"
    # the cycle check keeps states only where one can come back: a schedule
    # has no policy, so in ncg its moves may drop edges
    seen = None if _every_move_adds(cfg.add_only, scheme.move_policy) else {g.state_key()}
    stuck = set()
    for agent, kind in _activation_source(scheme, n):
        # round-robin converges only at a round's end, where stuck holds
        # all n agents iff none of them moved in that round
        if len(stuck) == n and (scheme.kind == UNIFORM_RANDOM or activations % n == 0):
            outcome = CONVERGED
            break
        if activations >= max_steps:
            outcome = STEP_LIMIT
            break
        activations += 1
        if kind is None:
            # the graph is unchanged since this agent was found stuck
            if agent in stuck:
                continue
            record = position.play(agent, scheme.move_policy)
            if record is None:
                stuck.add(agent)
                continue
        else:
            record = position.replay(activations - 1, agent, kind)
        steps.append(record)
        stuck.clear()
        if seen is not None:
            key = g.state_key()
            if key in seen:
                outcome = CYCLE_DETECTED
                break
            seen.add(key)
    else:
        stable = position.witness(FIRST_IMPROVING_SINGLE_MOVE) is None
        metadata["script_exhausted"] = True
        metadata["final_single_move_stable"] = stable
        outcome = CONVERGED if stable else STEP_LIMIT

    return DynamicsTrace(
        initial=g0.copy(),
        steps=steps,
        outcome=outcome,
        rounds=activations // n,
        final_social_cost=_social_cost_from(g, cfg, position.dist),
        final_diameter=int(position.dist.max()),
        final=g,
        activations=activations,
        metadata=metadata,
    )
