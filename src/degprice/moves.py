"""Moves, best responses, and the one search for an improving move.

Every fast path prices a deviation of agent u through one private core,
``_Pricing``, made by a ``_Position`` that holds the price constants
and the distance table of one graph G.  A strategy S that keeps all of
u's current edges reads G's table: u's distance to w is the minimum of
d_G(u, w) and 1 + d_G(v, w) over the new targets v.
That prices every addition, u's current cost, and every strategy in
aog.  Only a strategy that drops an edge needs more: taking u out of
the network fixes everyone else's distances, so the all-pairs table of
G - u, derived from G's table, prices it, with u's distance to w
1 + the minimum of d_{G-u}(v, w) over the targets v in S and the
agents that bought edges to u.  An edge's price depends only on its
target, not on the rest of S.  Single moves are vectorised rows of a
table, and the exact best response is a subset-min DP over the
columns of one that two or more targets can shorten or that u's kept
edges leave unreachable, and over the targets that shorten one of
those columns; each other target adds its own step to every total, so
it is decided alone.
Prices stay exact, as int or Fraction; a deviation that leaves u
disconnected costs ``math.inf``.

``_Pricing.improving_move`` answers "can u strictly improve, and how?"
under one of three move policies with the ``MoveRecord`` of u's move,
or None.  ``_Position.witness`` asks it of every agent in turn, for
``verify_equilibrium`` and for the dynamics' final check;
``_Position.play`` asks it of one activated agent and plays the
record's move, and ``_Position.replay`` checks, prices and plays a
scripted move.  Both play through ``_Position.apply``, which keeps G's
table current.  A pricing computes u's current cost once, as ``now``.
When the first improving single move is sought in ncg and no addition
improves, a lower bound screens u's deletions and swaps first.  It
reads, from G's table, each node's nearest and second-nearest
neighbour of u, so G - u is built only when some drop may improve.

Each move kind declares its JSON ``type``; ``as_dict`` and
``parse_schedule`` derive the rest from the kind's fields.

The tests hold this engine to the scalar reference of ``costs``:
``agent_cost``, ``evaluate_deviation`` and ``candidate_targets``.
"""

import math
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import partial

import numpy as np

from degprice._kernels import UNREACHABLE, apsp, apsp_update_add, apsp_without, row_with
from degprice.costs import plain
from degprice.errors import CandidateCapExceeded, ScheduleReplayError

EXACT = "exact"
SINGLE_MOVE = "single-move"

BEST_SINGLE_EDGE = "best-single-edge"
FIRST_IMPROVING_SINGLE_MOVE = "first-improving-single-move"
FULL_BEST_RESPONSE = "full-best-response"
POLICIES = (BEST_SINGLE_EDGE, FIRST_IMPROVING_SINGLE_MOVE, FULL_BEST_RESPONSE)

CANDIDATE_CAP = 20
# a best-response block of w columns holds 2^10 * n / (w + 2) low-bit
# subsets, rounded down to a power of two and at least 2^10, so with its
# spend and count vectors its bytes stay near 2^10 * n int64 whatever the
# number of candidates.  The block is Fortran-ordered, subsets
# contiguous, so each step streams 2^j-long columns rather than rows.
# Measured on fig2b without gain: int32 blocks, and one block of up to
# 2^20 * n entries
_BLOCK_BITS = 10

K_DELETION_NOTE = (
    "locality restricts new targets only; deletions and the removal half "
    "of swaps may touch any owned edge"
)
SINGLE_MOVE_NOTE = "single-move check is a necessary condition, not sufficient"

__all__ = [
    "EXACT",
    "SINGLE_MOVE",
    "BEST_SINGLE_EDGE",
    "FIRST_IMPROVING_SINGLE_MOVE",
    "FULL_BEST_RESPONSE",
    "POLICIES",
    "CANDIDATE_CAP",
    "AddEdge",
    "DeleteEdge",
    "SwapEdge",
    "ReplaceStrategy",
    "parse_schedule",
    "MoveRecord",
    "EquilibriumReport",
    "strategy_after",
    "apply_move",
    "enumerate_single_moves",
    "best_response_exact",
    "verify_equilibrium",
]


class _Kind:
    """A move kind; its JSON form is ``{"type": type, <each field>: value}``."""

    def as_dict(self):
        return {"type": self.type, **asdict(self)}


@dataclass(frozen=True)
class AddEdge(_Kind):
    type = "add"
    target: int


@dataclass(frozen=True)
class DeleteEdge(_Kind):
    type = "delete"
    target: int


@dataclass(frozen=True)
class SwapEdge(_Kind):
    type = "swap"
    old_target: int
    new_target: int


@dataclass(frozen=True)
class ReplaceStrategy(_Kind):
    type = "replace"
    new_targets: tuple


# the kinds a schedule file may name: every field is one node id
_SCHEDULE_KINDS = (AddEdge, DeleteEdge, SwapEdge)


def parse_schedule(entries):
    """(agent, kind) pairs from a JSON list of ``{"agent", "type", <the kind's fields>}``.

    Every value but ``type`` must be an int; anything else raises ValueError.
    """
    if not isinstance(entries, list):
        raise ValueError("a schedule file must hold a JSON list of moves")
    kinds = "|".join(k.type for k in _SCHEDULE_KINDS)
    out = []
    for entry in entries:
        name = entry.get("type") if isinstance(entry, dict) else None
        kind = next((k for k in _SCHEDULE_KINDS if k.type == name), None)
        keys = ["agent", *(f.name for f in fields(kind))] if kind else []
        values = [entry[k] for k in keys if k in entry]
        if not kind or set(entry) != {"type", *keys} or any(type(v) is not int for v in values):
            raise ValueError(
                f"schedule entry {entry!r}: expected exactly agent, type ({kinds}) "
                "and that move's fields, all integers"
            )
        out.append((values[0], kind(*values[1:])))
    return out


@dataclass(frozen=True)
class MoveRecord:
    """One agent's deviation with its exact before/after cost."""

    agent: int
    kind: object
    cost_before: object
    cost_after: object

    @property
    def improving(self):
        return self.cost_after < self.cost_before

    def as_dict(self):
        return {
            "agent": self.agent,
            "kind": self.kind.as_dict(),
            "before": plain(self.cost_before),
            "after": plain(self.cost_after),
        }


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of an equilibrium check, with a deviation witness if any."""

    is_equilibrium: bool
    witness: MoveRecord | None
    check_level: str
    notes: tuple = ()

    def as_dict(self):
        return {
            "is_equilibrium": self.is_equilibrium,
            "witness": None if self.witness is None else self.witness.as_dict(),
            "check_level": self.check_level,
            "notes": list(self.notes),
        }


def strategy_after(g, u, kind):
    """Target set u would hold after playing the given move kind."""
    current = g.targets(u)
    if isinstance(kind, AddEdge):
        if g.has_edge(u, kind.target):
            raise ValueError(f"edge {{{u},{kind.target}}} already present")
        return current | {kind.target}
    if isinstance(kind, DeleteEdge):
        if kind.target not in current:
            raise ValueError(f"agent {u} owns no edge to {kind.target}")
        return current - {kind.target}
    if isinstance(kind, SwapEdge):
        if kind.old_target not in current:
            raise ValueError(f"agent {u} owns no edge to {kind.old_target}")
        if g.has_edge(u, kind.new_target) and kind.new_target != kind.old_target:
            raise ValueError(f"edge {{{u},{kind.new_target}}} already present")
        return current - {kind.old_target} | {kind.new_target}
    if isinstance(kind, ReplaceStrategy):
        return set(kind.new_targets)
    raise TypeError(f"unknown move kind {kind!r}")


def apply_move(g, u, kind):
    """Mutate g by playing the move; an illegal move raises and leaves g as it was."""
    g.replace_strategy(u, strategy_after(g, u, kind))


def _every_move_adds(add_only, policy):
    """True when each move of ``policy`` adds an edge: in an add-only game
    (``GameConfig.add_only``), and under BEST_SINGLE_EDGE.  No state can
    then come back."""
    return add_only or policy == BEST_SINGLE_EDGE


def enumerate_single_moves(g, u, cfg):
    """All elementary deviations of u with exact before/after costs.

    Additions go to candidate targets; deletions and swaps exist in the
    NCG variants only.  Disconnecting moves appear with an infinite
    after-cost rather than being filtered.
    """
    pricing = _Pricing(_Position(g, cfg), u)
    before = pricing.value(pricing.now)
    return [
        MoveRecord(agent=u, kind=make(v), cost_before=before, cost_after=pricing.value(t))
        for make, targets, totals in pricing.move_groups()
        for v, t in zip(targets, totals)
    ]


def best_response_exact(g, u, cfg):
    """Cost-minimizing strategy for u by exhaustive subset search.

    NCG: any subset of candidates plus current targets.  AOG: current
    targets plus any subset of candidates.  Ties break toward fewer
    edges, then the lexicographically smallest target set.  Raises
    CandidateCapExceeded when the variable universe tops CANDIDATE_CAP,
    before any distance table is built in either game; under a locality
    radius only G's table, which lists the candidates, is built first.
    The cap counts every variable, also those that the search decides
    without enumerating them.
    """
    return _Pricing(_Position(g, cfg), u).best_response()


class _lazy:
    """``functools.cached_property`` without its lock (Python 3.11 takes one).

    The first read sets the value as a plain instance attribute, which
    every later read finds first; ``vars(obj).pop(name)`` drops it.
    """

    def __init__(self, build):
        self.build, self.name = build, build.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


class _Position:
    """What pricing any agent of graph G reads: prices and G's table.

    An edge whose target ends with degree d costs ``b * d + c``: that is
    ``beta * d + gamma`` times ``scale``, the common denominator of beta
    and gamma, so Fraction prices stay exact as integers.  Every connected
    total of an agent stays below ``unreachable``, which is the total of a
    strategy that leaves the agent disconnected.  Prices are int64 unless
    ``unreachable`` passes that range; then they are Python ints.

    ``prices`` is what an edge to each node costs an agent that is not
    its neighbour, ``b * (deg + 1) + c`` in the price dtype, read from
    the graph's adjacency, and ``dist`` is G's distance table.  Both are
    built on first use, like ``_Pricing.table``.  G's table prices every
    strategy that keeps an agent's current edges, and each table of
    G - u is derived from it.  ``_Pricing(position, u)`` is the one way
    to price u's deviations.  ``witness``, ``play``, ``replay`` and
    ``apply`` are the engine's door: ``witness`` is the one scan for an
    agent that can improve, ``play`` plays an agent's searched move,
    ``replay`` a scripted one, and ``apply`` plays a priced move and
    keeps G's table current.
    """

    def __init__(self, g, cfg):
        self.graph, self.cfg = g, cfg
        beta, gamma = Fraction(cfg.price_beta), Fraction(cfg.price_gamma)
        self.scale = math.lcm(beta.denominator, gamma.denominator)
        self.b, self.c = int(beta * self.scale), int(gamma * self.scale)
        n = g.n
        # above every distance sum (< n^2) plus every spend
        self.unreachable = n * n * self.scale + n * (abs(self.b) * n + abs(self.c))
        self.dtype = np.int64 if self.unreachable < 2**62 else object

    @_lazy
    def prices(self):
        degrees = np.fromiter(map(len, self.graph._adj), self.dtype, self.graph.n)
        return degrees * self.b + (self.b + self.c)

    @_lazy
    def dist(self):
        return apsp(self.graph._adj)

    def witness(self, policy):
        """The ``MoveRecord`` of the first agent that can improve, or None."""
        for u in range(self.graph.n):
            record = _Pricing(self, u).improving_move(policy)
            if record is not None:
                return record
        return None

    def play(self, u, policy):
        """Play u's move under ``policy`` and return its ``MoveRecord``, or None if u is stuck."""
        p = _Pricing(self, u)
        record = p.improving_move(policy)
        if record is not None:
            self.apply(p, record.kind)
        return record

    def replay(self, step, u, kind):
        """Play schedule step ``step``, u's move ``kind``, and return its ``MoveRecord``.

        An illegal move, and one that is not strictly cheaper for u, raise
        ScheduleReplayError and leave the position as it was.  The move is
        checked, u's id with it, before any pricing is built.
        """
        try:
            new_strategy = strategy_after(self.graph, u, kind)
        except ValueError as exc:
            raise ScheduleReplayError(f"agent {u}: {exc}") from exc
        p = _Pricing(self, u)
        if self.cfg.add_only and p.current - new_strategy:
            raise ScheduleReplayError(f"agent {u}: add-only config cannot drop edges")
        bad = new_strategy - p.current - set(p.cands)
        if bad:
            raise ScheduleReplayError(
                f"agent {u}: targets {sorted(bad)} outside the allowed candidates"
            )
        record = MoveRecord(u, kind, p.value(p.now), p.value(p.total(new_strategy)))
        if not record.improving:
            raise ScheduleReplayError(
                f"schedule step {step} (agent {u}, {kind}): "
                f"cost {record.cost_before} -> {record.cost_after} is not strictly improving"
            )
        self.apply(p, kind)
        return record

    def apply(self, p, kind):
        """Play agent ``p.u``'s move on ``graph``, the graph that ``p`` priced.

        This mutates ``graph``, so ``run_dynamics`` builds its position on
        a private copy of the start graph.  G's table stays current: u
        gains the rows that ``_Pricing.reading`` names on the table that
        priced the move, by the rule of ``_kernels.apsp_update_add``.
        ``prices`` is dropped, to be rebuilt from the new graph on first
        use.
        """
        after = strategy_after(self.graph, p.u, kind)
        table, gained = p.reading(after)
        apsp_update_add(table, p.u, gained)
        self.dist = table
        self.graph.replace_strategy(p.u, after)
        vars(self).pop("prices", None)


class _Pricing:
    """Exact cost of every strategy of agent u, from one of two tables.

    A strategy that keeps all of u's current edges reads the position's
    table of G: u's distance to w under S is ``min(dist[u, w], 1 + dist[v, w]
    for v in S - current)``.  That is exact since a shortest path from u
    never passes through u again, and a new target v is no neighbour of u:
    a shortest path from v through u has length at least 2 + d(u, w), so
    ``1 + dist[v, w]`` cannot undercut ``dist[u, w]`` by that path.  Every
    addition, u's cost before moving, and every strategy of aog read G's
    table.

    A strategy that drops an edge reads ``table``, the hop distances of
    G - u, derived on first use from G's table by ``_kernels.apsp_without``
    and owned by this pricing, where u gains S and ``incoming``, the
    agents that bought edges to u: ``merged`` is ``_kernels.row_with``
    either way.  Only deletions, swaps and ncg's exact best response of
    an agent that owns an edge build it, and the first-improving search
    prices deletions and swaps only when ``drops_cannot_improve``, a
    lower bound from G's table, fails to rule them all out.  The
    deletions are priced as one stack of rows, and each swap group
    starts from its deletion's row and spend.  u's current strategy
    reads ``dist[u]`` of G's table; its spend ``spent`` and scaled total
    ``now`` are computed once, and the additions start from them.

    An edge to v costs ``beta * (deg_{G-u}(v) + 1) + gamma`` whichever S
    holds it, scaled as the position says: the position's ``prices``
    less b at u's neighbours.  The position's vectors and table are
    read, never changed here.  A single total is a Python int, a group
    of totals a vector in the price dtype.
    """

    def __init__(self, position, u):
        g, cfg = position.graph, position.cfg
        self.current = g.targets(u)  # checks u's id, before _adj is indexed
        self.position, self.graph, self.u, self.add_only = position, g, u, cfg.add_only
        self.scale, self.unreachable = position.scale, position.unreachable
        adjacent = g._adj[u]
        self.incoming = adjacent - self.current

        # an edge from u leaves v with degree deg_{G-u}(v) + 1: a neighbour of u keeps
        # deg(v).  Scalar steps: indexing with a short list costs more than this loop
        self.price = position.prices.copy()
        for v in adjacent:
            self.price[v] -= position.b
        self.spent = self.spend(self.current)
        if cfg.locality_k is None:
            self.cands = [v for v in range(g.n) if v != u and v not in adjacent]
        else:
            # u sits at distance 0 and its neighbours at 1
            du = position.dist[u]
            self.cands = np.flatnonzero((du > 1) & (du <= cfg.locality_k)).tolist()

    # the table of G - u is built on first use: an activation that finds an
    # addition never pays for it, and a best response over too many
    # candidates fails on the cap first
    @_lazy
    def table(self):
        return apsp_without(self.position.dist, self.graph._adj, self.u)

    def reading(self, strategy):
        """(table, gained): u's row under ``strategy`` is ``table[u]`` joined to ``table[gained]``.

        G's table and u's new targets, sorted, when ``strategy`` keeps
        every current edge; else the table of G - u, where u gains all of
        ``strategy`` and ``incoming``.
        """
        if self.current <= strategy:
            return self.position.dist, sorted(strategy - self.graph._adj[self.u])
        return self.table, sorted(strategy | self.incoming)

    def merged(self, strategy):
        """u's distance row under strategy."""
        table, gained = self.reading(strategy)
        return row_with(table[self.u], table[gained]) if gained else table[self.u]

    def spend(self, strategy):
        return int(sum(self.price[v] for v in strategy))

    @_lazy
    def now(self):
        """Scaled total of u's current strategy, a Python int."""
        return self.total(self.current, self.spent)

    def totals(self, merged, spend):
        """Scaled totals of distance rows ``merged`` with edge spends ``spend``."""
        # a connected row sums to less than n^2 <= APSP_MAX_NODES^2 < UNREACHABLE,
        # and one sentinel entry lifts the sum to UNREACHABLE or more; those
        # sums are zeroed before scaling, so they cannot wrap, then overwritten
        dsum = merged.sum(axis=-1)
        cut = dsum >= UNREACHABLE
        dsum[cut] = 0
        scaled = dsum.astype(self.price.dtype, copy=False)
        scaled *= self.scale
        scaled += spend
        scaled[cut] = self.unreachable
        return scaled

    def total(self, strategy, spend=None):
        """Scaled total of one strategy, a Python int; see ``totals``.

        ``spend`` is the strategy's spend when the caller holds it.
        """
        dsum = int(self.merged(strategy).sum())
        if dsum >= UNREACHABLE:
            return self.unreachable
        return dsum * self.scale + (self.spend(strategy) if spend is None else spend)

    def value(self, scaled):
        """Exact cost behind a scaled total; disconnected is math.inf."""
        scaled = int(scaled)
        if scaled == self.unreachable:
            return math.inf
        return scaled if self.scale == 1 else Fraction(scaled, self.scale)

    def _adding(self, table, row, spend):
        """Scaled totals of u's row ``row`` and spend ``spend`` plus each candidate's edge."""
        # taking the candidate rows copies them, so work in that copy
        merged = table.take(self.cands, axis=0)
        merged += 1
        np.minimum(merged, row, out=merged)
        return self.totals(merged, self.price.take(self.cands) + spend)

    def move_groups(self):
        """u's elementary moves as (make kind, targets, scaled totals) groups.

        The groups are yielded lazily, each priced only when it is asked
        for, in the canonical order: additions by target, deletions by
        target, then swaps by old and new target; in aog the additions
        are all.  A caller that wants additions only reads the first group.
        """
        dist = self.position.dist
        yield AddEdge, self.cands, self._adding(dist, dist[self.u], self.spent)
        if self.add_only:
            return
        owned = sorted(self.current)
        rows = np.empty((len(owned), self.graph.n), dtype=np.int64)
        spends = np.empty(len(owned), dtype=self.price.dtype)
        for i, v in enumerate(owned):
            kept = self.current - {v}
            rows[i] = self.merged(kept)
            spends[i] = self.spend(kept)
        yield DeleteEdge, owned, self.totals(rows, spends)
        for old, row, spend in zip(owned, rows, spends):
            yield partial(SwapEdge, old), self.cands, self._adding(self.table, row, spend)

    def drops_cannot_improve(self, adds):
        """True when no deletion and no swap of u can cost less than ``now``.

        ``adds`` are the totals of u's additions, none below ``now``.  The
        bound reads G's table, the prices and ``adds`` only.  Write du =
        dist[u] and read u's neighbours, owned and incoming, from their
        columns of the symmetric table: for each node w, ``first[w]`` is
        the neighbour nearest to w, ``second[w]`` is 1 plus the
        next-smallest neighbour distance to w, and ``second[u] = 0``.
        ``only[o, w]`` says that o is ``first[w]``.

        Deleting o: every path from u in G - uo starts at another
        neighbour of u, and removing an edge never shortens a distance.
        So u is then at least du[w] from each w, and at least second[w]
        where ``only[o, w]``; a tie for the nearest makes the two equal.
        The deletion costs at least ``now - price[o] + scale * (only @
        (second - du))[o]``.  Where u has no other neighbour, second - du
        is ``cap = unreachable // (scale * n)``: the scaled sum stays
        below ``unreachable``, so int64 cannot overflow, and one node
        that the deletion cuts off lifts the bound past any price.

        Swapping o for v: a shortest path from u either starts with uv,
        of length at least 1 + dist[v, w], or lies in G - uo.  So u's row
        is at least ``min(1 + dist[v], du + only[o] * (second - du))``,
        which is v's addition row plus ``only[o] * (clip(1 + dist[v], du,
        second) - du)``, and the swap costs at least ``adds[v] - price[o]
        + scale * (only @ that.T)[o, v]``.

        A disconnected u has no improving addition only if every addition
        leaves it disconnected, and then so does every drop.
        """
        owned = sorted(self.current)
        if not owned or self.now == self.unreachable:
            return True
        dist, u, n = self.position.dist, self.u, self.graph.n
        du = dist[u]
        # the neighbours' columns of the symmetric table, one row per node w,
        # taken C-ordered: argmin across rows or F-ordered columns copies them
        near = dist.take(owned + sorted(self.incoming), axis=1)
        first = near.argmin(axis=1)
        near[np.arange(n), first] = UNREACHABLE
        second = near.min(axis=1) + 1
        second[u] = 0
        del near  # freed before the candidates' rows are read
        only = first == np.arange(len(owned))[:, None]
        dtype, price = self.price.dtype, self.price.take(owned)
        lift = (second - du).astype(dtype, copy=False)
        # u is connected, so only a missing second neighbour passes UNREACHABLE
        lift[second > UNREACHABLE] = self.unreachable // (self.scale * n)
        if ((only @ lift) * self.scale < price).any():
            return False
        rise = dist.take(self.cands, axis=0)
        rise += 1
        np.maximum(rise, du, out=rise)
        np.minimum(rise, second, out=rise)
        rise -= du
        steps = (only @ rise.T).astype(dtype, copy=False) * self.scale
        return bool((adds - price[:, None] + steps >= self.now).all())

    def improving_move(self, policy):
        """The ``MoveRecord`` of u's move under policy, or None if u is stuck.

        FULL_BEST_RESPONSE plays the exact best response when it is
        strictly cheaper.  BEST_SINGLE_EDGE plays the cheapest improving
        addition, the smallest target among equals.  FIRST_IMPROVING_SINGLE_MOVE
        plays the first improving move in the canonical order of
        ``move_groups``, and prices no group after the one that holds it.

        In ncg, when no addition improves, first-improving asks
        ``drops_cannot_improve`` before it prices a drop; if that holds, u
        is stuck and the table of G - u is never built.
        """
        if policy == FULL_BEST_RESPONSE:
            # searched first, so that a hit cap raises before any table is
            # built; under a radius only G's table, for the candidates, exists
            strategy, cost = self.best_response()
            kind = _classify_deviation(self.current, strategy)
            record = MoveRecord(self.u, kind, self.value(self.now), cost)
            return record if record.improving else None
        if policy not in POLICIES:
            raise ValueError(f"unknown move policy {policy!r}")
        for make, targets, totals in self.move_groups():
            improving = (totals < self.now).nonzero()[0]
            if improving.size:
                # argmin takes the smallest target among equally cheap additions
                i = int(totals.argmin() if policy == BEST_SINGLE_EDGE else improving[0])
                after = self.value(totals[i])
                return MoveRecord(self.u, make(targets[i]), self.value(self.now), after)
            if make is AddEdge and (
                _every_move_adds(self.add_only, policy) or self.drops_cannot_improve(totals)
            ):
                return None
        return None

    def best_response(self):
        """(strategy, exact cost) of u's best response; see best_response_exact.

        A subset-min DP, ``M[S] = min(M[S - lowbit], rows[lowbit])``, over
        the live columns of u's row.  ``base`` is u's row under ``kept``
        and ``plus[v] = 1 + table[v]``.  A column that ``base`` reaches and
        at most one variable shortens is folded: its distance is ``base[w]``
        less a gain when that variable is picked.  So folded columns go
        into the spends, their base sum into ``spend[0]`` and each
        variable's gain into its step, ``price[v] - scale * gain[v]``, and
        every total is the integer a full row would give.  The live
        columns, those two or more variables shorten and those ``base``
        cannot reach, fill one block of low-bit subsets, 2^10 for n
        columns and more as the block narrows (see ``_BLOCK_BITS``); every
        setting of the high bits reuses it.  Only live columns can leave u
        disconnected, so ``totals`` reads that from the block alone.  The
        block is Fortran-ordered: the doubling steps, the high picks'
        minimum and the row sums of ``totals`` then run along the subset
        axis, in loops 2^j long rather than n long; an int32 block, or one
        block for every subset, measured no faster.  A block whose
        cheapest total is above the best so far skips the tie-break.

        A free variable, one that shortens no live column, adds its step
        to every total whatever else is picked, so the DP runs over the
        other variables only, in their bit order.  A free variable with a
        negative step is in every cheapest strategy: its step goes into
        ``spend[0]`` and it joins the answer.  One with a step of 0 or
        more is left out by the fewest-edges tie-break.  The exception is
        a best total of ``unreachable``, which carries no spend: u cannot
        connect whatever it picks, and the answer is ``kept`` alone.  A
        free variable cannot reconnect u, since a column that ``base``
        cannot reach is live.  ``CANDIDATE_CAP`` counts every variable,
        free or not, before any table is built.
        """
        if self.add_only:
            kept, variable = self.current, self.cands
        else:
            kept, variable = set(), sorted(set(self.cands) | self.current)
        if len(variable) > CANDIDATE_CAP:
            raise CandidateCapExceeded(self.u, len(variable), CANDIDATE_CAP)
        table = self.reading(kept)[0]
        # variable i sits at bit V-1-i, so among equal costs and sizes the
        # larger mask is the lexicographically smaller target tuple
        bits = variable[::-1]
        base = self.merged(kept)
        plus = table.take(bits, axis=0)
        plus += 1
        shorter = plus < base
        # a reachable column that at most one variable shortens is folded:
        # it adds base[w], less that variable's gain when it is picked
        live = (shorter.sum(axis=0) > 1) | (base >= UNREACHABLE)
        gain = np.where(shorter & ~live, base - plus, 0).sum(axis=1)
        step = [self.price[v] - self.scale * int(g) for v, g in zip(bits, gain)]
        # a free variable, one that shortens no live column, is decided by its step
        touches = shorter[:, live].any(axis=1)
        forced = {v: s for v, s, t in zip(bits, step, touches) if not t and s < 0}
        bits = [v for v, t in zip(bits, touches) if t]
        step = [s for s, t in zip(step, touches) if t]
        plus = plus[:, live][touches]
        width = plus.shape[1]
        low_bits = _BLOCK_BITS + max(self.graph.n // (width + 2), 1).bit_length() - 1
        low, high = bits[:low_bits], bits[low_bits:]
        size = 1 << len(low)
        rows = np.empty((size, width), dtype=np.int64, order="F")
        rows[0] = base[live]
        spend = np.zeros(size, dtype=self.price.dtype)
        spend[0] = (self.spent if self.add_only else 0) + self.scale * int(base[~live].sum())
        spend[0] += sum(forced.values())
        count = np.zeros(size, dtype=np.int64)
        for j in range(len(low)):
            h = 1 << j
            np.minimum(rows[:h], plus[j], out=rows[h : 2 * h])
            spend[h : 2 * h] = spend[:h] + step[j]
            count[h : 2 * h] = count[:h] + 1

        best = None
        for hi in range(1 << len(high)):
            picked = [len(low) + t for t in range(len(high)) if hi >> t & 1]
            block, paid = rows, spend
            if picked:
                block = np.minimum(rows, plus[picked].min(axis=0))
                paid = spend + sum(step[i] for i in picked)
            totals = self.totals(block, paid)
            cost = totals.min()
            if best is not None and cost > best[0]:
                continue
            tie = totals == cost
            fewest = count[tie].min()
            low_mask = np.flatnonzero(tie & (count == fewest))[-1]
            key = (int(cost), int(fewest) + len(picked), -(hi << len(low) | int(low_mask)))
            if best is None or key < best:
                best = key
        mask = -best[2]
        strategy = kept | {v for j, v in enumerate(bits) if mask >> j & 1}
        if best[0] < self.unreachable:
            # a disconnected total carries no spend: it keeps only ``kept``
            strategy.update(forced)
        return strategy, self.value(best[0])


def _classify_deviation(current, strategy):
    """Render a strategy change as the smallest move kind that realizes it."""
    added = sorted(strategy - current)
    removed = sorted(current - strategy)
    if len(added) == 1 and not removed:
        return AddEdge(added[0])
    if len(removed) == 1 and not added:
        return DeleteEdge(removed[0])
    if len(added) == 1 and len(removed) == 1:
        return SwapEdge(removed[0], added[0])
    return ReplaceStrategy(tuple(sorted(strategy)))


def _notes_for(cfg, level):
    notes = []
    if level == SINGLE_MOVE:
        notes.append(SINGLE_MOVE_NOTE)
    if cfg.locality_k is not None and not cfg.add_only:
        notes.append(K_DELETION_NOTE)
    return tuple(notes)


def verify_equilibrium(g, cfg, level):
    """Check whether no agent can strictly improve.

    EXACT searches every allowed strategy per agent (CANDIDATE_CAP permitting);
    SINGLE_MOVE only scans elementary moves and says so in its notes.
    The witness is the first agent's move that improves
    (``_Position.witness``): its exact best response, or its first
    improving move in the canonical order.  Every agent is priced from
    one position, so G's distance table is built at most once: aog
    prices every agent from it.  ncg derives an agent's table of G - u
    from it only to price drops: for the exact best response of an agent
    that owns an edge, and at SINGLE_MOVE only when no addition improves
    and the drop screen cannot rule out a deletion or swap.
    """
    policies = {EXACT: FULL_BEST_RESPONSE, SINGLE_MOVE: FIRST_IMPROVING_SINGLE_MOVE}
    if level not in policies:
        raise ValueError(f"unknown check level {level!r}")
    witness = _Position(g, cfg).witness(policies[level])
    return EquilibriumReport(witness is None, witness, level, _notes_for(cfg, level))
