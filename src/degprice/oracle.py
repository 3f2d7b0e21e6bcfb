"""Brute-force ground truth for small instances.

The distance tables, the census, the optimum and the covers are
deliberately independent of the move engine: states are edge bitmasks,
costs come from precomputed distance tables, and deviations are
re-derived from scratch.  Census results can therefore cross-check the
engine rather than inherit its bugs.  The improving-response closure
(``reachable_closure``) walks the same mask states and prices each one
from the same tables, so like the census it runs at n <= MAX_ENUM_NODES
only; a caller takes the cheapest reachable state from its costs.

A state packs an undirected graph into an integer mask over the node
pairs (bit set = edge present) plus an ownership submask (bit set = the
lower endpoint owns that edge).

Verdicts are per agent.  An agent's verdict -- the first check it fails,
single-move or exact, and what it pays for its edges -- reads only the
edge mask and the mask of the pairs that agent owns.  So the census
decides each agent once per (edge mask, owned-pair mask) and shares that
verdict among all the edge mask's ownership labellings.  A state's stage
is the worst over its agents.  An equilibrium's social cost is the edge
mask's distance total plus its agents' spends.

Relabelling the nodes changes no stage, social cost or diameter, so the
census and the optimum walk one edge mask per unlabelled graph (the
smallest of its orbit under the n! node permutations, ``_classes``) and
weight its counts by the orbit size.  Visiting those masks in ascending
order keeps the witnesses of a walk over every edge mask.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from degprice._kernels import UNREACHABLE
from degprice.costs import plain
from degprice.errors import InfeasibleInstanceError, OracleBudgetExceeded
from degprice.graph import OwnedGraph

MAX_ENUM_NODES = 6
MAX_COVER_SETS = 20
MAX_CLOSURE_STATES = 200_000

__all__ = [
    "EnumerationSummary",
    "enumerate_states",
    "equilibrium_census",
    "optimal_social_cost",
    "reachable_closure",
    "min_set_cover",
    "min_dominating_set",
]


@lru_cache(maxsize=8)
def _pairs(n):
    """The unordered node pairs in mask-bit order: pair i is bit i.  Every
    enumeration starts here, so this is its one size gate."""
    if n > MAX_ENUM_NODES:
        raise OracleBudgetExceeded(f"enumeration limited to n <= {MAX_ENUM_NODES}, got {n}")
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=8)
def _tables(n):
    """Distance/degree tables for every undirected graph on n nodes, from one
    breadth-first search over all edge masks at once (no engine kernel)."""
    pairs = _pairs(n)
    masks = np.arange(1 << len(pairs))
    adj = np.zeros((len(masks), n, n), dtype=bool)
    for i, (a, b) in enumerate(pairs):
        adj[:, a, b] = adj[:, b, a] = masks >> i & 1
    dist = np.full(adj.shape, UNREACHABLE, dtype=np.int64)
    frontier = np.broadcast_to(np.eye(n, dtype=bool), adj.shape)
    for depth in range(n):  # no shortest path has n or more edges
        dist[frontier] = depth
        frontier = (frontier @ adj) & (dist == UNREACHABLE)
    degs = adj.sum(axis=2, dtype=np.int64)
    distsum = dist.sum(axis=2)
    connected = (dist < UNREACHABLE).all(axis=(1, 2))
    return pairs, dist, degs, distsum, connected


@lru_cache(maxsize=8)
def _classes(n):
    """(masks, orbits): the smallest edge mask of each unlabelled graph on
    n nodes, in ascending order, and the size of its orbit under the n!
    node permutations."""
    pairs = _pairs(n)
    index = {pair: i for i, pair in enumerate(pairs)}
    # weight[p, i]: the mask bit that pair i moves to under the p-th permutation
    weight = np.int64(1) << np.array(
        [[index[tuple(sorted((p[a], p[b])))] for a, b in pairs] for p in permutations(range(n))],
        dtype=np.int64,
    )
    seen = np.zeros(1 << len(pairs), dtype=bool)
    masks, orbits = [], []
    for mask in range(1 << len(pairs)):
        if not seen[mask]:
            # no smaller mask has mask in its orbit, so mask is its smallest
            orbit = set((weight @ (mask >> np.arange(len(pairs)) & 1)).tolist())
            seen[list(orbit)] = True
            masks.append(mask)
            orbits.append(len(orbit))
    return tuple(masks), tuple(orbits)


def _pair_bits(n):
    """bit[u][v] = mask bit of the unordered pair {u,v}."""
    bits = [[0] * n for _ in range(n)]
    for i, (a, b) in enumerate(_pairs(n)):
        bits[a][b] = bits[b][a] = 1 << i
    return bits


def _graph_to_state(g):
    bits = _pair_bits(g.n)
    emask = 0
    omask = 0
    for owner, target in g.owned_edges:
        b = bits[owner][target]
        emask |= b
        if owner < target:
            omask |= b
    return emask, omask


def _state_to_graph(n, emask, omask):
    edges = [p if omask >> i & 1 else p[::-1] for i, p in enumerate(_pairs(n)) if emask >> i & 1]
    return OwnedGraph(n, edges)


def enumerate_states(n):
    """Every ownership-labeled simple graph on n nodes, exactly once.

    3^(n(n-1)/2) states: each pair is absent, owned by its lower
    endpoint, or owned by its higher endpoint.
    """
    for emask in range(1 << len(_pairs(n))):
        for sub in _labellings(emask):
            yield _state_to_graph(n, emask, sub)


def _labellings(emask):
    """The ownership submasks of emask, from emask down to 0: with emask
    ascending, the state order whose first cheapest (dearest) equilibrium
    is the census's best (worst) witness."""
    sub = emask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & emask


# An agent's stage, in rising severity: it passes both checks, only a
# deviation of several edges improves on its strategy, or a single move does.
_STAGES = (None, "exact", "single-move")


class _StateEvaluator:
    """Cost and deviation logic over mask states for one (n, cfg).

    An agent's verdict reads only the graph (``emask``) and the mask of
    the pairs it owns (``owned``), so the per-agent methods take those.
    """

    def __init__(self, n, cfg):
        self.n = n
        self.cfg = cfg
        _, self.dist, self.degs, self.distsum, self.connected = _tables(n)
        self.bits = _pair_bits(n)
        # the pairs where u is the lower endpoint / the higher endpoint
        self.low = [sum(self.bits[u][v] for v in range(u + 1, n)) for u in range(n)]
        self.high = [sum(self.bits[u][v] for v in range(u)) for u in range(n)]
        beta, gamma = cfg.price_beta, cfg.price_gamma
        # price per possible degree value, so the hot loop only indexes
        self.price = [beta * d + gamma for d in range(n)]

    def owned(self, emask, omask, u):
        """Mask of u's owned pairs: omask's edges are owned by their lower
        endpoint, the other edges by their higher one."""
        return (omask & self.low[u]) | ((emask ^ omask) & self.high[u])

    def deviation_cost(self, base_mask, u, strategy):
        mask = base_mask
        for v in strategy:
            mask |= self.bits[u][v]
        ds = int(self.distsum[mask, u])
        if ds >= UNREACHABLE:
            return math.inf
        total = ds
        for v in strategy:
            total = total + self.price[self.degs[mask, v]]
        return total

    def options(self, emask, owned, u):
        """(kept, new, base, current): u's targets, the nodes it may buy a
        new edge to (its non-neighbours, within the locality radius if
        any), the graph without u's edges, and u's current cost."""
        k = self.cfg.locality_k
        kept = []
        new = []
        for v in range(self.n):
            b = self.bits[u][v]
            if owned & b:
                kept.append(v)
            elif v != u and not emask & b and (k is None or self.dist[emask, u, v] <= k):
                new.append(v)
        base = emask & ~owned
        return kept, new, base, self.deviation_cost(base, u, kept)

    def agent_verdict(self, emask, owned, u):
        """(stage, spend): u's index in ``_STAGES`` and its edges' prices.

        The single-move check runs first; only an agent that passes it
        gets the exact scan over every subset of its variable targets.
        """
        kept, new, base, current = self.options(emask, owned, u)
        spend = sum(self.price[self.degs[emask, v]] for v in kept)

        def improves(strategy):
            return self.deviation_cost(base, u, strategy) < current

        add_only = self.cfg.add_only
        if any(improves(kept + [v]) for v in new):
            return 2, spend
        if not add_only:
            for i in range(len(kept)):
                rest = kept[:i] + kept[i + 1 :]
                if improves(rest) or any(improves(rest + [v]) for v in new):
                    return 2, spend
        fixed, variable = (kept, new) if add_only else ([], kept + new)
        for r in range(len(variable) + 1):
            for picked in combinations(variable, r):
                if improves(fixed + list(picked)):
                    return 1, spend
        return 0, spend

    def purchases(self, emask, omask):
        """(successors, cost): the states that one agent's strictly
        improving purchase of one or more new edges leads to -- by agent,
        then by purchase size, then by ascending targets -- and the
        state's social cost, the sum of its agents' costs."""
        successors = []
        cost = 0
        for u in range(self.n):
            kept, new, base, current = self.options(emask, self.owned(emask, omask, u), u)
            cost = cost + current
            for r in range(1, len(new) + 1):
                for picked in combinations(new, r):
                    if self.deviation_cost(base, u, kept + list(picked)) < current:
                        bought = sum(self.bits[u][v] for v in picked)
                        successors.append((emask | bought, omask | (bought & self.low[u])))
        return successors, cost

    def failed_stage(self, emask, omask):
        """First check the state fails, "single-move" then "exact", or None:
        the worst of its agents' stages."""
        worst = max(
            self.agent_verdict(emask, self.owned(emask, omask, u), u)[0] for u in range(self.n)
        )
        return _STAGES[worst]


@dataclass(frozen=True)
class EnumerationSummary:
    """Exhaustive per-size census: optimum, equilibria, and ratios.

    ``poa`` and ``pos`` are exact Fractions; ``as_dict`` prints them, like
    the costs, through ``costs.plain``: an int or the exact "p/q".
    """

    n: int
    config: object
    opt_cost: object
    equilibrium_count: int
    best_eq_cost: object
    worst_eq_cost: object
    poa: Fraction
    pos: Fraction
    opt_witness: OwnedGraph
    best_witness: OwnedGraph
    worst_witness: OwnedGraph
    stage_counts: dict
    eq_diameter_max: int

    def as_dict(self):
        return {
            "n": self.n,
            "config": self.config.describe(),
            "opt_cost": plain(self.opt_cost),
            "equilibrium_count": self.equilibrium_count,
            "best_eq_cost": plain(self.best_eq_cost),
            "worst_eq_cost": plain(self.worst_eq_cost),
            "poa": plain(self.poa),
            "pos": plain(self.pos),
            "eq_diameter_max": self.eq_diameter_max,
            "stage_counts": dict(self.stage_counts),
        }


def equilibrium_census(n, cfg, workers=1):
    """Filter every state through connectivity and equilibrium checks.

    Every connected state is checked exactly, at any n up to
    MAX_ENUM_NODES.  Stage, social cost and diameter do not change when
    the nodes are relabelled, so the census walks one edge mask per
    unlabelled graph -- the smallest of its orbit, in ascending order --
    and weights its labellings' stage counts by the orbit size.  The
    witnesses are the ones a walk over every edge mask picks: if the
    first cheapest (dearest) equilibrium's mask were not the smallest of
    its orbit, that smallest mask would hold an equally cheap (dear)
    equilibrium earlier.  n = 6 takes 0.1-0.4 s per game on one process
    of a 2-core x86-64 host with Python 3.11, after the 0.1-0.2 s of
    ``_tables(6)``.  ``workers`` is kept for callers that pass 1.

    PoA and PoS are ratios to the optimum, so an optimum that costs 0 or
    less raises ValueError before the walk.
    """
    if n < 2:
        raise ValueError(f"census needs n >= 2, got {n}")
    if workers != 1:
        raise ValueError(f"the census runs on one process, got workers={workers}")
    opt_cost, opt_witness = optimal_social_cost(n, cfg)
    if opt_cost <= 0:
        raise ValueError(f"PoA and PoS need a positive optimum; at n={n} it costs {opt_cost}")
    ev = _StateEvaluator(n, cfg)
    low, high = ev.low, ev.high
    counts = dict.fromkeys(
        ("states", "disconnected", "failed_single_move", "failed_exact", "equilibria"), 0
    )
    best = worst = None
    diam_max = 0
    for emask, orbit in zip(*_classes(n)):
        labellings = 1 << bin(emask).count("1")
        counts["states"] += orbit * labellings
        if not ev.connected[emask]:
            counts["disconnected"] += orbit * labellings
            continue
        # u's verdict per owned-pair mask, shared by every labelling of emask
        verdicts = [{} for _ in range(n)]
        dist_total = int(ev.distsum[emask].sum())
        eq_before = counts["equilibria"]
        for sub in _labellings(emask):
            failed = 0
            cost = dist_total
            by_higher = emask ^ sub  # as in ev.owned: the edges their higher endpoint owns
            for u, table in enumerate(verdicts):
                owned = (sub & low[u]) | (by_higher & high[u])
                verdict = table.get(owned)
                if verdict is None:
                    verdict = table[owned] = ev.agent_verdict(emask, owned, u)
                stage, spend = verdict
                if stage == 2:
                    failed = 2
                    break
                if stage > failed:
                    failed = stage
                cost = cost + spend
            if failed == 2:
                counts["failed_single_move"] += orbit
            elif failed == 1:
                counts["failed_exact"] += orbit
            else:
                counts["equilibria"] += orbit
                if best is None or cost < best[0]:
                    best = (cost, (emask, sub))
                if worst is None or cost > worst[0]:
                    worst = (cost, (emask, sub))
        if counts["equilibria"] > eq_before:
            diam_max = max(diam_max, int(ev.dist[emask].max()))
    if counts["equilibria"] == 0:
        raise OracleBudgetExceeded(f"no equilibrium found at n={n}; census degenerate")
    best_eq_cost, best_state = best
    worst_eq_cost, worst_state = worst
    return EnumerationSummary(
        n=n,
        config=cfg,
        opt_cost=opt_cost,
        equilibrium_count=counts["equilibria"],
        best_eq_cost=best_eq_cost,
        worst_eq_cost=worst_eq_cost,
        poa=Fraction(worst_eq_cost) / Fraction(opt_cost),
        pos=Fraction(best_eq_cost) / Fraction(opt_cost),
        opt_witness=opt_witness,
        best_witness=_state_to_graph(n, *best_state),
        worst_witness=_state_to_graph(n, *worst_state),
        stage_counts=counts,
        eq_diameter_max=diam_max,
    )


def optimal_social_cost(n, cfg):
    """Minimum social cost over all connected states, with a witness.

    Enumerates undirected graphs only: distances ignore ownership, and
    each edge's price is minimized independently by orienting it toward
    whichever endpoint is cheaper under the price function.  That yields
    the exact optimum over ownership-labeled states (cross-checked
    against the plain 3^P enumeration in the test suite).  As in the
    census, one edge mask per unlabelled graph suffices, and the first
    cheapest is the one a walk over every edge mask finds.
    """
    ev = _StateEvaluator(n, cfg)
    pairs, price, degs = _pairs(n), ev.price, ev.degs
    best = None
    best_mask = None
    best_orient = None
    for emask in _classes(n)[0]:
        if not ev.connected[emask]:
            continue
        total = int(ev.distsum[emask].sum())
        orient = 0
        for i, (a, b) in enumerate(pairs):
            if emask >> i & 1:
                pa = price[degs[emask, a]]
                pb = price[degs[emask, b]]
                # cheaper endpoint becomes the target; bit set = lower owns
                if pb <= pa:
                    total = total + pb
                    orient |= 1 << i
                else:
                    total = total + pa
        if best is None or total < best:
            best, best_mask, best_orient = total, emask, orient
    return best, _state_to_graph(n, best_mask, best_orient)


def reachable_closure(g0, cfg):
    """All states reachable from g0 via strictly improving deviations.

    Add-only variants only (the closure is finite by the edge-count
    potential), at n <= MAX_ENUM_NODES: a larger g0 raises
    OracleBudgetExceeded before any table is built.  Returns a list of
    (graph, is_terminal, cost) triples, depth first from g0: terminal
    states admit no improving deviation by any agent, and cost is the
    state's social cost, ``math.inf`` for a disconnected one.  Raises
    OracleBudgetExceeded past MAX_CLOSURE_STATES states.
    """
    if not cfg.add_only:
        raise ValueError("reachability closure needs an add-only config")
    start = _graph_to_state(g0)  # the size gate, before any table is built
    ev = _StateEvaluator(g0.n, cfg)
    seen = {start}
    stack = [start]
    order = []
    while stack:
        state = stack.pop()
        successors, cost = ev.purchases(*state)
        order.append((_state_to_graph(g0.n, *state), not successors, cost))
        if len(order) + len(stack) > MAX_CLOSURE_STATES:
            raise OracleBudgetExceeded(
                f"reachable closure from n={g0.n} start passed {MAX_CLOSURE_STATES} states"
            )
        for succ in successors:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return order


def _first_cover(sets, universe):
    """(count, indices): the fewest of ``sets`` whose union is ``universe``,
    the lexicographically first such indices among those; more than
    ``MAX_COVER_SETS`` sets raise OracleBudgetExceeded."""
    if len(sets) > MAX_COVER_SETS:
        raise OracleBudgetExceeded(f"{len(sets)} sets exceeds enumeration cap {MAX_COVER_SETS}")
    for r in range(len(sets) + 1):
        for picked in combinations(range(len(sets)), r):
            if frozenset().union(*(sets[i] for i in picked)) == universe:
                return r, picked
    raise AssertionError("the caller checked that the union of all sets covers")


def min_set_cover(inst):
    """Exact minimum cover by subset enumeration, lex-first witness."""
    sets = [frozenset(s) for s in inst.sets]
    universe = frozenset(range(inst.universe_size))
    covered = frozenset().union(*sets)
    if covered != universe:
        missing = sorted(universe - covered)
        raise InfeasibleInstanceError(f"elements {missing} appear in no set")
    return _first_cover(sets, universe)


def min_dominating_set(g):
    """Exact minimum dominating set by subset enumeration, lex-first witness."""
    closed = [frozenset(g.neighbors(v)) | {v} for v in range(g.n)]
    return _first_cover(closed, frozenset(range(g.n)))
