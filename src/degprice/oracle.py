"""Brute-force ground truth for small instances.

Everything here is deliberately independent of the move engine: states
are edge bitmasks, costs come from precomputed distance tables, and
deviations are re-derived from scratch.  Census results can therefore
cross-check the engine rather than inherit its bugs.

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
"""

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from degprice._kernels import UNREACHABLE, apsp
from degprice.costs import agent_cost, plain, social_cost
from degprice.errors import InfeasibleInstanceError, OracleBudgetExceeded
from degprice.graph import OwnedGraph
from degprice.moves import candidate_targets, evaluate_deviation

MAX_ENUM_NODES = 6
MAX_COVER_SETS = 20
MAX_DOMINATING_NODES = 20

__all__ = [
    "EnumerationSummary",
    "enumerate_states",
    "equilibrium_census",
    "optimal_social_cost",
    "best_reachable",
    "reachable_closure",
    "min_set_cover",
    "min_dominating_set",
    "worker_count",
]


def worker_count():
    """Worker count for census chunking: DEGPRICE_WORKERS, else 1."""
    value = int(os.environ.get("DEGPRICE_WORKERS") or 1)
    if value < 1:
        raise ValueError("DEGPRICE_WORKERS must be >= 1")
    return value


@lru_cache(maxsize=8)
def _pairs(n):
    """The unordered node pairs in mask-bit order: pair i is bit i."""
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=8)
def _tables(n):
    """Distance/degree tables for every undirected graph on n nodes."""
    if n > MAX_ENUM_NODES:
        raise OracleBudgetExceeded(f"tables limited to n <= {MAX_ENUM_NODES}, got {n}")
    pairs = _pairs(n)
    m = 1 << len(pairs)
    dist = np.empty((m, n, n), dtype=np.int64)
    degs = np.empty((m, n), dtype=np.int64)
    for mask in range(m):
        neighbours = [set() for _ in range(n)]
        for i, (a, b) in enumerate(pairs):
            if mask >> i & 1:
                neighbours[a].add(b)
                neighbours[b].add(a)
        dist[mask] = apsp(neighbours)
        degs[mask] = [len(s) for s in neighbours]
    distsum = dist.sum(axis=2)
    connected = (dist < UNREACHABLE).all(axis=(1, 2))
    return pairs, dist, degs, distsum, connected


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
    g = OwnedGraph(n)
    for i, (a, b) in enumerate(_pairs(n)):
        if emask >> i & 1:
            if omask >> i & 1:
                g.add_edge(a, b)
            else:
                g.add_edge(b, a)
    return g


def enumerate_states(n):
    """Every ownership-labeled simple graph on n nodes, exactly once.

    3^(n(n-1)/2) states: each pair is absent, owned by its lower
    endpoint, or owned by its higher endpoint.
    """
    if n > MAX_ENUM_NODES:
        raise OracleBudgetExceeded(
            f"state enumeration limited to n <= {MAX_ENUM_NODES}, got {n}"
        )
    p = n * (n - 1) // 2
    for emask in range(1 << p):
        sub = emask
        while True:
            yield _state_to_graph(n, emask, sub)
            if sub == 0:
                break
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

    def agent_verdict(self, emask, owned, u):
        """(stage, spend): u's index in ``_STAGES`` and its edges' prices.

        The single-move check runs first; only an agent that passes it
        gets the exact scan over every subset of its variable targets.
        """
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
        current = self.deviation_cost(base, u, kept)
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

    def failed_stage(self, emask, omask):
        """First check the state fails, "single-move" then "exact", or None:
        the worst of its agents' stages."""
        worst = max(
            self.agent_verdict(emask, self.owned(emask, omask, u), u)[0] for u in range(self.n)
        )
        return _STAGES[worst]


@dataclass(frozen=True)
class EnumerationSummary:
    """Exhaustive per-size census: optimum, equilibria, and ratios."""

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
            "poa": float(self.poa),
            "pos": float(self.pos),
            "eq_diameter_max": self.eq_diameter_max,
            "stage_counts": dict(self.stage_counts),
        }


def _census_chunk(n, cfg, lo, hi):
    """Census statistics over the emask range [lo, hi)."""
    ev = _StateEvaluator(n, cfg)
    low, high = ev.low, ev.high
    counts = {"states": 0, "disconnected": 0, "failed_single_move": 0, "failed_exact": 0}
    eq_count = 0
    best = worst = None
    best_state = worst_state = None
    diam_max = 0
    for emask in range(lo, hi):
        if not ev.connected[emask]:
            edges = bin(emask).count("1")
            per_mask = 1 << edges
            counts["states"] += per_mask
            counts["disconnected"] += per_mask
            continue
        # u's verdict per owned-pair mask, shared by every labelling of emask
        verdicts = [{} for _ in range(n)]
        dist_total = int(ev.distsum[emask].sum())
        mask_has_eq = False
        sub = emask
        while True:
            counts["states"] += 1
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
                counts["failed_single_move"] += 1
            elif failed == 1:
                counts["failed_exact"] += 1
            else:
                eq_count += 1
                mask_has_eq = True
                if best is None or cost < best:
                    best, best_state = cost, (emask, sub)
                if worst is None or cost > worst:
                    worst, worst_state = cost, (emask, sub)
            if sub == 0:
                break
            sub = (sub - 1) & emask
        if mask_has_eq:
            diam_max = max(diam_max, int(ev.dist[emask].max()))
    return counts, eq_count, best, best_state, worst, worst_state, diam_max


def equilibrium_census(n, cfg, workers=None):
    """Filter every state through connectivity and equilibrium checks.

    Every connected state is checked exactly, at any n up to
    MAX_ENUM_NODES.  n = 6 (14 348 907 states) took 22 s for ncg global
    and 50 s for aog k=2 on one worker of a 2-core x86-64 host with
    Python 3.11, so the emask range can be spread over worker processes
    (DEGPRICE_WORKERS).
    """
    if n < 2:
        raise ValueError(f"census needs n >= 2, got {n}")
    if n > MAX_ENUM_NODES:
        raise OracleBudgetExceeded(f"census limited to n <= {MAX_ENUM_NODES}, got {n}")
    workers = worker_count() if workers is None else workers
    p = n * (n - 1) // 2
    m = 1 << p
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, m, workers * 4 + 1).astype(int)
        jobs = [
            (n, cfg, int(bounds[i]), int(bounds[i + 1]))
            for i in range(len(bounds) - 1)
            if bounds[i] < bounds[i + 1]
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_census_chunk_star, jobs))
    else:
        parts = [_census_chunk(n, cfg, 0, m)]

    counts = {"states": 0, "disconnected": 0, "failed_single_move": 0, "failed_exact": 0}
    eq_count = 0
    best = worst = None
    best_state = worst_state = None
    diam_max = 0
    for c, eq, b, bs, w, ws, dm in parts:
        for key in counts:
            counts[key] += c[key]
        eq_count += eq
        diam_max = max(diam_max, dm)
        if b is not None and (best is None or b < best):
            best, best_state = b, bs
        if w is not None and (worst is None or w > worst):
            worst, worst_state = w, ws
    counts["equilibria"] = eq_count
    if eq_count == 0:
        raise OracleBudgetExceeded(f"no equilibrium found at n={n}; census degenerate")

    opt_cost, opt_witness = optimal_social_cost(n, cfg)
    return EnumerationSummary(
        n=n,
        config=cfg,
        opt_cost=opt_cost,
        equilibrium_count=eq_count,
        best_eq_cost=best,
        worst_eq_cost=worst,
        poa=Fraction(worst) / Fraction(opt_cost),
        pos=Fraction(best) / Fraction(opt_cost),
        opt_witness=opt_witness,
        best_witness=_state_to_graph(n, *best_state),
        worst_witness=_state_to_graph(n, *worst_state),
        stage_counts=counts,
        eq_diameter_max=diam_max,
    )


def _census_chunk_star(args):
    return _census_chunk(*args)


def optimal_social_cost(n, cfg):
    """Minimum social cost over all connected states, with a witness.

    Enumerates undirected graphs only: distances ignore ownership, and
    each edge's price is minimized independently by orienting it toward
    whichever endpoint is cheaper under the price function.  That yields
    the exact optimum over ownership-labeled states (cross-checked
    against the plain 3^P enumeration in the test suite).
    """
    if n > MAX_ENUM_NODES:
        raise OracleBudgetExceeded(f"optimal search limited to n <= {MAX_ENUM_NODES}")
    pairs, dist, degs, distsum, connected = _tables(n)
    price = [cfg.price_beta * d + cfg.price_gamma for d in range(n)]
    best = None
    best_mask = None
    best_orient = None
    m = 1 << len(pairs)
    for emask in range(m):
        if not connected[emask]:
            continue
        total = int(distsum[emask].sum())
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


def reachable_closure(g0, cfg, budget=200_000):
    """All states reachable from g0 via strictly improving deviations.

    Add-only variants only (the closure is finite by the edge-count
    potential).  Returns a list of (graph, is_terminal) pairs; terminal
    states admit no improving deviation by any agent.
    """
    if not cfg.add_only:
        raise ValueError("reachability closure needs an add-only config")
    seen = {}
    order = []
    stack = [g0.copy()]
    seen[g0.state_key()] = 0
    while stack:
        g = stack.pop()
        successors = _improving_successors(g, cfg)
        order.append((g, len(successors) == 0))
        if len(order) + len(stack) > budget:
            raise OracleBudgetExceeded(
                f"reachable closure from n={g0.n} start passed budget {budget}"
            )
        for succ in successors:
            key = succ.state_key()
            if key not in seen:
                seen[key] = len(seen)
                stack.append(succ)
    return order


def _improving_successors(g, cfg):
    out = []
    for u in range(g.n):
        current = agent_cost(g, u, cfg).total
        cands = sorted(candidate_targets(g, u, cfg))
        base = g.targets(u)
        for r in range(1, len(cands) + 1):
            for picked in combinations(cands, r):
                strategy = base | set(picked)
                if evaluate_deviation(g, u, strategy, cfg) < current:
                    succ = g.copy()
                    for v in picked:
                        succ.add_edge(u, v)
                    out.append(succ)
    return out


def best_reachable(g0, cfg, budget=200_000):
    """Minimum social cost over the improving-response closure of g0."""
    best = None
    witness = None
    for g, _terminal in reachable_closure(g0, cfg, budget=budget):
        cost = social_cost(g, cfg)
        if cost != math.inf and (best is None or cost < best):
            best, witness = cost, g
    return best, witness


def min_set_cover(inst):
    """Exact minimum cover by subset enumeration, lex-first witness."""
    sets = [frozenset(s) for s in inst.sets]
    if len(sets) > MAX_COVER_SETS:
        raise OracleBudgetExceeded(f"{len(sets)} sets exceeds enumeration cap {MAX_COVER_SETS}")
    universe = frozenset(range(inst.universe_size))
    covered = frozenset().union(*sets) if sets else frozenset()
    if covered != universe:
        missing = sorted(universe - covered)
        raise InfeasibleInstanceError(f"elements {missing} appear in no set")
    if not universe:
        return 0, ()
    for r in range(1, len(sets) + 1):
        for picked in combinations(range(len(sets)), r):
            if frozenset().union(*(sets[i] for i in picked)) == universe:
                return r, tuple(picked)
    raise AssertionError("full union covers, so some subset must")


def min_dominating_set(g):
    """Exact minimum dominating set by subset enumeration."""
    if g.n > MAX_DOMINATING_NODES:
        raise OracleBudgetExceeded(f"n={g.n} exceeds dominating-set cap {MAX_DOMINATING_NODES}")
    closed = [frozenset(g.neighbors(v)) | {v} for v in range(g.n)]
    everyone = frozenset(range(g.n))
    for r in range(1, g.n + 1):
        for picked in combinations(range(g.n), r):
            if frozenset().union(*(closed[v] for v in picked)) == everyone:
                return r, tuple(picked)
    raise AssertionError("picking all nodes always dominates")
