"""Exhaustive small-instance oracles: censuses, optima, closures, covers."""

import ast
import math
import sys
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, permutations
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import floyd_warshall, owned_graphs
from degprice import _kernels, moves, oracle
from degprice.constructions import SetCoverInstance, build_figure_network, build_path
from degprice.costs import (
    GameConfig,
    agent_cost,
    candidate_targets,
    evaluate_deviation,
    social_cost,
)
from degprice.errors import InfeasibleInstanceError, OracleBudgetExceeded
from degprice.graph import OwnedGraph, degree, diameter, is_connected
from degprice.moves import verify_equilibrium
from degprice.oracle import (
    _graph_to_state,
    _StateEvaluator,
    enumerate_states,
    equilibrium_census,
    min_dominating_set,
    min_set_cover,
    optimal_social_cost,
    reachable_closure,
)


def test_census_tables_share_no_kernel_with_the_engine(monkeypatch):
    """The census's tables come from its own search: they build with the
    engine's BFS broken and match Floyd-Warshall on every edge mask."""

    def broken(*args):
        raise AssertionError("the census tables called the engine's bfs_row")

    monkeypatch.setattr(_kernels, "bfs_row", broken)
    oracle._tables.cache_clear()
    for n in range(1, 6):
        _, dist, degs, _, _ = oracle._tables(n)
        for emask in range(len(dist)):
            g = oracle._state_to_graph(n, emask, emask)
            assert (dist[emask] == floyd_warshall(g)).all()
            assert degs[emask].tolist() == [degree(g, v) for v in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_states_counts_and_uniqueness(n):
    states = list(enumerate_states(n))
    keys = {g.state_key() for g in states}
    pairs = n * (n - 1) // 2
    assert len(states) == len(keys) == 3**pairs


def test_enumeration_cap():
    with pytest.raises(OracleBudgetExceeded):
        list(enumerate_states(7))
    with pytest.raises(OracleBudgetExceeded):
        optimal_social_cost(7, GameConfig())
    with pytest.raises(OracleBudgetExceeded, match="enumeration limited to n <= 6, got 7"):
        equilibrium_census(7, GameConfig())


def relabel(g, perm):
    """g with node v renamed perm[v]; each edge keeps its owner."""
    return OwnedGraph(g.n, [(perm[u], perm[v]) for u, v in g.owned_edges])


def test_class_table_holds_each_unlabelled_graph_once():
    for n, count in zip(range(1, 7), (1, 2, 4, 11, 34, 156)):  # OEIS A000088
        masks, orbits = oracle._classes(n)
        assert len(masks) == len(orbits) == count
        assert sum(orbits) == 1 << (n * (n - 1) // 2)
        assert all(a < b for a, b in zip(masks, masks[1:]))
    for n in range(1, 6):
        for mask, orbit in zip(*oracle._classes(n)):
            g = oracle._state_to_graph(n, mask, mask)
            images = {_graph_to_state(relabel(g, p))[0] for p in permutations(range(n))}
            assert min(images) == mask and len(images) == orbit
    cached = oracle._classes.cache_info().currsize
    with pytest.raises(OracleBudgetExceeded):
        oracle._classes(7)
    assert oracle._classes.cache_info().currsize == cached


@pytest.mark.parametrize(
    "cfg", [GameConfig(), GameConfig(price_beta=3, price_gamma=0), GameConfig(price_beta=0)]
)
def test_optimum_matches_plain_state_scan(cfg):
    """The orientation shortcut must agree with brute force over all states,
    witness included: the first cheapest connected state, so an edge whose
    endpoints cost the same (every edge at beta = 0) is the lower one's."""
    for n in (2, 3, 4):
        first = min(filter(is_connected, enumerate_states(n)), key=partial(social_cost, cfg=cfg))
        assert optimal_social_cost(n, cfg) == (social_cost(first, cfg), first)


@pytest.mark.parametrize("n", range(2, 7))
def test_optimum_is_center_sponsored_star(n):
    cost, witness = optimal_social_cost(n, GameConfig())
    assert cost == 2 * (n - 1) ** 2
    degrees = sorted(len(witness.neighbors(v)) for v in range(n))
    assert degrees == [1] * (n - 1) + [n - 1]


PINNED = {
    # (variant, k, n): count, opt, best, worst, poa, diam_max
    ("ncg", None, 3): (20, 8, 8, 10, Fraction(5, 4), 2),
    ("ncg", None, 4): (100, 18, 18, 21, Fraction(7, 6), 2),
    ("ncg", None, 5): (1149, 32, 32, 40, Fraction(5, 4), 2),
    ("ncg", None, 6): (48341, 50, 50, 62, Fraction(31, 25), 3),
    ("ncg", 2, 4): (196, 18, 18, 23, Fraction(23, 18), 3),
    ("ncg", 2, 5): (2229, 32, 32, 40, Fraction(5, 4), 3),
    ("ncg", 2, 6): (72461, 50, 50, 64, Fraction(32, 25), 3),
    ("aog", None, 4): (528, 18, 18, 24, Fraction(4, 3), 2),
    ("aog", None, 5): (43728, 32, 32, 50, Fraction(25, 16), 2),
    ("aog", None, 6): (11759808, 50, 50, 90, Fraction(9, 5), 3),
    ("aog", 2, 5): (54288, 32, 32, 50, Fraction(25, 16), 3),
    ("aog", 2, 6): (13797888, 50, 50, 90, Fraction(9, 5), 4),
}


@pytest.mark.parametrize(
    "key", sorted(PINNED, key=str), ids=lambda k: f"{k[0]}-k{k[1]}-n{k[2]}"
)
def test_census_pinned_values(key, census):
    variant, k, n = key
    count, opt, best, worst, poa, diam = PINNED[key]
    s = census.get(variant, k, n)
    assert s.equilibrium_count == count
    assert (s.opt_cost, s.best_eq_cost, s.worst_eq_cost) == (opt, best, worst)
    assert s.poa == poa
    assert s.pos == 1
    assert s.eq_diameter_max == diam
    d = s.as_dict()
    assert d["equilibrium_count"] == count and d["pos"] == 1.0


STAGES_N4 = {
    # (variant, k): states, disconnected, failed_single_move, failed_exact, equilibria
    ("ncg", None): (729, 105, 496, 28, 100),
    ("ncg", 2): (729, 105, 400, 28, 196),
    ("aog", None): (729, 105, 96, 0, 528),
    ("aog", 2): (729, 105, 0, 0, 624),
}


STAGES_N5 = {
    ("ncg", None): (59049, 3801, 53844, 255, 1149),
    ("ncg", 2): (59049, 3801, 51924, 1095, 2229),
    ("aog", None): (59049, 3801, 11520, 0, 43728),
    ("aog", 2): (59049, 3801, 960, 0, 54288),
}

STAGES_N6 = {
    ("ncg", None): (14348907, 366699, 13912321, 21546, 48341),
    ("ncg", 2): (14348907, 366699, 13861201, 48546, 72461),
    ("aog", None): (14348907, 366699, 2222400, 0, 11759808),
    ("aog", 2): (14348907, 366699, 184320, 0, 13797888),
}

STAGE_FIELDS = ("states", "disconnected", "failed_single_move", "failed_exact", "equilibria")


@pytest.mark.parametrize("key", sorted(STAGES_N4, key=str), ids=lambda k: f"{k[0]}-k{k[1]}")
def test_census_stage_counts_n4(key, census):
    counts = census.get(*key, 4).stage_counts
    assert tuple(counts[f] for f in STAGE_FIELDS) == STAGES_N4[key]


@pytest.mark.parametrize("key", sorted(STAGES_N5, key=str), ids=lambda k: f"{k[0]}-k{k[1]}")
def test_census_stage_counts_n5(key, census):
    counts = census.get(*key, 5).stage_counts
    assert tuple(counts[f] for f in STAGE_FIELDS) == STAGES_N5[key]


@pytest.mark.parametrize("key", sorted(STAGES_N6, key=str), ids=lambda k: f"{k[0]}-k{k[1]}")
def test_census_stage_counts_n6(key, census):
    counts = census.get(*key, 6).stage_counts
    assert tuple(counts[f] for f in STAGE_FIELDS) == STAGES_N6[key]


SMALL_GAMES = [GameConfig(variant=v, locality_k=k) for v in ("ncg", "aog") for k in (None, 2)] + [
    GameConfig(price_beta=Fraction(1, 3), price_gamma=Fraction(1, 2)),
    GameConfig(price_beta=10**9, price_gamma=0),
    GameConfig(price_beta=-1, price_gamma=5),
]


@pytest.mark.parametrize("cfg", SMALL_GAMES, ids=lambda cfg: cfg.describe())
def test_census_matches_a_plain_state_loop(cfg):
    """The census's per-agent verdict tables give what a state-by-state loop
    over failed_stage and social_cost gives, witnesses included."""
    for n in (2, 3, 4):
        ev = _StateEvaluator(n, cfg)
        counts = dict.fromkeys(STAGE_FIELDS, 0)
        best = worst = None
        diam_max = 0
        for g in enumerate_states(n):
            counts["states"] += 1
            if not is_connected(g):
                counts["disconnected"] += 1
                continue
            stage = ev.failed_stage(*_graph_to_state(g))
            counts[stage] += 1
            if stage != "equilibria":
                continue
            cost = social_cost(g, cfg)
            if best is None or cost < best[0]:
                best = (cost, g)
            if worst is None or cost > worst[0]:
                worst = (cost, g)
            diam_max = max(diam_max, diameter(g))
        s = equilibrium_census(n, cfg)
        assert s.stage_counts == counts
        assert s.equilibrium_count == counts["equilibria"]
        assert (s.best_eq_cost, s.best_witness) == best
        assert (s.worst_eq_cost, s.worst_witness) == worst
        assert s.eq_diameter_max == diam_max


@settings(max_examples=60, deadline=None)
@given(owned_graphs(max_n=5, connected=True), st.data())
def test_stage_and_cost_survive_relabelling(g, data):
    """The census weights one edge mask per unlabelled graph by its orbit
    size, which holds only if relabelling changes no stage and no cost of
    a connected state (the census decides no other)."""
    image = relabel(g, data.draw(st.permutations(range(g.n))))
    for cfg in SMALL_GAMES:
        ev = _StateEvaluator(g.n, cfg)
        assert ev.failed_stage(*_graph_to_state(image)) == ev.failed_stage(*_graph_to_state(g))
        assert social_cost(image, cfg) == social_cost(g, cfg)


@pytest.mark.parametrize("cfg", SMALL_GAMES, ids=lambda cfg: cfg.describe())
def test_verify_agrees_with_oracle_on_every_small_state(cfg):
    """The move engine's verdict at both levels matches the mask oracle's,
    disconnected states included."""
    for n in (2, 3, 4):
        ev = _StateEvaluator(n, cfg)
        for g in enumerate_states(n):
            stage = ev.failed_stage(*_graph_to_state(g))
            single = verify_equilibrium(g, cfg, level="single-move").is_equilibrium
            exact = verify_equilibrium(g, cfg, level="exact").is_equilibrium
            assert (single, exact) == (stage != "failed_single_move", stage == "equilibria"), g


BEST_RESPONSE_GAMES = [
    GameConfig(variant=v, locality_k=k) for v in ("ncg", "aog") for k in (None, 2)
] + [
    GameConfig(price_beta=Fraction(1, 3), price_gamma=Fraction(1, 2)),
    GameConfig(variant="aog", price_gamma=-3),
    GameConfig(variant="aog", locality_k=2, price_gamma=-3),
    GameConfig(locality_k=2, price_gamma=-3),
]


def _oracle_single_move(price, kept, new, cfg, policy):
    """(kind, cost) of the single move ``policy`` plays, priced by the oracle,
    or None: the first improving move in canonical order, or under
    BEST_SINGLE_EDGE the cheapest improving addition, smaller target first."""
    now = price(kept)
    options = ((moves.AddEdge(v), kept + [v]) for v in new)
    if policy == moves.BEST_SINGLE_EDGE:
        adds = [(kind, price(s)) for kind, s in options]
        return min((m for m in adds if m[1] < now), key=lambda m: m[1], default=None)
    if not cfg.add_only:
        rest = {o: [v for v in kept if v != o] for o in kept}
        drops = ((moves.DeleteEdge(o), rest[o]) for o in kept)
        swaps = ((moves.SwapEdge(o, v), rest[o] + [v]) for o in kept for v in new)
        options = chain(options, drops, swaps)
    return next(((kind, c) for kind, s in options if (c := price(s)) < now), None)


@pytest.mark.parametrize("cfg", BEST_RESPONSE_GAMES, ids=lambda cfg: cfg.describe())
def test_best_responses_agree_with_oracle_on_five_nodes(cfg):
    """The engine's exact best response is the oracle's cheapest strategy
    on 5 nodes, disconnected states included: the same cost, size and
    targets, ties broken toward fewer edges, then the smaller targets.
    Each single-move policy's ``improving_move`` record is the oracle's
    move of that policy, with the same costs, and None exactly when the
    oracle finds none.

    Like the census, the walk visits one edge mask per unlabelled graph
    with all of its labellings, and prices each agent once per owned-pair
    mask.  The oracle prices kept plus every subset of the new targets in
    aog, and every subset of kept and new in ncg.
    """
    n, k = 5, cfg.locality_k
    ev = _StateEvaluator(n, cfg)
    for emask in oracle._classes(n)[0]:
        seen = [set() for _ in range(n)]
        for sub in oracle._labellings(emask):
            g = oracle._state_to_graph(n, emask, sub)
            position = moves._Position(g, cfg)
            for u in range(n):
                owned = ev.owned(emask, sub, u)
                if owned in seen[u]:
                    continue
                seen[u].add(owned)
                kept = [v for v in range(n) if owned & ev.bits[u][v]]
                new = [
                    v
                    for v in range(n)
                    if v != u
                    and not emask & ev.bits[u][v]
                    and (k is None or ev.dist[emask, u, v] <= k)
                ]
                fixed, variable = (kept, new) if cfg.add_only else ([], kept + new)
                base = emask & ~owned
                strategies = (
                    fixed + list(picked)
                    for r in range(len(variable) + 1)
                    for picked in combinations(variable, r)
                )
                expected = min(
                    (ev.deviation_cost(base, u, s), len(s), sorted(s)) for s in strategies
                )
                targets, cost = moves.best_response_exact(g, u, cfg)
                assert (cost, len(targets), sorted(targets)) == expected, (g, u)
                price = partial(ev.deviation_cost, base, u)
                for policy in (moves.FIRST_IMPROVING_SINGLE_MOVE, moves.BEST_SINGLE_EDGE):
                    record = moves._Pricing(position, u).improving_move(policy)
                    move = _oracle_single_move(price, kept, new, cfg, policy)
                    if move is None:
                        assert record is None, (g, u, policy)
                    else:
                        assert record.cost_before == price(kept), (g, u, policy)
                        assert (record.kind, record.cost_after) == move, (g, u, policy)


def test_census_witnesses_verify_independently(census):
    """Best/worst census witnesses must pass the move-based exact check."""
    for variant, k in (("ncg", None), ("ncg", 2), ("aog", None), ("aog", 2)):
        cfg = GameConfig(variant=variant, locality_k=k)
        s = census.get(variant, k, 4)
        for g in (s.best_witness, s.worst_witness):
            assert verify_equilibrium(g, cfg, level="exact").is_equilibrium
        assert social_cost(s.worst_witness, cfg) == s.worst_eq_cost
        assert social_cost(s.opt_witness, cfg) == s.opt_cost


PRICE_GRID = tuple((Fraction(b), g) for b in (0, Fraction(1, 2), 1, 2, 4) for g in (-1, 0, 1, 3))


def test_census_claims_hold_where_pinned_in_price_space():
    """Where census criteria 2-5 hold at n = 5, over a grid of prices
    ``beta * deg + gamma`` around the paper's (1, -1), in all four games.

    Criterion 5 (PoS = 1) fails only at (1/2, -1), with 28/27.  Criterion
    2 (the optimum is a star) fails at beta = 0 with gamma <= 1 and at
    (1/2, -1).  Criterion 3 (ncg global equilibria have diameter <= 3)
    fails with diameter 4 at (1/2, 3), (1, 3), (2, gamma >= 0) and every
    beta = 4.  Criterion 4 (the 2-local root bound) holds everywhere.  At
    each point the optimum's witness costs the optimum and the best and
    worst witnesses verify exact.
    """
    n, root_bound = 5, (2 / 3) * (1 + math.sqrt(9 * 5 + 19))
    pos, not_star, ncg_diameter, aog_poa = {}, set(), {}, {}
    for variant in ("ncg", "aog"):
        for k in (None, 2):
            for beta, gamma in PRICE_GRID:
                cfg = GameConfig(
                    variant=variant, locality_k=k, price_beta=beta, price_gamma=gamma
                )
                game = (variant, k, beta, gamma)
                s = equilibrium_census(n, cfg)
                assert social_cost(s.opt_witness, cfg) == s.opt_cost, game
                for g in (s.best_witness, s.worst_witness):
                    assert verify_equilibrium(g, cfg, level="exact").is_equilibrium, game
                if s.pos != 1:
                    pos[game] = s.pos
                if sorted(degree(s.opt_witness, v) for v in range(n)) != [1] * (n - 1) + [n - 1]:
                    not_star.add(game)
                if k == 2:
                    assert s.eq_diameter_max < root_bound, game
                elif variant == "ncg":
                    ncg_diameter[beta, gamma] = s.eq_diameter_max
                elif gamma == -1:
                    aog_poa[beta] = s.poa
    half = Fraction(1, 2)
    games = [(variant, k) for variant in ("ncg", "aog") for k in (None, 2)]
    assert pos == {(*game, half, -1): Fraction(28, 27) for game in games}
    off_star = [(0, -1), (0, 0), (0, 1), (half, -1)]
    assert not_star == {(*game, *point) for game in games for point in off_star}
    wide = {(half, 3), (1, 3), (2, 0), (2, 1), (2, 3), (4, -1), (4, 0), (4, 1), (4, 3)}
    assert {point for point, d in ncg_diameter.items() if d > 3} == wide
    assert max(ncg_diameter.values()) == 4
    # aog global at gamma = -1: PoA grows with beta
    assert aog_poa == {
        0: 1, half: Fraction(31, 27), 1: Fraction(25, 16), 2: Fraction(5, 2), 4: Fraction(85, 22)
    }


def test_census_counts_what_verify_accepts_under_huge_prices():
    """Edges dearer than 10^9 each: cutting yourself off still never pays."""
    cfg = GameConfig(price_beta=10**9, price_gamma=0)
    accepted = sum(
        1
        for g in enumerate_states(4)
        if is_connected(g) and verify_equilibrium(g, cfg, level="exact").is_equilibrium
    )
    assert equilibrium_census(4, cfg).equilibrium_count == accepted == 100


def test_census_needs_a_worker():
    """One process runs every census; the keyword accepts only 1."""
    for workers in (0, 2):
        with pytest.raises(ValueError, match="one process"):
            equilibrium_census(4, GameConfig(), workers=workers)
    assert equilibrium_census(3, GameConfig(), workers=1).equilibrium_count == 20


def test_census_refuses_a_non_positive_optimum():
    """PoA and PoS are ratios to the optimum: one that costs 0 or less is
    refused, not divided by or printed as a ratio."""
    for n, gamma, opt in ((3, -20, -48), (2, -3, 0)):
        cfg = GameConfig(price_gamma=gamma)
        assert optimal_social_cost(n, cfg)[0] == opt
        with pytest.raises(ValueError, match=f"positive optimum; at n={n} it costs {opt}"):
            equilibrium_census(n, cfg)


def test_scalar_reference_shares_no_kernel_with_the_engine(monkeypatch):
    """With bfs_row and apsp broken wherever a degprice module binds them,
    the costs reference and the closure still give their pinned values."""

    def broken(*args):
        raise AssertionError("the scalar reference called the engine's kernel")

    kernels = {id(_kernels.bfs_row), id(_kernels.apsp)}
    patched = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "degprice":
            for attr, value in list(vars(module).items()):
                if id(value) in kernels:
                    monkeypatch.setattr(module, attr, broken)
                    patched.add(f"{name.removeprefix('degprice.')}.{attr}")
    kernel_names = {"_kernels.bfs_row", "_kernels.apsp", "graph.bfs_row", "graph.apsp"}
    assert kernel_names | {"costs.apsp", "moves.apsp"} <= patched

    g = build_figure_network("fig2b")
    cfg = GameConfig()
    totals = [agent_cost(g, u, cfg).total for u in range(g.n)]
    assert totals == [43, 34, 43, 40, 37, 43, 40, 40, 43, 40, 37, 43, 40, 40, 34, 46, 40, 37, 40]
    assert evaluate_deviation(g, 0, {1, 2, 3}, cfg) == 49
    assert evaluate_deviation(g, 0, (), cfg) == 54
    ball = candidate_targets(g, 0, GameConfig(locality_k=2))
    assert ball == {1, 3, 5, 6, 7, 8, 9, 12, 14, 15, 17, 18}
    k2 = (16, 7, 63, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 2), (4, 5)])
    everywhere = (28, 19, 35, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    for start, cfg, closure in (
        (build_path(6), GameConfig(variant="aog", locality_k=2), k2),
        (build_path(5), GameConfig(variant="aog"), everywhere),
    ):
        states = reachable_closure(start, cfg)
        witness, _, best = min(states, key=itemgetter(2))
        edges = sorted(witness.owned_edges)
        assert (len(states), sum(t for _, t, _ in states), best, edges) == closure


def _imports(path):
    """The dotted name of everything a source file imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            # a relative import names the package's own modules
            base = [p for p in ("degprice" if node.level else "", node.module) if p]
            out |= {".".join([*base, a.name]) for a in node.names}
    return out


def test_references_import_no_engine():
    """costs and oracle import neither the move engine nor the dynamics; the
    oracle takes only the UNREACHABLE sentinel from the kernels and only
    the printing rule from costs, so it prices nothing through them."""
    src = Path(oracle.__file__).parent
    for name in ("costs", "oracle"):
        imported = _imports(src / f"{name}.py")
        assert not [m for m in imported if m.startswith(("degprice.moves", "degprice.dynamics"))]
    imported = _imports(src / "oracle.py")
    assert {m for m in imported if m.startswith("degprice._kernels")} == {
        "degprice._kernels.UNREACHABLE"
    }
    assert {m for m in imported if m.startswith("degprice.costs")} == {"degprice.costs.plain"}


def test_dynamics_plays_moves_only_through_the_position():
    """dynamics keeps the activation loop only and holds no schedule: it
    takes from moves the policy names, the position that plays every
    move, and the add-only rule of its cycle check."""
    imported = _imports(Path(oracle.__file__).parent / "dynamics.py")
    assert {m for m in imported if m.startswith("degprice.moves")} == {
        f"degprice.moves.{name}"
        for name in (
            "BEST_SINGLE_EDGE",
            "FIRST_IMPROVING_SINGLE_MOVE",
            "FULL_BEST_RESPONSE",
            "POLICIES",
            "_Position",
            "_every_move_adds",
        )
    }


# the package's one layer order, lowest first
LAYERS = (
    "errors",
    "_kernels",
    "graph",
    "costs",
    "moves",
    "dynamics",
    "oracle",
    "textio",
    "constructions",
    "claims",
    "cli",
)


def test_modules_import_only_lower_layers():
    """Every import of a degprice module, inside a function or not, names a
    module earlier in ``LAYERS``; the package __init__ sits above them all."""
    src = Path(oracle.__file__).parent
    assert sorted(LAYERS) == sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    upward = set()
    for layer, name in enumerate(LAYERS):
        for m in _imports(src / f"{name}.py"):
            parts = m.split(".")
            if parts[0] == "degprice" and LAYERS.index(parts[1]) >= layer:
                upward.add(f"{name} -> {parts[1]}")
    assert upward == set()


def test_census_ratios_are_exact(census):
    s = census.get("aog", None, 5)
    assert s.poa == Fraction(s.worst_eq_cost, s.opt_cost)
    assert isinstance(s.poa, Fraction)


def test_reachable_closure_from_tiny_paths(monkeypatch):
    cfg = GameConfig(variant="aog")
    # no purchase strictly helps anyone on the 3-path, so it is its own closure
    states = reachable_closure(build_path(3), cfg)
    assert len(states) == 1 and states[0][1]
    assert min(cost for _, _, cost in states) == 9

    states = reachable_closure(build_path(4), cfg)
    keys = {g.state_key() for g, _, _ in states}
    assert len(keys) == len(states) == 3
    terminals = [g for g, is_t, _ in states if is_t]
    assert len(terminals) == 2
    for g in terminals:
        assert verify_equilibrium(g, cfg, level="exact").is_equilibrium
    witness, _, best = min(states, key=itemgetter(2))
    assert best == 20 and social_cost(witness, cfg) == 20

    with pytest.raises(ValueError, match="add-only"):
        reachable_closure(build_path(3), GameConfig())
    monkeypatch.setattr(oracle, "MAX_CLOSURE_STATES", 2)
    with pytest.raises(OracleBudgetExceeded):
        reachable_closure(build_path(5), cfg)


@pytest.mark.parametrize(
    "variant, k, successors, closure",
    [
        ("aog", None, 48, (360, 284, 55, [(0, 1), (1, 2), (2, 3), (2, 5), (3, 4), (4, 0), (4, 5)])),
        ("aog", 2, 4, (16, 7, 63, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 2), (4, 5)])),
        ("ncg", None, 48, None),
        ("ncg", 2, 4, None),
    ],
)  # fmt: skip
def test_closure_of_path6_is_pinned(monkeypatch, variant, k, successors, closure):
    """The closure lists each agent's candidates itself, without a pricing position."""
    monkeypatch.setattr(moves, "_Position", None)
    cfg = GameConfig(variant=variant, locality_k=k)
    assert len(_StateEvaluator(6, cfg).purchases(*_graph_to_state(build_path(6)))[0]) == successors
    if closure is None:
        with pytest.raises(ValueError, match="add-only"):
            reachable_closure(build_path(6), cfg)
        return
    states = reachable_closure(build_path(6), cfg)
    witness, _, best = min(states, key=itemgetter(2))
    assert (len(states), sum(t for _, t, _ in states), best, sorted(witness.owned_edges)) == closure


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("k", [None, 2])
def test_closure_agrees_with_the_engine(n, k):
    """A closure state is terminal exactly when the engine's exact check
    accepts it, and its cost is its social cost, priced by the costs
    reference."""
    cfg = GameConfig(variant="aog", locality_k=k)
    states = reachable_closure(build_path(n), cfg)
    for g, terminal, cost in states:
        assert terminal == verify_equilibrium(g, cfg, level="exact").is_equilibrium
        assert cost == social_cost(g, cfg)


def test_closure_refuses_seven_nodes_before_any_table(monkeypatch):
    """The closure shares the census's size gate, which refuses n = 7
    before a distance table is built."""

    def broken(n):
        raise AssertionError(f"built the tables of n={n}")

    monkeypatch.setattr(oracle, "_tables", broken)
    with pytest.raises(OracleBudgetExceeded, match="n <= 6"):
        reachable_closure(build_path(7), GameConfig(variant="aog", locality_k=2))


def _brute_min_cover(inst):
    universe = set(range(inst.universe_size))
    for r in range(0, len(inst.sets) + 1):
        for picked in combinations(range(len(inst.sets)), r):
            if set().union(*(set(inst.sets[i]) for i in picked), set()) == universe:
                return r
    return None


@pytest.mark.parametrize(
    "q,sets,expect",
    [
        (2, ((0, 1), (2, 3), (0, 2), (1, 3)), 2),
        (4, ((0, 1, 2, 3),), 1),
        (1, ((0,), (1,), (2,), (3,)), 4),
        (3, ((0, 1, 2), (1, 2, 3), (0, 2, 3)), 2),
    ],
)
def test_min_set_cover_small_instances(q, sets, expect):
    inst = SetCoverInstance(universe_size=4, sets=sets, q=q)
    size, picked = min_set_cover(inst)
    assert size == expect == _brute_min_cover(inst)
    assert inst.is_cover(picked)


def test_min_set_cover_infeasible_lists_missing():
    inst = SetCoverInstance(universe_size=4, sets=((0, 1),), q=2)
    with pytest.raises(InfeasibleInstanceError, match=r"\[2, 3\]"):
        min_set_cover(inst)
    big = SetCoverInstance(universe_size=2, sets=tuple((0, 1) for _ in range(25)), q=2)
    with pytest.raises(OracleBudgetExceeded):
        min_set_cover(big)


def test_min_dominating_set_known_graphs():
    c5 = OwnedGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    size, picked = min_dominating_set(c5)
    assert size == 2
    covered = set()
    for v in picked:
        covered |= c5.neighbors(v) | {v}
    assert covered == set(range(5))
    k4 = OwnedGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert min_dominating_set(k4)[0] == 1
    with pytest.raises(OracleBudgetExceeded):
        min_dominating_set(OwnedGraph(21))
