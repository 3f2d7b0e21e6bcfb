"""Deviation machinery: single moves, exact best response, verification."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import owned_graphs
from degprice import _kernels, dynamics, moves
from degprice.constructions import build_clique, build_figure_network, build_path, build_star
from degprice.costs import GameConfig, agent_cost, candidate_targets, evaluate_deviation
from degprice.errors import CandidateCapExceeded
from degprice.graph import OwnedGraph
from degprice.moves import (
    BEST_SINGLE_EDGE,
    CANDIDATE_CAP,
    EXACT,
    FIRST_IMPROVING_SINGLE_MOVE,
    FULL_BEST_RESPONSE,
    SINGLE_MOVE,
    AddEdge,
    DeleteEdge,
    MoveRecord,
    ReplaceStrategy,
    SwapEdge,
    _Position,
    _Pricing,
    apply_move,
    best_response_exact,
    enumerate_single_moves,
    parse_schedule,
    strategy_after,
    verify_equilibrium,
)
from degprice.oracle import enumerate_states


# prices that keep Fraction arithmetic and make some edges pay for themselves
FRACTION_PRICES = GameConfig(price_beta=Fraction(1, 2), price_gamma=Fraction(-4, 3))
# scaled to a common denominator, these totals outgrow int64
HUGE_DENOMINATOR = GameConfig(price_gamma=Fraction(-1, 10**18))
# the scale itself is past int64, so int64 counts must not meet it uncast
DENOMINATOR_PAST_INT64 = GameConfig(price_gamma=Fraction(-1, 10**19))
# one edge costs more than the old 10^9 stand-in for "disconnected"
HUGE_PRICES = GameConfig(price_beta=10**9, price_gamma=0)


def _brute_best_response(g, u, cfg):
    """Same search as best_response_exact, written out independently."""
    cands = candidate_targets(g, u, cfg)
    if cfg.add_only:
        variable, base = sorted(cands), g.targets(u)
    else:
        variable, base = sorted(cands | g.targets(u)), set()
    best = None
    for r in range(len(variable) + 1):
        for picked in combinations(variable, r):
            strat = base | set(picked)
            cost = evaluate_deviation(g, u, strat, cfg)
            key = (cost, len(strat), tuple(sorted(strat)))
            if best is None or key < best:
                best = key
    return set(best[2]), best[0]


def test_unknown_move_policy_is_refused():
    with pytest.raises(ValueError, match="unknown move policy 'bogus'"):
        _Pricing(_Position(build_path(3), GameConfig()), 0).improving_move("bogus")


def test_candidate_targets_respect_locality():
    g = build_path(5)
    assert candidate_targets(g, 0, GameConfig()) == {2, 3, 4}
    assert candidate_targets(g, 0, GameConfig(locality_k=2)) == {2}
    assert candidate_targets(g, 2, GameConfig(locality_k=2)) == {0, 4}
    assert candidate_targets(g, 0, GameConfig(locality_k=1)) == set()


def test_strategy_after_validates_moves():
    g = build_path(3)
    assert strategy_after(g, 0, AddEdge(2)) == {1, 2}
    assert strategy_after(g, 1, DeleteEdge(2)) == set()
    assert strategy_after(g, 0, SwapEdge(1, 2)) == {2}
    assert strategy_after(g, 1, ReplaceStrategy((0,))) == {0}
    with pytest.raises(ValueError, match="already present"):
        strategy_after(g, 0, AddEdge(1))
    with pytest.raises(ValueError, match="owns no edge"):
        strategy_after(g, 0, DeleteEdge(2))
    with pytest.raises(ValueError, match="owns no edge"):
        strategy_after(g, 0, SwapEdge(2, 1))
    with pytest.raises(TypeError):
        apply_move(g, 0, "add")


def test_schedule_entries_read_back_what_as_dict_writes():
    kinds = [AddEdge(2), DeleteEdge(1), SwapEdge(1, 3)]
    entries = [{"agent": 0, **kind.as_dict()} for kind in kinds]
    assert entries[2] == {"agent": 0, "type": "swap", "old_target": 1, "new_target": 3}
    assert parse_schedule(entries) == [(0, kind) for kind in kinds]
    for bad in (
        {"agent": 0, "type": "add", "target": 2},
        [{"agent": 0, "type": "add", "target": 2, "extra": 1}],
        [{"agent": 0, "type": "replace", "new_targets": [1]}],
        [{"agent": 0, "type": "add", "target": True}],
        [{"agent": 0, "type": ["add"], "target": 2}],
    ):
        with pytest.raises(ValueError):
            parse_schedule(bad)


def test_illegal_move_leaves_the_graph_unchanged():
    g = OwnedGraph(3, [(0, 1), (2, 0)])
    for kind in (SwapEdge(1, 2), AddEdge(5), ReplaceStrategy((1, 0)), ReplaceStrategy((2,))):
        h = g.copy()
        with pytest.raises(ValueError):
            apply_move(h, 0, kind)
        assert h == g and h._adj == g._adj, kind


@settings(max_examples=60)
@given(owned_graphs(connected=True), st.data())
def test_single_move_costs_match_replay(g, data):
    """Every enumerated record's after-cost equals apply-then-recompute."""
    cfg = data.draw(
        st.sampled_from(
            [
                GameConfig(),
                GameConfig(locality_k=2),
                GameConfig(variant="aog"),
                GameConfig(variant="aog", locality_k=2),
                FRACTION_PRICES,
            ]
        )
    )
    u = data.draw(st.integers(0, g.n - 1))
    before = agent_cost(g, u, cfg).total
    for mv in enumerate_single_moves(g, u, cfg):
        assert mv.agent == u
        assert mv.cost_before == before
        h = g.copy()
        apply_move(h, u, mv.kind)
        assert mv.cost_after == agent_cost(h, u, cfg).total


def test_disconnecting_move_reported_with_sentinel():
    g = build_path(3)
    for cfg in (GameConfig(), HUGE_PRICES):
        deletes = [
            mv
            for mv in enumerate_single_moves(g, 0, cfg) + enumerate_single_moves(g, 1, cfg)
            if isinstance(mv.kind, DeleteEdge)
        ]
        assert deletes and all(mv.cost_after == math.inf for mv in deletes)
        assert not any(mv.improving for mv in deletes)
    # so however dear its edges, the path is an equilibrium of the swap game
    for level in (EXACT, SINGLE_MOVE):
        assert verify_equilibrium(g, HUGE_PRICES, level=level).is_equilibrium


def test_aog_enumerates_additions_only():
    g = build_path(4)
    kinds = {type(mv.kind) for mv in enumerate_single_moves(g, 0, GameConfig(variant="aog"))}
    assert kinds == {AddEdge}


def test_path_is_not_an_equilibrium():
    g = build_path(4)
    rep = verify_equilibrium(g, GameConfig(), level=SINGLE_MOVE)
    assert not rep.is_equilibrium
    assert isinstance(rep.witness.kind, AddEdge)
    # applying the witness must realize the claimed improvement
    h = g.copy()
    apply_move(h, rep.witness.agent, rep.witness.kind)
    assert agent_cost(h, rep.witness.agent, GameConfig()).total == rep.witness.cost_after
    assert rep.witness.cost_after < rep.witness.cost_before


def test_first_improving_search_stops_at_the_first_improving_group(monkeypatch):
    """An improving addition is found before any swap group is priced."""
    g = OwnedGraph(6, [(1, 0), (1, 2), (2, 3), (3, 4), (4, 5)])
    calls = []
    adding = _Pricing._adding

    def recording(pricing, table, row, spend):
        calls.append(table is pricing.position.dist)
        return adding(pricing, table, row, spend)

    monkeypatch.setattr(_Pricing, "_adding", recording)
    found = _Pricing(_Position(g, GameConfig()), 1).improving_move(FIRST_IMPROVING_SINGLE_MOVE)
    assert found == MoveRecord(1, AddEdge(3), 12, 11)
    assert calls == [True]


@pytest.mark.parametrize("policy", [FIRST_IMPROVING_SINGLE_MOVE, BEST_SINGLE_EDGE])
def test_the_current_strategy_is_priced_once(monkeypatch, policy):
    """An activation that finds an addition sums u's current spend once."""
    g = OwnedGraph(6, [(1, 0), (1, 2), (2, 3), (3, 4), (4, 5)])
    spent = []
    spend = _Pricing.spend

    def recording(pricing, strategy):
        spent.append(strategy)
        return spend(pricing, strategy)

    monkeypatch.setattr(_Pricing, "spend", recording)
    pricing = _Pricing(_Position(g, GameConfig()), 1)
    assert isinstance(pricing.improving_move(policy).kind, AddEdge)
    assert spent == [pricing.current]


def test_an_exact_search_in_aog_reuses_the_current_spend(monkeypatch):
    """aog's best response starts every subset from ``spent``, and prices no empty pick."""
    spent = []
    spend = _Pricing.spend

    def recording(pricing, strategy):
        spent.append(set(strategy))
        return spend(pricing, strategy)

    monkeypatch.setattr(_Pricing, "spend", recording)
    pricing = _Pricing(_Position(build_path(8), GameConfig(variant="aog")), 3)
    assert pricing.improving_move(FULL_BEST_RESPONSE).kind == ReplaceStrategy((0, 4, 7))
    assert spent == [{4}]


def test_only_strategies_that_drop_an_edge_build_the_table_of_g_minus_u():
    """Additions read G's table in ncg too; G - u is built only to drop an edge."""
    with mock.patch.object(moves, "apsp_without", wraps=moves.apsp_without) as without:
        # best-single-edge dynamics price additions only
        scheme = dynamics.ActivationScheme.round_robin(BEST_SINGLE_EDGE)
        trace = dynamics.run_dynamics(build_path(30), GameConfig(), scheme)
        assert trace.outcome == dynamics.CONVERGED and trace.steps
        assert without.call_count == 0
        # the first improving group is the additions
        g = OwnedGraph(6, [(1, 0), (1, 2), (2, 3), (3, 4), (4, 5)])
        found = _Pricing(_Position(g, GameConfig()), 1).improving_move(FIRST_IMPROVING_SINGLE_MOVE)
        assert found == MoveRecord(1, AddEdge(3), 12, 11)
        assert without.call_count == 0
        # only the center of a star owns edges, and the drop screen finds it stuck
        star = OwnedGraph(6, [(0, leaf) for leaf in range(1, 6)])
        assert verify_equilibrium(star, GameConfig(), level=SINGLE_MOVE).is_equilibrium
        assert without.call_count == 0
        # agent 0 is stuck too: each of its edges is the sole nearest
        # neighbour of only its own end, but deleting it puts that end two
        # hops farther, which the edge's price of 2 cannot outweigh
        g = OwnedGraph(5, [(0, 3), (0, 4), (3, 1), (3, 2), (4, 1), (4, 2)])
        assert verify_equilibrium(g, GameConfig(), level=SINGLE_MOVE).is_equilibrium
        assert without.call_count == 0


# the drop screen's configs: the unit game, a radius, Fraction, object-dtype and zero-beta prices
SCREEN_CONFIGS = [
    GameConfig(),
    GameConfig(locality_k=2),
    FRACTION_PRICES,
    HUGE_DENOMINATOR,
    DENOMINATOR_PAST_INT64,
    HUGE_PRICES,
    GameConfig(price_beta=0, price_gamma=3),
]


# agent 0 owns its edge to 1 and bought none to 3, both nearest to 2
TIED = OwnedGraph(4, [(0, 1), (3, 0), (1, 2), (3, 2)])
# agent 0's one edge is the bridge to a triangle: deleting it cuts 0 off
BRIDGE = OwnedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 1)])


def _screened_agents(g, cfg):
    """Agents with no improving addition whose drops the screen clears.

    Asserts for each that ``enumerate_single_moves`` lists no improving
    deletion or swap, so the screen never hides a move.
    """
    position = _Position(g, cfg)
    cleared = []
    for u in range(g.n):
        pricing = _Pricing(position, u)
        _, _, adds = next(pricing.move_groups())
        if (adds < pricing.now).any() or not pricing.drops_cannot_improve(adds):
            continue
        cleared.append(u)
        for record in enumerate_single_moves(g, u, cfg):
            assert not (record.improving and isinstance(record.kind, (DeleteEdge, SwapEdge)))
    return cleared


@settings(max_examples=60, deadline=None)
@given(owned_graphs(max_n=8), st.sampled_from(SCREEN_CONFIGS))
# agent 7's swap 8 -> 2 improves with 1 + dist[2, w] == du[w] for a w whose sole via is 8
@example(
    OwnedGraph(
        9,
        [(0, 7), (1, 2), (3, 4), (3, 6), (4, 7), (5, 1), (5, 7), (5, 8), (6, 2), (7, 8), (8, 6)],
    ),
    GameConfig(),
)
@example(TIED, GameConfig())
@example(BRIDGE, HUGE_PRICES)
@example(BRIDGE, DENOMINATOR_PAST_INT64)
def test_drop_screen_clears_only_agents_without_an_improving_drop(g, cfg):
    _screened_agents(g, cfg)


def test_drop_screen_reads_the_second_nearest_neighbour():
    """Ties leave a node's distance as it is; a cut-off node outweighs any price."""
    assert _screened_agents(TIED, GameConfig()) == [0, 1, 2, 3]
    # agent 0's only edge costs it 3 * 10^9, and deleting it cuts 0 off
    for cfg in (HUGE_PRICES, DENOMINATOR_PAST_INT64):
        assert _screened_agents(BRIDGE, cfg) == [0]


def test_drop_screen_is_sound_on_every_small_graph():
    for n in range(1, 5):
        for g in enumerate_states(n):
            for cfg in SCREEN_CONFIGS:
                _screened_agents(g, cfg)
    # not vacuous: the screen clears the star center and every agent of a cycle
    star = OwnedGraph(6, [(0, leaf) for leaf in range(1, 6)])
    cycle = OwnedGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    for cfg in (GameConfig(), DENOMINATOR_PAST_INT64):
        assert _screened_agents(star, cfg) == list(range(6))
        assert _screened_agents(cycle, cfg) == list(range(5))
    # and the star's equilibrium holds with a scale past int64
    assert verify_equilibrium(star, DENOMINATOR_PAST_INT64, level=SINGLE_MOVE).is_equilibrium


@settings(max_examples=40, deadline=None)
@given(owned_graphs(max_n=5, connected=True), st.data())
def test_exact_witnesses_are_sound_and_imply_single_move(g, data):
    cfg = data.draw(
        st.sampled_from([GameConfig(), GameConfig(variant="aog", locality_k=2)])
    )
    rep = verify_equilibrium(g, cfg, level=EXACT)
    if rep.is_equilibrium:
        assert verify_equilibrium(g, cfg, level=SINGLE_MOVE).is_equilibrium
    else:
        w = rep.witness
        h = g.copy()
        apply_move(h, w.agent, w.kind)
        assert agent_cost(h, w.agent, cfg).total == w.cost_after
        assert w.cost_after < w.cost_before


@settings(max_examples=40, deadline=None)
@given(
    owned_graphs(max_n=8),
    st.sampled_from(
        [
            GameConfig(),
            GameConfig(locality_k=2),
            GameConfig(variant="aog"),
            GameConfig(variant="aog", locality_k=2),
            FRACTION_PRICES,
            HUGE_DENOMINATOR,
            HUGE_PRICES,
        ]
    ),
    st.integers(min_value=0),
)
# 13 variables: the subset search runs over several blocks of low-bit subsets
@example(build_path(14), FRACTION_PRICES, 0)
# only candidate 4 reaches node 4: a column u cannot reach stays live
@example(OwnedGraph(5, [(0, 1), (2, 3)]), GameConfig(variant="aog"), 0)
# each leaf shortens only its own column: the block has no column at all
@example(build_star(9), GameConfig(variant="aog"), 1)
# folded gains beside prices past the old 10^9 sentinel, and beside object-dtype spends
@example(build_path(8), GameConfig(variant="aog", price_beta=10**9, price_gamma=0), 0)
@example(build_path(8), GameConfig(variant="aog", price_gamma=Fraction(-1, 10**18)), 0)
# a radius: one live column, the rest folded
@example(OwnedGraph(8, [(i, (i + 1) % 8) for i in range(8)]), GameConfig(variant="aog", locality_k=2), 0)
# target 2 shortens no live column and its step is negative, but u stays
# cut off from 3, 4 and 5 whatever it buys, so it keeps only its edge to 1
@example(
    OwnedGraph(6, [(0, 1), (1, 2), (3, 4)]),
    GameConfig(variant="aog", locality_k=2, price_gamma=-3),
    0,
)
def test_best_response_matches_brute_force(g, cfg, agent):
    u = agent % g.n
    assert best_response_exact(g, u, cfg) == _brute_best_response(g, u, cfg)
    # determinism: a second run returns the identical strategy object value
    assert best_response_exact(g, u, cfg) == best_response_exact(g, u, cfg)


@settings(max_examples=60, deadline=None)
@given(
    owned_graphs(max_n=7),
    st.sampled_from(
        [
            GameConfig(),
            GameConfig(locality_k=2),
            GameConfig(variant="aog"),
            GameConfig(variant="aog", locality_k=2),
        ]
    ),
    st.data(),
)
def test_relabelling_the_nodes_changes_no_verdict_or_cost(g, cfg, data):
    """Bit order, tie-breaks and the locality ball must not depend on node
    ids: under a node permutation pi, both verdicts, every agent's cost
    and every best response's cost and size carry over from u to pi(u)."""
    pi = data.draw(st.permutations(range(g.n)))
    h = OwnedGraph(g.n, [(pi[a], pi[b]) for a, b in g.owned_edges])
    for level in (SINGLE_MOVE, EXACT):
        assert (
            verify_equilibrium(g, cfg, level).is_equilibrium
            == verify_equilibrium(h, cfg, level).is_equilibrium
        )
    for u in range(g.n):
        assert agent_cost(g, u, cfg).total == agent_cost(h, pi[u], cfg).total
        strategy, cost = best_response_exact(g, u, cfg)
        moved, moved_cost = best_response_exact(h, pi[u], cfg)
        assert (cost, len(strategy)) == (moved_cost, len(moved))


@settings(max_examples=60, deadline=None)
@given(
    owned_graphs(max_n=9),
    st.sampled_from(
        [
            GameConfig(),
            GameConfig(locality_k=2),
            GameConfig(variant="aog"),
            GameConfig(variant="aog", locality_k=2),
            FRACTION_PRICES,
            HUGE_DENOMINATOR,
        ]
    ),
    st.integers(min_value=0),
)
# every strategy leaves u disconnected: all blocks tie on cost
@example(OwnedGraph(9), GameConfig(), 0)
@example(build_path(9), FRACTION_PRICES, 4)
def test_the_block_split_cannot_change_a_best_response(g, cfg, agent):
    """``_BLOCK_BITS`` of 0, 1 or 3 gives the answer of the default's one block.

    A graph of at most 9 nodes has at most 8 variables, which the
    default's one block holds.  A block narrower than n columns gets at
    most 2 more low bits here (``9 // 2`` is 4), so the patched blocks
    run the high-bit loop, its skip of a costlier block and its
    tie-break across blocks on the same subsets.  The loop runs over
    the variables that shorten a live column only: a column that two or
    more variables shorten, or one that u's kept edges leave unreachable.
    """
    u = agent % g.n
    expected = best_response_exact(g, u, cfg)
    pricing = _Pricing(_Position(g, cfg), u)
    kept = pricing.current if cfg.add_only else set()
    variables = sorted(set(pricing.cands) | (set() if cfg.add_only else pricing.current))
    base = pricing.merged(kept)
    shorter = pricing.reading(kept)[0][variables] + 1 < base
    live = (shorter.sum(axis=0) > 1) | (base >= _kernels.UNREACHABLE)
    searched = int(shorter[:, live].any(axis=1).sum())
    totals = _Pricing.totals
    for bits in (0, 1, 3):
        with (
            mock.patch.object(moves, "_BLOCK_BITS", bits),
            mock.patch.object(_Pricing, "totals", autospec=True, side_effect=totals) as blocks,
        ):
            assert best_response_exact(g, u, cfg) == expected, bits
        # one block per setting of the high bits
        assert blocks.call_count >= 2 ** (searched - bits - 2), bits


FIG2B_CURRENT = [
    ([4, 10, 13], 43),
    ([], 34),
    ([6, 7, 17], 43),
    ([1, 17], 40),
    ([18], 37),
    ([1, 6, 13], 43),
    ([4, 16], 40),
    ([10, 12], 40),
    ([2, 9, 14], 43),
    ([5, 10], 40),
    ([3], 37),
    ([0, 1, 8], 43),
    ([11, 16], 40),
    ([14, 17], 40),
    ([], 34),
    ([1, 4, 7, 14], 46),
    ([3, 14], 40),
    ([18], 37),
    ([9, 12], 40),
]
FIG2B_FRACTION = [
    ([4, 6, 10, 13], Fraction(205, 6)),
    ([17], Fraction(193, 6)),
    ([6, 7, 11, 17], Fraction(205, 6)),
    ([0, 1, 2, 17], Fraction(101, 3)),
    ([1, 2, 18], 33),
    ([1, 6, 7, 13], Fraction(205, 6)),
    ([0, 4, 16], Fraction(67, 2)),
    ([5, 10, 12], Fraction(67, 2)),
    ([0, 1, 2, 9, 14], Fraction(103, 3)),
    ([5, 10, 14], Fraction(67, 2)),
    ([3, 16], Fraction(197, 6)),
    ([0, 1, 2, 8], Fraction(205, 6)),
    ([5, 11, 16], Fraction(67, 2)),
    ([7, 14, 17], Fraction(67, 2)),
    ([9], Fraction(193, 6)),
    ([1, 4, 7, 14, 18], Fraction(209, 6)),
    ([3, 10, 14], Fraction(67, 2)),
    ([1, 18], Fraction(197, 6)),
    ([9, 12, 15], Fraction(67, 2)),
]


@pytest.mark.parametrize(
    "cfg, expected",
    [
        pytest.param(GameConfig(variant="aog"), FIG2B_CURRENT, id="aog"),
        pytest.param(GameConfig(), FIG2B_CURRENT, id="ncg"),
        pytest.param(FRACTION_PRICES, FIG2B_FRACTION, id="ncg-fraction"),
    ],
)
def test_fig2b_best_responses_match_the_row_major_search(cfg, expected):
    """Every agent's exact best response on fig2b, the benchmark's input.

    The values were recorded from the search of commit a0dd61e, whose
    block of subsets was row-major.  At the default prices fig2b is an
    equilibrium of both games and each agent's answer is its current
    strategy; the Fraction prices move every agent to another one.
    """
    g = build_figure_network("fig2b")
    got = [best_response_exact(g, u, cfg) for u in range(g.n)]
    assert got == [(set(targets), cost) for targets, cost in expected]


def test_a_best_response_at_the_cap_allocates_about_three_blocks():
    """The DP's extra memory stays near one block of 2^10 full rows whatever V is.

    Agent 0 of path(21) in ncg has exactly CANDIDATE_CAP variables, and
    every column but its own is live, so 2^10 settings of the high bits
    each reuse one block of 2^10 subsets.  Past G's table the search
    holds the block, one high pick's copy of it, the table of G - u and
    vectors over the block.  A leaf of star(22) in aog has 20 variables
    and no live column, so all 20 are free: its single block holds one
    subset, the empty pick.
    """
    cases = [
        (build_path(21), GameConfig(), 0, ({1, 4, 7, 10, 13, 16, 19}, 46)),
        (build_star(22), GameConfig(variant="aog"), 1, (set(), 41)),
    ]
    for g, cfg, u, expected in cases:
        position = _Position(g, cfg)
        position.dist  # G's table is built on first use and is not part of the search
        pricing = _Pricing(position, u)
        assert len(pricing.cands) + len(pricing.current) == CANDIDATE_CAP
        tracemalloc.start()
        try:
            found = pricing.best_response()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found == expected
        assert peak <= 3 * 2**10 * g.n * 8, g


def test_fig2b_blocks_in_aog_carry_two_columns(monkeypatch):
    """On fig2b in aog, 17 of each agent's 19 columns are shortened by at most one variable.

    Those columns are folded into the spends, so every block that an
    agent's exact best response prices holds the other 2.  Only 8 to 10
    of an agent's 14 variables shorten one of those 2 columns, so each
    agent prices one block of 2^8 to 2^10 subsets: 10 240 subsets over
    the 19 agents, where a search over all 14 variables prices 311 296.
    """
    shapes = []
    totals = _Pricing.totals

    def recording(pricing, merged, spend):
        shapes.append(merged.shape)
        return totals(pricing, merged, spend)

    monkeypatch.setattr(_Pricing, "totals", recording)
    g = build_figure_network("fig2b")
    position = _Position(g, GameConfig(variant="aog"))
    subsets = 0
    for u in range(g.n):
        shapes.clear()
        _Pricing(position, u).best_response()
        assert len(shapes) == 1 and shapes[0] in {(256, 2), (512, 2), (1024, 2)}, (u, shapes)
        subsets += shapes[0][0]
    assert subsets == 10_240


def test_huge_denominators_price_with_python_ints():
    assert _Pricing(_Position(build_path(3), HUGE_DENOMINATOR), 0).price.dtype == object
    assert _Pricing(_Position(build_path(3), GameConfig()), 0).price.dtype == np.int64


def test_candidate_cap_guards_exact_search():
    g = build_path(25)
    with pytest.raises(CandidateCapExceeded) as exc:
        best_response_exact(g, 0, GameConfig())
    assert exc.value.agent == 0
    assert exc.value.universe_size == 24  # 23 candidates plus the owned target
    with pytest.raises(CandidateCapExceeded):
        verify_equilibrium(g, GameConfig(), level=EXACT)
    # in ncg a hit cap fails before any distance row of a large graph is built
    with mock.patch.object(_kernels, "bfs_row", wraps=_kernels.bfs_row) as bfs:
        with pytest.raises(CandidateCapExceeded):
            best_response_exact(build_path(2000), 0, GameConfig())
        with pytest.raises(CandidateCapExceeded):
            verify_equilibrium(build_path(2000), GameConfig(), level=EXACT)
    assert bfs.call_count == 0
    # a wider cap or a locality radius makes the same call feasible
    verify_equilibrium(g, GameConfig(locality_k=2), level=SINGLE_MOVE)
    strategy, _ = best_response_exact(g, 0, GameConfig(locality_k=2))
    assert strategy <= {1, 2}


def test_clique_equilibrium_depends_on_variant():
    """Deleting in a clique refunds more than the detour costs, adding never helps."""
    for n in range(3, 9):
        rep = verify_equilibrium(build_clique(n), GameConfig(variant="aog"), level=EXACT)
        assert rep.is_equilibrium, n
    rep = verify_equilibrium(build_clique(4), GameConfig(), level=EXACT)
    assert not rep.is_equilibrium
    assert isinstance(rep.witness.kind, (DeleteEdge, ReplaceStrategy))


def test_report_shape_and_notes():
    g = OwnedGraph(3, [(0, 1), (2, 1)])
    rep = verify_equilibrium(g, GameConfig(locality_k=2), level=SINGLE_MOVE)
    assert rep.is_equilibrium
    d = rep.as_dict()
    assert d["witness"] is None and d["check_level"] == SINGLE_MOVE
    assert len(d["notes"]) == 2  # necessary-only caveat + deletion-radius note
    assert verify_equilibrium(g, GameConfig(), level=EXACT).notes == ()
    with pytest.raises(ValueError, match="check level"):
        verify_equilibrium(g, GameConfig(), level="thorough")
