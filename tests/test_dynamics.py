"""Improving-response dynamics: schedules, traces, replay validation."""

import json
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from degprice import moves
from degprice._kernels import apsp
from degprice.claims import FIG3_CYCLE
from degprice.constructions import build_clique, build_figure_network
from degprice.costs import GameConfig, social_cost
from degprice.dynamics import (
    BEST_SINGLE_EDGE,
    CONVERGED,
    CYCLE_DETECTED,
    DEG2AOG_2NE,
    FIRST_IMPROVING_SINGLE_MOVE,
    FULL_BEST_RESPONSE,
    POLICIES,
    STEP_LIMIT,
    ActivationScheme,
    run_dynamics,
    scripted_linear_sequences,
)
from degprice.errors import ScheduleReplayError
from degprice.graph import OwnedGraph, diameter
from degprice.moves import (
    AddEdge,
    DeleteEdge,
    ReplaceStrategy,
    SwapEdge,
    _Position,
    _Pricing,
    verify_equilibrium,
)


def path(n):
    return OwnedGraph(n, [(i, i + 1) for i in range(n - 1)])


AOG2 = GameConfig(variant="aog", locality_k=2)


def assert_final_stats(trace, cfg):
    """The trace's final figures are those of its final graph."""
    assert trace.final_social_cost == social_cost(trace.final, cfg)
    assert trace.final_diameter == diameter(trace.final)


def test_scheme_validation():
    with pytest.raises(ValueError, match="seed"):
        ActivationScheme(kind="uniform-random")
    with pytest.raises(ValueError, match="policy"):
        ActivationScheme(kind="round-robin", move_policy="psychic")
    with pytest.raises(ValueError, match="nonempty"):
        ActivationScheme.scripted([])
    with pytest.raises(ValueError, match="unknown"):
        ActivationScheme(kind="lottery")
    # a field the kind does not use is refused, not silently dropped or misread
    for kind, stray in (
        ("scripted", dict(schedule=FIG3_CYCLE, move_policy=BEST_SINGLE_EDGE)),
        ("scripted", dict(schedule=FIG3_CYCLE, move_policy=FIRST_IMPROVING_SINGLE_MOVE)),
        ("scripted", dict(schedule=FIG3_CYCLE, seed=0)),
        ("round-robin", dict(move_policy=BEST_SINGLE_EDGE, seed=0)),
        ("round-robin", dict(move_policy=BEST_SINGLE_EDGE, schedule=FIG3_CYCLE)),
        ("uniform-random", dict(move_policy=BEST_SINGLE_EDGE, seed=0, schedule=FIG3_CYCLE)),
    ):
        with pytest.raises(ValueError, match="takes no"):
            ActivationScheme(kind=kind, **stray)
    with pytest.raises(ValueError, match="positive"):
        run_dynamics(path(3), AOG2, ActivationScheme.round_robin(BEST_SINGLE_EDGE), max_steps=0)


def test_unknown_linear_sequence_is_rejected():
    with pytest.raises(ValueError, match="unknown sequence 'degaog-2ne'"):
        scripted_linear_sequences(13, "degaog-2ne")


def test_stable_start_converges_without_moves():
    star = OwnedGraph(5, [(0, v) for v in range(1, 5)])
    trace = run_dynamics(star, GameConfig(), ActivationScheme.round_robin(BEST_SINGLE_EDGE))
    assert trace.outcome == CONVERGED
    assert trace.steps == []
    assert trace.rounds == 1
    assert trace.activations == trace.rounds * star.n


def test_same_seed_reruns_are_identical():
    scheme = ActivationScheme.uniform_random(0, FIRST_IMPROVING_SINGLE_MOVE)
    a = run_dynamics(path(6), AOG2, scheme)
    b = run_dynamics(path(6), AOG2, scheme)
    assert a.as_dict() == b.as_dict()
    assert a.outcome == CONVERGED
    assert a.rounds == a.activations // 6
    assert_final_stats(a, AOG2)
    # a converged uniform-random run must have reached single-move stability
    assert verify_equilibrium(a.final, AOG2, level="exact").is_equilibrium


def test_every_applied_step_improves_and_only_adds_in_aog():
    scheme = ActivationScheme.uniform_random(3, FIRST_IMPROVING_SINGLE_MOVE)
    trace = run_dynamics(path(8), GameConfig(variant="aog"), scheme)
    assert trace.steps
    for s in trace.steps:
        assert s.improving
        assert isinstance(s.kind, AddEdge)
    # the initial graph is left untouched by the run
    assert trace.initial == path(8)


def test_round_robin_accounting():
    trace = run_dynamics(
        path(4), GameConfig(), ActivationScheme.round_robin(move_policy=FULL_BEST_RESPONSE)
    )
    assert trace.outcome == CONVERGED
    assert (len(trace.steps), trace.activations, trace.rounds) == (1, 8, 2)
    assert trace.activations == trace.rounds * 4
    assert_final_stats(trace, GameConfig())
    assert verify_equilibrium(trace.final, GameConfig(), level="exact").is_equilibrium


def test_round_robin_cycle_closed_by_last_agent_completes_the_round():
    """rounds is activations // n even when the last wake-up of a round
    closes a cycle: here the 16th activation on 8 nodes ends round two."""
    g = OwnedGraph(8, [(0, 6), (0, 7), (2, 4), (2, 6), (3, 4), (5, 2), (6, 1), (6, 4), (7, 4)])
    cfg = GameConfig(variant="ncg", locality_k=2, price_beta=3, price_gamma=-2)
    trace = run_dynamics(g, cfg, ActivationScheme.round_robin(FIRST_IMPROVING_SINGLE_MOVE))
    assert trace.outcome == CYCLE_DETECTED
    assert (trace.activations, trace.rounds, len(trace.steps)) == (16, 2, 6)


def test_step_limit_counts_activations():
    scheme = ActivationScheme.round_robin(BEST_SINGLE_EDGE)
    trace = run_dynamics(path(10), GameConfig(variant="aog"), scheme, max_steps=3)
    assert trace.outcome == STEP_LIMIT
    assert trace.activations == 3
    # a schedule exactly as long as the cap still ends with the stability check ...
    scheme = scripted_linear_sequences(10, DEG2AOG_2NE)
    moves = len(scheme.schedule)
    full = run_dynamics(path(10), AOG2, scheme, max_steps=moves)
    assert full.outcome == CONVERGED
    assert full.metadata["script_exhausted"] is True
    assert full.activations == len(full.steps) == moves
    # ... and one move longer than the cap stops at it, unexhausted
    cut = run_dynamics(path(10), AOG2, scheme, max_steps=moves - 1)
    assert cut.outcome == STEP_LIMIT
    assert "script_exhausted" not in cut.metadata
    assert cut.activations == len(cut.steps) == moves - 1


@pytest.mark.parametrize("policy", [BEST_SINGLE_EDGE, FIRST_IMPROVING_SINGLE_MOVE])
def test_disconnected_agent_gains_nothing_from_cheap_edges(policy):
    """Negative edge prices must not make a still-disconnected move look improving.

    Node 3 stays unreachable whatever one agent buys, so no move helps;
    int and Fraction prices must give the same, empty, trace.
    """
    g = OwnedGraph(4, [(0, 1)])
    traces = [
        run_dynamics(
            g, GameConfig(variant="aog", price_gamma=gamma), ActivationScheme.round_robin(policy)
        ).as_dict()
        for gamma in (-2, Fraction(-2))
    ]
    assert traces[0] == traces[1]
    assert traces[0]["steps"] == []


def test_unfixable_disconnection_serializes_as_unreachable():
    """A node beyond every locality radius stays lost; outputs must say so."""
    g = OwnedGraph(3, [(0, 1)])
    trace = run_dynamics(g, AOG2, ActivationScheme.round_robin(BEST_SINGLE_EDGE))
    assert trace.outcome == CONVERGED
    assert trace.final_social_cost == math.inf
    assert trace.csv_row() == (3, 3, 1, "unreachable", "unreachable")
    payload = json.loads(json.dumps(trace.as_dict()))
    assert payload["final_social_cost"] == "unreachable"
    assert payload["steps"] == []


def test_connected_run_with_a_huge_cost_prints_its_numbers():
    """A connected graph's social cost may pass the sentinel's value;
    only a disconnected one prints as "unreachable"."""
    cfg = GameConfig(variant="aog", price_beta=10**9, price_gamma=0)
    trace = run_dynamics(path(3), cfg, ActivationScheme.round_robin(BEST_SINGLE_EDGE))
    assert trace.outcome == CONVERGED
    assert (trace.final_social_cost, trace.final_diameter) == (3_000_000_008, 2)
    assert trace.csv_row() == (3, 3, 1, 2, 3_000_000_008)
    payload = trace.as_dict()
    assert (payload["final_diameter"], payload["final_social_cost"]) == (2, 3_000_000_008)
    # no agent of the same path gains by cutting itself off in the swap game
    ncg = GameConfig(price_beta=10**9, price_gamma=0)
    for policy in (FIRST_IMPROVING_SINGLE_MOVE, FULL_BEST_RESPONSE):
        trace = run_dynamics(path(3), ncg, ActivationScheme.round_robin(policy))
        assert (trace.outcome, trace.steps) == (CONVERGED, [])


def test_scripted_replay_rejects_non_improving_step():
    scheme = ActivationScheme.scripted([(0, AddEdge(2))])
    with pytest.raises(ScheduleReplayError, match="step 0"):
        run_dynamics(path(3), GameConfig(variant="aog"), scheme)


def test_scripted_exhaustion_reports_stability_honestly():
    # a script ending on a stable graph is a convergence ...
    done = run_dynamics(
        path(4), GameConfig(variant="aog"), ActivationScheme.scripted([(0, AddEdge(3))])
    )
    assert done.outcome == CONVERGED
    assert done.metadata["final_single_move_stable"] is True
    # ... one stopping early is not, even though every move replayed fine
    short = run_dynamics(
        path(6), GameConfig(variant="aog"), ActivationScheme.scripted([(0, AddEdge(2))])
    )
    assert short.outcome == STEP_LIMIT
    assert short.metadata["script_exhausted"] is True
    assert short.metadata["final_single_move_stable"] is False
    assert len(short.steps) == 1


def test_swap_cycle_is_detected_and_returns_home():
    g1 = build_figure_network("fig3-g1")
    trace = run_dynamics(g1, GameConfig(), ActivationScheme.scripted(FIG3_CYCLE))
    assert trace.outcome == CYCLE_DETECTED
    assert len(trace.steps) == 6
    assert trace.final == g1
    assert trace.final.state_key() == g1.state_key()


def random_connected(n, seed):
    """A random spanning tree plus a few extra edges, random owners throughout."""
    rng = random.Random(seed)
    g = OwnedGraph(n)
    for v in range(1, n):
        u = rng.randrange(v)
        g.add_edge(*rng.sample((u, v), 2))
    for _ in range(n):
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


@pytest.mark.parametrize("start", [path(8), random_connected(8, seed=5)], ids=["path", "random"])
@pytest.mark.parametrize("variant", ["ncg", "aog"])
@pytest.mark.parametrize("policy", POLICIES)
def test_no_agent_is_priced_twice_on_one_graph(monkeypatch, start, variant, policy):
    """A stuck agent's answer cannot change until a move is applied."""
    priced = []
    improving_move = _Pricing.improving_move

    def recording(pricing, move_policy):
        priced.append((pricing.u, pricing.graph.state_key()))
        return improving_move(pricing, move_policy)

    monkeypatch.setattr(_Pricing, "improving_move", recording)
    cfg = GameConfig(variant=variant)
    for seed in range(3):
        priced.clear()
        trace = run_dynamics(start, cfg, ActivationScheme.uniform_random(seed, policy))
        assert trace.outcome in (CONVERGED, CYCLE_DETECTED)
        assert len(priced) == len(set(priced)) < trace.activations


def test_uniform_random_totals_are_pinned():
    """Skipped wake-ups still count: the benchmark's setup, seeds 10000-10007."""
    ncg, start = GameConfig(variant="ncg"), path(16)
    with mock.patch.object(moves, "apsp_without", wraps=moves.apsp_without) as without:
        traces = [
            run_dynamics(start, ncg, ActivationScheme.uniform_random(s, FIRST_IMPROVING_SINGLE_MOVE))
            for s in range(10000, 10008)
        ]
    # tables of G - u: one per applied deletion or swap, against 405 with no drop screen
    assert without.call_count == 85
    assert all(t.outcome == CONVERGED for t in traces)
    assert sum(t.activations for t in traces) == 924
    assert sum(len(t.steps) for t in traces) == 262
    assert [t.final_social_cost for t in traces] == [531, 530, 516, 539, 538, 525, 539, 527]
    aog = run_dynamics(start, AOG2, ActivationScheme.uniform_random(10000, BEST_SINGLE_EDGE))
    assert aog.outcome == CONVERGED
    assert (aog.activations, len(aog.steps), aog.final_social_cost) == (104, 20, 636)


def test_final_graph_is_the_runs_own():
    """The trace hands back the run's graph, which shares nothing with the start graph."""
    g0 = path(8)
    trace = run_dynamics(g0, GameConfig(), ActivationScheme.round_robin(BEST_SINGLE_EDGE))
    assert trace.steps
    final = trace.final.copy()
    trace.final.replace_strategy(0, set())
    trace.final.add_edge(7, 0)
    assert g0 == path(8) and trace.initial == path(8)
    assert trace.final != final


def test_engine_prices_follow_every_applied_move(monkeypatch):
    """After each applied move the position's prices and distances are the graph's."""
    apply = _Position.apply
    kinds = set()

    def checked(position, pricing, kind):
        apply(position, pricing, kind)
        kinds.add(type(kind))
        g = position.graph
        expected = [(len(a) + 1) * position.b + position.c for a in g._adj]
        assert position.prices.tolist() == expected
        assert np.array_equal(position.dist, apsp(g._adj))

    monkeypatch.setattr(_Position, "apply", checked)
    clique, ncg = build_clique(6), GameConfig()
    # deletions, a swap and additions
    random_scheme = ActivationScheme.uniform_random(2, FIRST_IMPROVING_SINGLE_MOVE)
    random_run = run_dynamics(clique, ncg, random_scheme)
    # exact best responses that replace whole strategies
    run_dynamics(clique, ncg, ActivationScheme.round_robin(FULL_BEST_RESPONSE))
    run_dynamics(path(12), AOG2, ActivationScheme.round_robin(BEST_SINGLE_EDGE))
    script = [(s.agent, s.kind) for s in random_run.steps]
    replay = run_dynamics(clique, ncg, ActivationScheme.scripted(script))
    assert replay.steps == random_run.steps
    assert kinds == {AddEdge, DeleteEdge, SwapEdge, ReplaceStrategy}


def test_long_path_round_robin_is_pinned():
    """The benchmark's dynamics-path run: aog k=2 best-single-edge on a 150-node path."""
    trace = run_dynamics(path(150), AOG2, ActivationScheme.round_robin(BEST_SINGLE_EDGE))
    assert trace.outcome == CONVERGED
    got = (
        trace.activations,
        len(trace.steps),
        trace.rounds,
        trace.final_diameter,
        trace.final_social_cost,
    )
    assert got == (1050, 482, 7, 4, 73404)


@pytest.mark.parametrize(
    "n, k, policy, expected, kinds",
    [
        (120, 2, BEST_SINGLE_EDGE, (720, 346, 6, 4, 45698, 0), {"add": 346}),
        (60, None, FIRST_IMPROVING_SINGLE_MOVE, (660, 346, 11, 3, 8769, 121),
         {"add": 225, "delete": 83, "swap": 38}),
        (200, None, BEST_SINGLE_EDGE, (2400, 588, 12, 3, 114689, 0), {"add": 588}),
    ],
)  # fmt: skip
def test_long_path_ncg_round_robin_is_pinned(n, k, policy, expected, kinds):
    """ncg runs from a path: best-single-edge reads only G's table, first-improving also G - u's.

    The last pinned value counts the tables of G - u.  First-improving
    builds one only when the drop screen cannot rule out an improving
    deletion or swap: 121 on path(60), one per applied deletion or swap,
    against 405 without the screen.
    """
    scheme = ActivationScheme.round_robin(policy)
    with mock.patch.object(moves, "apsp_without", wraps=moves.apsp_without) as without:
        trace = run_dynamics(path(n), GameConfig(locality_k=k), scheme)
    assert trace.outcome == CONVERGED
    got = (
        trace.activations,
        len(trace.steps),
        trace.rounds,
        trace.final_diameter,
        trace.final_social_cost,
        without.call_count,
    )
    assert got == expected
    assert Counter(step.kind.type for step in trace.steps) == kinds


def test_best_single_edge_runs_keep_no_cycle_check(monkeypatch):
    """Every best-single-edge move adds an edge, so no state can repeat and none is stored."""
    keys = []
    state_key = OwnedGraph.state_key

    def recording(g):
        keys.append(g.n)
        return state_key(g)

    monkeypatch.setattr(OwnedGraph, "state_key", recording)
    for cfg in (GameConfig(), GameConfig(locality_k=2)):
        trace = run_dynamics(path(40), cfg, ActivationScheme.round_robin(BEST_SINGLE_EDGE))
        assert trace.outcome == CONVERGED and trace.steps
    assert keys == []
    # a scripted schedule may drop edges, so it keeps the check
    run_dynamics(path(4), GameConfig(), ActivationScheme.scripted([(0, AddEdge(3))]))
    assert keys
