"""Improving-response dynamics: schedules, traces, replay validation."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import owned_graphs
from degprice import moves
from degprice._kernels import apsp
from degprice.claims import DEG2AOG_2NE, FIG3_CYCLE, scripted_linear_sequences
from degprice.constructions import build_clique, build_figure_network, build_path
from degprice.costs import (
    GameConfig,
    agent_cost,
    candidate_targets,
    evaluate_deviation,
    social_cost,
)
from degprice.dynamics import (
    BEST_SINGLE_EDGE,
    CONVERGED,
    CYCLE_DETECTED,
    FIRST_IMPROVING_SINGLE_MOVE,
    FULL_BEST_RESPONSE,
    POLICIES,
    ROUND_ROBIN,
    SCRIPTED,
    STEP_LIMIT,
    UNIFORM_RANDOM,
    ActivationScheme,
    run_dynamics,
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
        run_dynamics(
            build_path(3), AOG2, ActivationScheme.round_robin(BEST_SINGLE_EDGE), max_steps=0
        )


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
    a = run_dynamics(build_path(6), AOG2, scheme)
    b = run_dynamics(build_path(6), AOG2, scheme)
    assert a.as_dict() == b.as_dict()
    assert a.outcome == CONVERGED
    assert a.rounds == a.activations // 6
    assert_final_stats(a, AOG2)
    # a converged uniform-random run must have reached single-move stability
    assert verify_equilibrium(a.final, AOG2, level="exact").is_equilibrium


def test_every_applied_step_improves_and_only_adds_in_aog():
    scheme = ActivationScheme.uniform_random(3, FIRST_IMPROVING_SINGLE_MOVE)
    trace = run_dynamics(build_path(8), GameConfig(variant="aog"), scheme)
    assert trace.steps
    for s in trace.steps:
        assert s.improving
        assert isinstance(s.kind, AddEdge)
    # the initial graph is left untouched by the run
    assert trace.initial == build_path(8)


def test_round_robin_accounting():
    trace = run_dynamics(
        build_path(4), GameConfig(), ActivationScheme.round_robin(move_policy=FULL_BEST_RESPONSE)
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
    trace = run_dynamics(build_path(10), GameConfig(variant="aog"), scheme, max_steps=3)
    assert trace.outcome == STEP_LIMIT
    assert trace.activations == 3
    # a schedule exactly as long as the cap still ends with the stability check ...
    scheme = scripted_linear_sequences(10, DEG2AOG_2NE)
    moves = len(scheme.schedule)
    full = run_dynamics(build_path(10), AOG2, scheme, max_steps=moves)
    assert full.outcome == CONVERGED
    assert full.metadata["script_exhausted"] is True
    assert full.activations == len(full.steps) == moves
    # ... and one move longer than the cap stops at it, unexhausted
    cut = run_dynamics(build_path(10), AOG2, scheme, max_steps=moves - 1)
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
    trace = run_dynamics(build_path(3), cfg, ActivationScheme.round_robin(BEST_SINGLE_EDGE))
    assert trace.outcome == CONVERGED
    assert (trace.final_social_cost, trace.final_diameter) == (3_000_000_008, 2)
    assert trace.csv_row() == (3, 3, 1, 2, 3_000_000_008)
    payload = trace.as_dict()
    assert (payload["final_diameter"], payload["final_social_cost"]) == (2, 3_000_000_008)
    # no agent of the same path gains by cutting itself off in the swap game
    ncg = GameConfig(price_beta=10**9, price_gamma=0)
    for policy in (FIRST_IMPROVING_SINGLE_MOVE, FULL_BEST_RESPONSE):
        trace = run_dynamics(build_path(3), ncg, ActivationScheme.round_robin(policy))
        assert (trace.outcome, trace.steps) == (CONVERGED, [])


def test_scripted_replay_rejects_non_improving_step():
    scheme = ActivationScheme.scripted([(0, AddEdge(2))])
    with pytest.raises(ScheduleReplayError, match="step 0"):
        run_dynamics(build_path(3), GameConfig(variant="aog"), scheme)


def test_scripted_exhaustion_reports_stability_honestly():
    # a script ending on a stable graph is a convergence ...
    done = run_dynamics(
        build_path(4), GameConfig(variant="aog"), ActivationScheme.scripted([(0, AddEdge(3))])
    )
    assert done.outcome == CONVERGED
    assert done.metadata["final_single_move_stable"] is True
    # ... one stopping early is not, even though every move replayed fine
    short = run_dynamics(
        build_path(6), GameConfig(variant="aog"), ActivationScheme.scripted([(0, AddEdge(2))])
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


@pytest.mark.parametrize(
    "start", [build_path(8), random_connected(8, seed=5)], ids=["path", "random"]
)
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
    ncg, start = GameConfig(variant="ncg"), build_path(16)
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
    g0 = build_path(8)
    trace = run_dynamics(g0, GameConfig(), ActivationScheme.round_robin(BEST_SINGLE_EDGE))
    assert trace.steps
    final = trace.final.copy()
    trace.final.replace_strategy(0, set())
    trace.final.add_edge(7, 0)
    assert g0 == build_path(8) and trace.initial == build_path(8)
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
    run_dynamics(build_path(12), AOG2, ActivationScheme.round_robin(BEST_SINGLE_EDGE))
    script = [(s.agent, s.kind) for s in random_run.steps]
    replay = run_dynamics(clique, ncg, ActivationScheme.scripted(script))
    assert replay.steps == random_run.steps
    assert kinds == {AddEdge, DeleteEdge, SwapEdge, ReplaceStrategy}


def test_long_path_round_robin_is_pinned():
    """The benchmark's dynamics-path run: aog k=2 best-single-edge on a 150-node path."""
    trace = run_dynamics(build_path(150), AOG2, ActivationScheme.round_robin(BEST_SINGLE_EDGE))
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
    deletion or swap: 121 on build_path(60), one per applied deletion or swap,
    against 405 without the screen.
    """
    scheme = ActivationScheme.round_robin(policy)
    with mock.patch.object(moves, "apsp_without", wraps=moves.apsp_without) as without:
        trace = run_dynamics(build_path(n), GameConfig(locality_k=k), scheme)
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
        trace = run_dynamics(build_path(40), cfg, ActivationScheme.round_robin(BEST_SINGLE_EDGE))
        assert trace.outcome == CONVERGED and trace.steps
    assert keys == []
    # a scripted schedule may drop edges, so it keeps the check
    run_dynamics(build_path(4), GameConfig(), ActivationScheme.scripted([(0, AddEdge(3))]))
    assert keys



# Whole runs against a scalar reference.  Its pricing reads only the
# reference of costs (agent_cost, evaluate_deviation, candidate_targets);
# its loop restates the rules of run_dynamics over OwnedGraph alone.


def _reference_move(g, u, cfg, policy):
    """(targets after, cost before, cost after) of u's move under policy, or None."""
    now, current = agent_cost(g, u, cfg).total, g.targets(u)
    cands = sorted(candidate_targets(g, u, cfg))
    if policy == FULL_BEST_RESPONSE:
        kept, free = (current, cands) if cfg.add_only else (set(), sorted(set(cands) | current))
        picks = (c for r in range(len(free) + 1) for c in itertools.combinations(free, r))
        strategies = [kept | set(c) for c in picks]
        priced = [(evaluate_deviation(g, u, s, cfg), len(s), sorted(s)) for s in strategies]
        cost, _, best = min(priced)
        return (set(best), now, cost) if cost < now else None
    options = [current | {v} for v in cands]
    if policy == BEST_SINGLE_EDGE:
        # a stable sort keeps the smallest target first among equal costs
        options = sorted(options, key=lambda s: evaluate_deviation(g, u, s, cfg))[:1]
    elif not cfg.add_only:
        options += [current - {o} for o in sorted(current)]
        options += [current - {o} | {v} for o in sorted(current) for v in cands]
    for s in options:
        cost = evaluate_deviation(g, u, s, cfg)
        if cost < now:
            return s, now, cost
    return None


def _reference_replay(g, u, kind, cfg):
    """(targets after, cost before, cost after) of a scripted move, which must be
    legal and strictly improving."""
    current = g.targets(u)
    if isinstance(kind, AddEdge):
        gone, new = set(), {kind.target}
    elif isinstance(kind, DeleteEdge):
        gone, new = {kind.target}, set()
    else:
        gone, new = {kind.old_target}, {kind.new_target}
    assert gone <= current and new <= candidate_targets(g, u, cfg) and not (cfg.add_only and gone)
    after = current - gone | new
    now, cost = agent_cost(g, u, cfg).total, evaluate_deviation(g, u, after, cfg)
    assert cost < now
    return after, now, cost


def _reference_run(g0, cfg, scheme, max_steps):
    """(outcome, activations, rounds, steps, final owned edges) of a run, where a
    step is (agent, cost before, cost after, sorted targets after)."""
    g, n = g0.copy(), g0.n
    if scheme.kind == SCRIPTED:
        source = iter(scheme.schedule)
    elif scheme.kind == ROUND_ROBIN:
        source = ((t % n, None) for t in itertools.count())
    else:
        rng = random.Random(scheme.seed)
        source = ((rng.randrange(n), None) for _ in itertools.count())
    every_move_adds = cfg.add_only or scheme.move_policy == BEST_SINGLE_EDGE
    seen = None if every_move_adds else {g.state_key()}
    steps, activations, stuck = [], 0, set()
    for u, kind in source:
        if len(stuck) == n and (scheme.kind == UNIFORM_RANDOM or activations % n == 0):
            outcome = CONVERGED
            break
        if activations >= max_steps:
            outcome = STEP_LIMIT
            break
        activations += 1
        if kind is None:
            move = _reference_move(g, u, cfg, scheme.move_policy)
        else:
            move = _reference_replay(g, u, kind, cfg)
        if move is None:
            stuck.add(u)
            continue
        g.replace_strategy(u, move[0])
        steps.append((u, move[1], move[2], sorted(move[0])))
        stuck.clear()
        if seen is not None:
            if g.state_key() in seen:
                outcome = CYCLE_DETECTED
                break
            seen.add(g.state_key())
    else:
        stable = not any(_reference_move(g, u, cfg, FIRST_IMPROVING_SINGLE_MOVE) for u in range(n))
        outcome = CONVERGED if stable else STEP_LIMIT
    return outcome, activations, activations // n, steps, sorted(g.owned_edges)


@st.composite
def _runs(draw):
    """(start graph, game, scheme): connected n = 5..9, full best response only to n = 7."""
    g = draw(owned_graphs(min_n=5, max_n=9, connected=True))
    cfg = GameConfig(
        variant=draw(st.sampled_from(["ncg", "aog"])),
        locality_k=draw(st.sampled_from([None, 2])),
        price_gamma=draw(st.sampled_from([-1, -3])),
    )
    policies = POLICIES if g.n <= 7 else (BEST_SINGLE_EDGE, FIRST_IMPROVING_SINGLE_MOVE)
    policy = draw(st.sampled_from(policies))
    if draw(st.booleans()):
        return g, cfg, ActivationScheme.round_robin(policy)
    return g, cfg, ActivationScheme.uniform_random(draw(st.integers(0, 2**16)), policy)


@settings(max_examples=300, deadline=None)
@example((build_figure_network("fig3-g1"), GameConfig(), ActivationScheme.scripted(FIG3_CYCLE)))
@example((build_path(10), AOG2, scripted_linear_sequences(10, DEG2AOG_2NE)))
@given(_runs())
def test_runs_match_the_scalar_reference(run):
    """Outcome, activations, rounds, every step's agent, costs and targets,
    and the final edges all equal the reference's, over the four games at
    two prices, every policy and both searched schemes; the examples
    replay the Figure 3 cycle and a schedule that runs out."""
    g, cfg, scheme = run
    trace = run_dynamics(g, cfg, scheme, max_steps=400)
    replayed, steps = g.copy(), []
    for r in trace.steps:
        moves.apply_move(replayed, r.agent, r.kind)
        steps.append((r.agent, r.cost_before, r.cost_after, sorted(replayed.targets(r.agent))))
    got = (trace.outcome, trace.activations, trace.rounds, steps, sorted(trace.final.owned_edges))
    assert got == _reference_run(g, cfg, scheme, max_steps=400)
