"""The paper's claims that ``degprice preset`` checks, each over its full range.

Each claim is a function of no arguments that returns ``(checks, ok)``:
``checks`` is a JSON-ready list of records, one per instance checked
(and one per fitted curve), and ``ok`` says whether the paper's
condition held on all of them.  ``PRESETS`` names the claims for the
CLI; ``tests/test_acceptance.py`` calls the same functions, asserts
``ok``, and pins regression figures on ``checks``.

It also holds the paper's scripted runs, which ``dynamics --schedule``
names: ``adversarial_schedule``, ``scripted_linear_sequences`` (the
``DEGAOG_NE`` and ``DEG2AOG_2NE`` sequences) and the Figure 3 swap
cycle ``FIG3_CYCLE``.
"""

import math
import random

import numpy as np

from degprice.constructions import (
    SetCoverInstance,
    build_figure_network,
    build_path,
    build_star,
    set_cover_to_best_response_gadget,
)
from degprice.costs import AOG, NCG, GameConfig
from degprice.dynamics import CONVERGED, CYCLE_DETECTED, ActivationScheme, run_dynamics
from degprice.moves import (
    EXACT,
    SINGLE_MOVE,
    AddEdge,
    SwapEdge,
    best_response_exact,
    verify_equilibrium,
)
from degprice.oracle import equilibrium_census, min_set_cover, optimal_social_cost

DEGAOG_NE = "degaog-ne"
DEG2AOG_2NE = "deg2aog-2ne"

_FOUR_GAMES = tuple(GameConfig(variant=v, locality_k=k) for v in (NCG, AOG) for k in (None, 2))

# Figure 3: agents 4, 1 and 9 each move their edge from node 7 to node 8
# or back, twice round, and fig3-g1 comes back (ncg, global)
_TO_8, _TO_7 = SwapEdge(7, 8), SwapEdge(8, 7)
FIG3_CYCLE = ((4, _TO_8), (1, _TO_7), (9, _TO_7), (4, _TO_7), (1, _TO_8), (9, _TO_8))


def _path_additions(buys):
    """The scripted scheme in which each (agent, target) pair buys an edge.

    The pairs are 1-based positions on the path, as the paper numbers
    its nodes; node ids are 0-based.
    """
    return ActivationScheme.scripted((agent - 1, AddEdge(target - 1)) for agent, target in buys)


def adversarial_schedule(n, cfg):
    """Scripted quadratic-length schedule for add-only games on P_n.

    Phase one stacks shortcuts onto the first half of the path, phase
    two turns the node just left of the middle into a hub, then the far
    endpoint shortcuts its tail.  With locality 2 the script stops
    there; otherwise two tail phases bring the diameter down to 3.
    Every emitted move is strictly improving at replay time.
    """
    if not cfg.add_only:
        raise ValueError("the adversarial schedule is for add-only configs")
    if cfg.locality_k is not None and cfg.locality_k < 2:
        raise ValueError("the schedule buys at distance 2; needs k >= 2 or global")
    if n < 12:
        raise ValueError(f"schedule index arithmetic needs n >= 12, got {n}")
    half = math.ceil(n / 2)
    buys = []
    for i in range(1, half - 3 + 1):
        buys += [(j, i + 2) for j in range(i, 0, -1)]
    hub = half - 1
    buys += [(hub, i) for i in range(half + 1, n - 2 + 1)]
    buys.append((n, n - 2))
    if cfg.locality_k != 2:
        buys.append((half, n - 1))
        buys += [(n - 1, i) for i in range(half + 3, n - 5 + 1, 3)]
    return _path_additions(buys)


def scripted_linear_sequences(n, which):
    """Linear-length scripted runs from P_n ending in an equilibrium.

    DEGAOG_NE (needs n = 3m+1): the first node buys edges to almost the
    whole path, then the far endpoint shortcuts every third node
    descending and finally the second node.  DEG2AOG_2NE: the same hub
    phase, then the far endpoint buys one shortcut; locality-2 legal
    throughout.
    """
    if n < 10:
        raise ValueError(f"linear sequences need n >= 10, got {n}")
    if which not in (DEGAOG_NE, DEG2AOG_2NE):
        raise ValueError(f"unknown sequence {which!r}")
    buys = [(1, i) for i in range(3, n - 2 + 1)]
    if which == DEGAOG_NE:
        if n % 3 != 1:
            raise ValueError(f"degaog-ne sequence needs n = 1 mod 3, got {n}")
        buys += [(n, j) for j in range(n - 5, 4, -3)]
        buys.append((n, 2))
    else:
        buys.append((n, n - 2))
    return _path_additions(buys)


def star_equilibrium():
    """Criterion 1: the center-sponsored star, n = 3..10, is an exact
    equilibrium of all four games."""
    checks = []
    for n in range(3, 11):
        for cfg in _FOUR_GAMES:
            rep = verify_equilibrium(build_star(n), cfg, level=EXACT)
            checks.append({"n": n, "config": cfg.describe(), "is_equilibrium": rep.is_equilibrium})
    return checks, all(c["is_equilibrium"] for c in checks)


def star_optimal():
    """Criterion 2: the ncg social optimum, n = 2..6, costs 2 (n - 1)^2 and
    its witness is a star."""
    checks, ok = [], True
    for n in range(2, 7):
        cost, witness = optimal_social_cost(n, GameConfig())
        degrees = sorted(len(witness.neighbors(v)) for v in range(n))
        checks.append(
            {"n": n, "opt_cost": cost, "expected": 2 * (n - 1) ** 2, "witness_degrees": degrees}
        )
        ok = ok and cost == 2 * (n - 1) ** 2 and degrees == [1] * (n - 1) + [n - 1]
    return checks, ok


def small_census():
    """Criterion 5: the price of stability is exactly 1 in all four games,
    n = 3..5: the cheapest equilibrium costs what the optimum does."""
    checks, ok = [], True
    for cfg in _FOUR_GAMES:
        for n in (3, 4, 5):
            s = equilibrium_census(n, cfg)
            d = s.as_dict()
            checks.append(
                {"equilibria": d["equilibrium_count"]}
                | {key: d[key] for key in ("n", "config", "poa", "pos", "best_eq_cost", "opt_cost")}
            )
            ok = ok and s.pos == 1 and s.best_eq_cost == s.opt_cost
    return checks, ok


def figure_cycle():
    """Criterion 7: the six improving swaps of ``FIG3_CYCLE`` lead from
    fig3-g1 back to it, so ncg dynamics can cycle forever."""
    g = build_figure_network("fig3-g1")
    trace = run_dynamics(g, GameConfig(), ActivationScheme.scripted(FIG3_CYCLE))
    costs = [[r.cost_before, r.cost_after] for r in trace.steps]
    ok = trace.outcome == CYCLE_DETECTED and trace.final == g
    return [{"outcome": trace.outcome, "costs": costs}], ok


def _run_from_path(n, cfg, scheme):
    """The trace of ``scheme`` replayed from P_n, and its record."""
    trace = run_dynamics(build_path(n), cfg, scheme)
    return trace, {
        "n": n,
        "config": cfg.describe(),
        "outcome": trace.outcome,
        "steps": len(trace.steps),
        "final_diameter": trace.final_diameter,
        "single_move_equilibrium": verify_equilibrium(trace.final, cfg, SINGLE_MOVE).is_equilibrium,
    }


def _quadratic_fit(sizes, steps):
    """The record of the least-squares quadratic through (sizes, steps)."""
    coeffs = np.polyfit(sizes, steps, 2)
    ys = np.asarray(steps, dtype=float)
    ss_res = float(((ys - np.polyval(coeffs, sizes)) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    return {
        "sizes": list(sizes),
        "steps": list(steps),
        "leading_coefficient": float(coeffs[0]),
        "r_squared": 1.0 - ss_res / ss_tot,
    }


def adversarial_convergence():
    """Criterion 8: adversarial add-only schedules from P_n are quadratic.

    Under k = 2, at n = 20, 30, 40 and 60, every scheduled move replays
    and the run ends converged in a single-move equilibrium; the step
    counts fit a quadratic with a positive leading coefficient and
    R^2 >= 0.99.  Without a radius, at n = 20, the whole schedule replays
    and ends at diameter 3.  The last record is the fit.
    """
    cfg = GameConfig(variant=AOG, locality_k=2)
    checks, ok = [], True
    for n in (20, 30, 40, 60):
        scheme = adversarial_schedule(n, cfg)
        _, c = _run_from_path(n, cfg, scheme)
        checks.append(c)
        whole = c["steps"] == len(scheme.schedule)
        ok = ok and c["outcome"] == CONVERGED and whole and c["single_move_equilibrium"]
    fit = _quadratic_fit([c["n"] for c in checks], [c["steps"] for c in checks])
    ok = ok and fit["leading_coefficient"] > 0 and fit["r_squared"] >= 0.99
    glob = GameConfig(variant=AOG)
    scheme = adversarial_schedule(20, glob)
    trace, c = _run_from_path(20, glob, scheme)
    whole = c["steps"] == len(scheme.schedule) and trace.metadata.get("script_exhausted") is True
    return checks + [c, fit], ok and whole and c["final_diameter"] == 3


def linear_equilibria():
    """Criterion 11: the two linear scripted sequences end in equilibria.

    degaog-ne (aog) at n = 13..25 and deg2aog-2ne (aog, k = 2) at
    n = 12..30 converge to single-move equilibria; the three smallest
    of each, kept inside the exact search's candidate cap, are exact
    equilibria (``exact_equilibrium`` is null for the others); and a
    quadratic through the step counts has |leading coefficient| <= 0.01.
    Each sequence's fit follows its runs.
    """
    checks, ok = [], True
    for which, cfg, sizes in (
        (DEGAOG_NE, GameConfig(variant=AOG), (13, 16, 19, 22, 25)),
        (DEG2AOG_2NE, GameConfig(variant=AOG, locality_k=2), (12, 16, 20, 24, 30)),
    ):
        runs = []
        for n in sizes:
            trace, c = _run_from_path(n, cfg, scripted_linear_sequences(n, which))
            c["exact_equilibrium"] = (
                verify_equilibrium(trace.final, cfg, EXACT).is_equilibrium if n in sizes[:3] else None
            )
            runs.append({"sequence": which} | c)
            ok = ok and c["outcome"] == CONVERGED and c["single_move_equilibrium"]
            ok = ok and c["exact_equilibrium"] is not False
        fit = _quadratic_fit(sizes, [c["steps"] for c in runs])
        checks += [*runs, {"sequence": which} | fit]
        ok = ok and abs(fit["leading_coefficient"]) <= 0.01
    return checks, ok


def set_cover_gadget():
    """Criterion 12: on 20 seeded random set-cover gadgets, the agent's
    exact best response (aog, k = 2) picks a minimum set cover."""
    cfg = GameConfig(variant=AOG, locality_k=2)
    rng = random.Random(42)
    checks = []
    while len(checks) < 20:
        q = rng.choice((4, 5))
        n = rng.randint(q, 10)
        sets = tuple(tuple(sorted(rng.sample(range(n), q))) for _ in range(rng.randint(1, 5)))
        if set().union(*map(set, sets)) != set(range(n)):
            continue  # resample until every element is coverable
        inst = SetCoverInstance(universe_size=n, sets=sets, q=q)
        layout = set_cover_to_best_response_gadget(inst)
        strategy, _ = best_response_exact(layout.graph, layout.agent, cfg)
        cover = layout.cover_from_targets(strategy)
        checks.append(
            {
                "universe_size": n,
                "q": q,
                "cover": list(cover),
                "is_cover": inst.is_cover(cover),
                "optimal_size": min_set_cover(inst)[0],
            }
        )
    return checks, all(c["is_cover"] and len(c["cover"]) == c["optimal_size"] for c in checks)


PRESETS = {
    "star-equilibrium": star_equilibrium,
    "star-optimal": star_optimal,
    "small-census": small_census,
    "figure-cycle": figure_cycle,
    "adversarial-convergence": adversarial_convergence,
    "linear-equilibria": linear_equilibria,
    "set-cover-gadget": set_cover_gadget,
}
