"""Acceptance criteria, one test per claim.

Each test is one externally meaningful property of the game model:
equilibrium families, optimum shape, diameter bounds, price-of-anarchy
behavior, convergence speeds, and the hardness reduction.  Where
``degprice.claims`` holds a criterion -- the paper's condition over the
criterion's full range, also run by ``degprice preset`` -- the test
asserts the claim's ``ok`` and adds only regression pins on its checks.
Numeric tolerances are pinned constants chosen before the assertions
were first run; exhaustive claims are bounded by the documented
enumeration caps.
"""

import math
import random

from degprice import claims
from degprice.claims import DEG2AOG_2NE, DEGAOG_NE
from degprice.constructions import (
    build_clique,
    build_figure_network,
    build_path,
    dominating_set_to_set_cover,
)
from degprice.costs import GameConfig, rho, social_cost
from degprice.dynamics import (
    BEST_SINGLE_EDGE,
    FIRST_IMPROVING_SINGLE_MOVE,
    ActivationScheme,
    run_dynamics,
)
from degprice.graph import OwnedGraph, diameter
from degprice.moves import verify_equilibrium
from degprice.oracle import min_dominating_set, min_set_cover, reachable_closure


def test_criterion_01_center_stars_are_equilibria_everywhere():
    """Center-sponsored stars survive exact scrutiny in all four games."""
    checks, ok = claims.star_equilibrium()
    assert ok, [c for c in checks if not c["is_equilibrium"]]


def test_criterion_02_social_optimum_is_a_star():
    checks, ok = claims.star_optimal()
    assert ok, checks
    for c in checks:
        n = c["n"]
        assert c["opt_cost"] == 2 * n * (n - 1) - 2 * (n - 1)


def test_criterion_03_unrestricted_equilibria_have_diameter_at_most_3(census):
    for n in (3, 4, 5):
        assert census.get("ncg", None, n).eq_diameter_max <= 3
    # the bound is met with equality away from the exhaustive range
    g = build_figure_network("fig2b")
    assert diameter(g) == 3


def test_criterion_04_2local_equilibria_obey_the_root_bound(census):
    def bound(n):
        return (2.0 / 3.0) * (1.0 + math.sqrt(9 * n + 19))

    for variant in ("ncg", "aog"):
        for n in (3, 4, 5):
            assert census.get(variant, 2, n).eq_diameter_max < bound(n)
    assert diameter(build_figure_network("fig2c")) < bound(14)
    assert diameter(build_figure_network("fig2d")) < bound(14)


def test_criterion_05_price_of_stability_is_one():
    checks, ok = claims.small_census()
    assert ok, checks


def test_criterion_06_cliques_drive_addonly_anarchy(census):
    for n in range(3, 9):
        rep = verify_equilibrium(build_clique(n), GameConfig(variant="aog"), level="exact")
        assert rep.is_equilibrium, n
    for n in (4, 5):
        s = census.get("aog", None, n)
        assert s.worst_eq_cost == social_cost(build_clique(n), GameConfig(variant="aog"))
    ratios = [census.get("aog", None, n).poa for n in (3, 4, 5)]
    assert ratios[0] < ratios[1] < ratios[2]


def test_criterion_07_swap_chain_cycles_forever():
    checks, ok = claims.figure_cycle()
    assert ok, checks
    assert checks[0]["costs"] == [[24, 23], [20, 19], [23, 22]] * 2


def test_criterion_08_adversarial_schedules_grow_quadratically():
    checks, ok = claims.adversarial_convergence()
    assert ok, checks
    assert checks[-1]["steps"] == [37, 92, 172, 407]


def test_criterion_09_round_robin_converges_in_near_linear_activations():
    cfg = GameConfig(variant="aog", locality_k=2)
    ratios = []
    for n in (50, 100, 200, 400):
        trace = run_dynamics(build_path(n), cfg, ActivationScheme.round_robin(BEST_SINGLE_EDGE))
        assert trace.outcome == "converged", n
        assert trace.final_diameter <= 6
        ratios.append(trace.activations / (n * math.log(n)))
    assert max(ratios) / min(ratios) <= 3.0


def test_criterion_10_random_activation_converges_within_cubic_budget():
    cfg = GameConfig()
    means = []
    for n in (10, 15, 20):
        total = 0
        for seed in range(20):
            scheme = ActivationScheme.uniform_random(seed, FIRST_IMPROVING_SINGLE_MOVE)
            trace = run_dynamics(build_path(n), cfg, scheme)
            assert trace.outcome == "converged", (n, seed)
            total += trace.activations
        mean = total / 20
        assert mean <= 0.1 * n**3
        means.append(mean)
    assert means[0] < means[1] < means[2]


def test_criterion_11_linear_schedules_end_in_equilibria():
    checks, ok = claims.linear_equilibria()
    assert ok, checks
    count_of = {DEGAOG_NE: lambda n: n - 2 + (n - 10) // 3, DEG2AOG_2NE: lambda n: n - 3}
    runs = [c for c in checks if "n" in c]
    assert len(runs) == 10
    for c in runs:
        assert c["steps"] == count_of[c["sequence"]](c["n"]), c


def _random_regular(n, d, rng):
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        simple = all(a != b for a, b in pairs)
        simple = simple and len({tuple(sorted(p)) for p in pairs}) == len(pairs)
        if simple:
            g = OwnedGraph(n)
            for a, b in pairs:
                g.add_edge(min(a, b), max(a, b))
            return g


def test_criterion_12_best_response_encodes_minimum_set_cover():
    checks, ok = claims.set_cover_gadget()
    assert ok, checks

    fixed = [
        OwnedGraph(5, [(i, (i + 1) % 5) for i in range(5)]),
        build_clique(4),
    ]
    petersen = OwnedGraph(10)
    for i in range(5):
        petersen.add_edge(i, (i + 1) % 5)
        petersen.add_edge(i, i + 5)
        petersen.add_edge(5 + i, 5 + (i + 2) % 5)
    fixed.append(petersen)
    reg_rng = random.Random(7)
    fixed.extend(_random_regular(n, 3, reg_rng) for n in (6, 8, 10))
    for g in fixed:
        inst = dominating_set_to_set_cover(g)
        assert min_set_cover(inst)[0] == min_dominating_set(g)[0]


def test_criterion_13_reachable_quality_stays_logarithmic():
    cfg = GameConfig(variant="aog")
    for n, worst_rho in ((5, (39, 35)), (6, (13, 11))):
        states = reachable_closure(build_path(n), cfg)
        best = min(cost for _, _, cost in states)
        terminals = [g for g, is_t, _ in states if is_t]
        values = [rho(g, best, cfg) for g in terminals]
        assert min(values) == 1
        assert max(values) * worst_rho[1] == worst_rho[0]  # exact fraction

    cfg2 = GameConfig(variant="aog", locality_k=2)
    scaled = []
    for n in (50, 100, 200):
        trace = run_dynamics(build_path(n), cfg2, ActivationScheme.round_robin(BEST_SINGLE_EDGE))
        assert trace.outcome == "converged"
        per_pair = trace.final_social_cost / (n * (n - 1))
        scaled.append(per_pair / math.log(n))
    assert max(scaled) / min(scaled) <= 3.0
