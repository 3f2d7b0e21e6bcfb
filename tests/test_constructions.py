"""Named families, packaged reference networks, set-cover reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degprice.claims import FIG3_CYCLE
from degprice.constructions import (
    FIGURE_NAMES,
    GadgetLayout,
    SetCoverInstance,
    build_clique,
    build_cycle,
    build_figure_network,
    build_path,
    build_star,
    dominating_set_to_set_cover,
    set_cover_to_best_response_gadget,
)
from degprice.costs import GameConfig, agent_cost, social_cost
from degprice.dynamics import ActivationScheme, run_dynamics
from degprice.errors import InfeasibleInstanceError
from degprice.graph import (
    OwnedGraph,
    bfs_distances,
    degree,
    diameter,
)
from degprice.moves import best_response_exact, verify_equilibrium
from degprice.oracle import min_dominating_set, min_set_cover


def petersen():
    g = OwnedGraph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
        g.add_edge(i, i + 5)
        g.add_edge(5 + i, 5 + (i + 2) % 5)
    return g


def _has_short_cycle(g):
    """True when some cycle of length 3 or 4 exists."""
    a = g.adjacency_matrix()
    common = (a.astype(int) @ a.astype(int))
    np.fill_diagonal(common, 0)
    triangle = (a & (common > 0)).any()
    square = (common > 1).any()
    return bool(triangle or square)


# each builder's owned edges at n = 1..6, "ab" for a -> b; None where it refuses n
PINNED_EDGES = {
    build_star: [None, "01", "01 02", "01 02 03", "01 02 03 04", "01 02 03 04 05"],
    build_path: ["", "01", "01 12", "01 12 23", "01 12 23 34", "01 12 23 34 45"],
    build_cycle: [None, None, "01 12 20", "01 12 23 30", "01 12 23 34 40", "01 12 23 34 45 50"],
    build_clique: [
        None,
        "01",
        "01 02 12",
        "01 02 03 12 13 23",
        "01 02 03 04 12 13 14 23 24 34",
        "01 02 03 04 05 12 13 14 15 23 24 25 34 35 45",
    ],
}


@pytest.mark.parametrize("build", PINNED_EDGES, ids=lambda build: build.__name__)
def test_builders_own_the_pinned_edges(build):
    for n, pinned in enumerate(PINNED_EDGES[build], start=1):
        if pinned is None:
            with pytest.raises(ValueError, match="needs at least"):
                build(n)
        else:
            assert build(n).owned_edges == {(int(a), int(b)) for a, b in pinned.split()}


class TestBuilders:
    def test_star_center_buys_everything(self):
        g = build_star(5)
        assert g.targets(0) == {1, 2, 3, 4}
        assert all(g.targets(v) == set() for v in range(1, 5))
        assert social_cost(g, GameConfig()) == 32
        with pytest.raises(ValueError):
            build_star(1)

    def test_path_and_cycle_ownership(self):
        p = build_path(4)
        assert p.owned_edges == {(0, 1), (1, 2), (2, 3)}
        assert build_path(1).owned_edges == set()
        c = build_cycle(4)
        assert c.owned_edges == {(0, 1), (1, 2), (2, 3), (3, 0)}
        with pytest.raises(ValueError):
            build_cycle(2)
        with pytest.raises(ValueError):
            build_path(0)

    def test_clique_formula_and_stability(self):
        for n in (3, 4, 5, 6):
            g = build_clique(n)
            assert len(g.owned_edges) == n * (n - 1) // 2
            assert social_cost(g, GameConfig()) == n * (n - 1) + n * (n - 1) * (n - 2) // 2
        rep = verify_equilibrium(build_clique(6), GameConfig(variant="aog"), level="exact")
        assert rep.is_equilibrium
        with pytest.raises(ValueError):
            build_clique(1)


class TestFigureNetworks:
    def test_catalog(self):
        # the sorted stems of the packaged data/*.graph files
        assert FIGURE_NAMES == (
            "fig2a", "fig2b", "fig2c", "fig2d",
            "fig3-g1", "fig3-g2", "fig3-g3", "fig3-g4", "fig3-g5", "fig3-g6",
        )
        with pytest.raises(ValueError, match="unknown figure"):
            build_figure_network("fig9z")

    def test_star_example_matches_builder(self):
        assert build_figure_network("fig2a") == build_star(6)

    @pytest.mark.parametrize(
        "name,diam", [("fig2a", 2), ("fig2b", 3), ("fig2c", 4), ("fig2d", 5)]
    )
    def test_reference_diameters(self, name, diam):
        assert diameter(build_figure_network(name)) == diam

    def test_unrestricted_equilibrium_network(self):
        """4-regular and girth 5: additions are overpriced, deletions detour."""
        g = build_figure_network("fig2b")
        assert g.n == 19
        assert all(degree(g, v) == 4 for v in range(g.n))
        assert not _has_short_cycle(g)
        for variant in ("ncg", "aog"):
            cfg = GameConfig(variant=variant)
            assert verify_equilibrium(g, cfg, level="exact").is_equilibrium

    def test_2local_equilibrium_networks(self):
        g = build_figure_network("fig2c")
        assert g.n == 14
        assert all(degree(g, v) == 3 for v in range(g.n))
        assert not _has_short_cycle(g)
        cfg = GameConfig(variant="ncg", locality_k=2)
        assert verify_equilibrium(g, cfg, level="exact").is_equilibrium

        h = build_figure_network("fig2d")
        assert h.n == 14
        assert np.bincount(bfs_distances(h, 0)).tolist() == [1, 2, 4, 4, 2, 1]
        cfg = GameConfig(variant="aog", locality_k=2)
        assert verify_equilibrium(h, cfg, level="exact").is_equilibrium

    def test_swap_chain_cost_anchors(self):
        """The three swappers' costs drop by one at each stage."""
        cfg = GameConfig()
        anchors = [
            ("fig3-g1", 4, 24),
            ("fig3-g2", 4, 23),
            ("fig3-g2", 1, 20),
            ("fig3-g3", 1, 19),
            ("fig3-g3", 9, 23),
            ("fig3-g4", 9, 22),
        ]
        for name, agent, total in anchors:
            g = build_figure_network(name)
            assert agent_cost(g, agent, cfg).total == total, (name, agent)

    def test_swap_chain_shares_one_skeleton(self):
        graphs = [build_figure_network(f"fig3-g{i}") for i in range(1, 7)]
        assert all(g.n == 10 and len(g.owned_edges) == 13 for g in graphs)
        fixed = {e for e in graphs[0].owned_edges if not {7, 8} & set(e)}
        for g in graphs[1:]:
            assert {e for e in g.owned_edges if not {7, 8} & set(e)} == fixed
        assert len({g.state_key() for g in graphs}) == 6
        # one full lap of swaps walks g1 back into itself
        trace = run_dynamics(graphs[0], GameConfig(), ActivationScheme.scripted(FIG3_CYCLE))
        assert trace.outcome == "cycle-detected"


class TestSetCoverInstances:
    def test_validation(self):
        with pytest.raises(ValueError, match="has 3 elements, expected q=2"):
            SetCoverInstance(universe_size=4, sets=((0, 1, 2),), q=2)
        with pytest.raises(ValueError, match="duplicate element"):
            SetCoverInstance(universe_size=4, sets=((0, 0),), q=2)
        with pytest.raises(ValueError, match="outside universe"):
            SetCoverInstance(universe_size=3, sets=((0, 3),), q=2)
        with pytest.raises(ValueError, match="at least one set"):
            SetCoverInstance(universe_size=3, sets=(), q=2)
        with pytest.raises(ValueError):
            SetCoverInstance(universe_size=0, sets=((0,),), q=1)

    def test_canonicalization_and_cover_predicate(self):
        inst = SetCoverInstance(universe_size=3, sets=((2, 0), (1, 2)), q=2)
        assert inst.sets == ((0, 2), (1, 2))
        assert len(inst.sets) == 2
        assert inst.covered((0,)) == {0, 2}
        assert inst.is_cover((0, 1)) and not inst.is_cover((1,))


class TestDominatingReduction:
    def test_cycle_neighborhoods(self):
        inst = dominating_set_to_set_cover(build_cycle(5))
        assert inst.universe_size == 5 and len(inst.sets) == 5 and inst.q == 3
        assert inst.sets[0] == (0, 1, 4)
        assert min_set_cover(inst)[0] == min_dominating_set(build_cycle(5))[0] == 2

    def test_clique_neighborhoods(self):
        inst = dominating_set_to_set_cover(build_clique(4))
        assert len(inst.sets) == 4
        assert all(len(s) == 4 for s in inst.sets)
        assert all(inst.is_cover((j,)) for j in range(4))
        assert min_set_cover(inst)[0] == 1

    def test_petersen_agreement(self):
        g = petersen()
        inst = dominating_set_to_set_cover(g)
        assert min_set_cover(inst)[0] == min_dominating_set(g)[0] == 3

    def test_rejects_irregular_graph(self):
        with pytest.raises(ValueError, match="not 1-regular: node 1 has degree 2"):
            dominating_set_to_set_cover(build_path(3))


EXAMPLE = SetCoverInstance(
    universe_size=8,
    sets=((0, 1, 2, 3), (4, 5, 6, 7), (2, 3, 4, 5)),
    q=4,
)


@st.composite
def coverable_instances(draw):
    """Set-cover instances with q = 4..6, universe q..14 and 1..7 sets,
    every element in some set: a shuffled universe is cut into q-blocks
    (the last topped up from the others) and random sets join them."""
    q = draw(st.integers(4, 6))
    n = draw(st.integers(q, 14))
    order = draw(st.permutations(range(n)))
    sets = [order[i : i + q] for i in range(0, n, q)]
    sets[-1] += [e for e in order if e not in sets[-1]][: q - len(sets[-1])]
    extra = st.lists(st.integers(0, n - 1), min_size=q, max_size=q, unique=True)
    sets += draw(st.lists(extra, max_size=7 - len(sets)))
    return SetCoverInstance(universe_size=n, sets=tuple(draw(st.permutations(sets))), q=q)


@settings(max_examples=60, deadline=None)
@given(coverable_instances(), st.data())
def test_gadget_layout_over_random_instances(inst, data):
    """Every node's role is its distance from the agent, each set node
    joins its set's elements to the hub, each element has q + 1 padding
    leaves, and chosen set nodes decode to their set indices."""
    layout = set_cover_to_best_response_gadget(inst)
    g = layout.graph
    depth = {"agent": 0, "hub": 1, "set": 2, "element": 3, "padding": 4}
    roles = layout.role_map
    dist = bfs_distances(g, layout.agent)
    assert sorted(roles) == list(range(g.n))
    assert all(dist[v] == depth[role] for v, role in roles.items())
    for j, a in enumerate(layout.set_nodes):
        assert g.neighbors(a) == set(inst.sets[j]) | {layout.hub}
    for i in layout.element_nodes:
        leaves = [v for v in g.neighbors(i) if roles[v] == "padding"]
        assert len(leaves) == inst.q + 1 and all(degree(g, v) == 1 for v in leaves)
    chosen = data.draw(st.sets(st.integers(0, len(inst.sets) - 1)))
    targets = {layout.set_nodes[j] for j in chosen}
    assert layout.cover_from_targets(targets) == tuple(sorted(chosen))


class TestBestResponseGadget:
    def test_layout_shape(self):
        layout = set_cover_to_best_response_gadget(EXAMPLE)
        g = layout.graph
        assert g.n == 53  # 8 elements + 8*5 padding + 3 sets + hub + agent
        assert g.targets(layout.agent) == set()
        assert layout.agent in g.targets(layout.hub)
        roles = [layout.role_map[v] for v in range(g.n)]
        assert roles.count("element") == 8
        assert roles.count("padding") == 40
        assert roles.count("set") == 3
        assert roles.count("hub") == roles.count("agent") == 1
        dist = bfs_distances(g, layout.agent)
        assert all(dist[a] == 2 for a in layout.set_nodes)
        assert all(dist[i] == 3 for i in layout.element_nodes)
        padding = [v for v, role in layout.role_map.items() if role == "padding"]
        assert all(dist[p] == 4 for p in padding)
        d = layout.as_dict()
        assert d["nodes"] == 53 and d["q"] == 4

    def test_best_response_is_a_minimum_cover(self):
        layout = set_cover_to_best_response_gadget(EXAMPLE)
        cfg = GameConfig(variant="aog", locality_k=2)
        strategy, _cost = best_response_exact(layout.graph, layout.agent, cfg)
        chosen = layout.cover_from_targets(strategy)
        assert EXAMPLE.is_cover(chosen)
        assert len(chosen) == min_set_cover(EXAMPLE)[0] == 2

    def test_cover_decoder_rejects_strangers(self):
        layout = set_cover_to_best_response_gadget(EXAMPLE)
        with pytest.raises(ValueError, match="not a set node"):
            layout.cover_from_targets({layout.hub})

    def test_preconditions(self):
        small_q = SetCoverInstance(universe_size=3, sets=((0, 1, 2),), q=3)
        with pytest.raises(ValueError, match="q >= 4"):
            set_cover_to_best_response_gadget(small_q)
        holey = SetCoverInstance(universe_size=5, sets=((0, 1, 2, 3),), q=4)
        with pytest.raises(InfeasibleInstanceError, match=r"\[4\]"):
            set_cover_to_best_response_gadget(holey)
