"""The committed mutants: small breaks of the source that the tests must catch.

Each entry names a file under ``src/degprice``, an exact snippet of it
that must occur once, the snippet that replaces it, and the tests that
must fail once it is applied.  ``test_mutants.py`` applies them one at a
time to a copy of the repo; ``tests/test_mutant_catalogue.py`` checks,
with the tests, that each old snippet occurs once.  A change that adds a
fast path adds its mutants here.

Left out as equivalent: ``_Pricing.totals`` without ``dsum[cut] = 0``
survives every Tier-1 test, because ``scaled[cut] = self.unreachable``
then overwrites those entries.  The line stays as overflow protection.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str
    old: str
    new: str
    tests: tuple


SCALAR_REFERENCE = "tests/test_dynamics.py::test_runs_match_the_scalar_reference"
ORACLE_MOVES_N5 = "tests/test_oracle.py::test_best_responses_agree_with_oracle_on_five_nodes"
TEXT_FORMATS = "tests/test_textio.py"
REMOVAL_THEN_GAIN = "tests/test_kernels.py::test_removal_then_gain_matches_recompute"
UPDATE_ADD = "tests/test_kernels.py::test_incremental_update_matches_recompute"
DROP_SCREEN = "tests/test_moves.py::test_drop_screen_clears_only_agents_without_an_improving_drop"
BRUTE_FORCE = "tests/test_moves.py::test_best_response_matches_brute_force"
SENTINEL = "tests/test_moves.py::test_disconnecting_move_reported_with_sentinel"

MUTANTS = (
    # whole-run dynamics against the scalar reference
    Mutant(
        "stuck-never-cleared",
        "dynamics.py",
        "        steps.append(record)\n        stuck.clear()\n",
        "        steps.append(record)\n",
        (SCALAR_REFERENCE,),
    ),
    Mutant(
        "swaps-priced-before-deletions",
        "moves.py",
        "        yield DeleteEdge, owned, self.totals(rows, spends)\n"
        "        for old, row, spend in zip(owned, rows, spends):\n"
        "            yield partial(SwapEdge, old), self.cands, self._adding(self.table, row, spend)\n",
        "        for old, row, spend in zip(owned, rows, spends):\n"
        "            yield partial(SwapEdge, old), self.cands, self._adding(self.table, row, spend)\n"
        "        yield DeleteEdge, owned, self.totals(rows, spends)\n",
        (SCALAR_REFERENCE,),
    ),
    Mutant(
        "best-single-edge-last-of-equals",
        "moves.py",
        "int(totals.argmin() if policy == BEST_SINGLE_EDGE else improving[0])",
        "int(totals.size - 1 - totals[::-1].argmin() if policy == BEST_SINGLE_EDGE"
        " else improving[0])",
        (SCALAR_REFERENCE,),
    ),
    Mutant(
        "cycle-set-starts-empty",
        "dynamics.py",
        "scheme.move_policy) else {g.state_key()}",
        "scheme.move_policy) else set()",
        (SCALAR_REFERENCE,),
    ),
    # improving_move against the oracle's moves at n = 5
    Mutant(
        "last-improving-index",
        "moves.py",
        "if policy == BEST_SINGLE_EDGE else improving[0])",
        "if policy == BEST_SINGLE_EDGE else improving[-1])",
        (ORACLE_MOVES_N5, SCALAR_REFERENCE),
    ),
    Mutant(
        "drops-never-priced",
        "moves.py",
        "            if make is AddEdge and (\n"
        "                _every_move_adds(self.add_only, policy) or self.drops_cannot_improve(totals)\n"
        "            ):\n",
        "            if make is AddEdge:\n",
        (ORACLE_MOVES_N5, SCALAR_REFERENCE),
    ),
    Mutant(
        "best-single-edge-last-improving",
        "moves.py",
        "int(totals.argmin() if policy == BEST_SINGLE_EDGE",
        "int(improving[-1] if policy == BEST_SINGLE_EDGE",
        (ORACLE_MOVES_N5, SCALAR_REFERENCE),
    ),
    # the record reader of graph and set-cover files
    Mutant(
        "comment-rows-read",
        "textio.py",
        '            if line and line[0] != "#":\n                yield',
        "            if line:\n                yield",
        (TEXT_FORMATS,),
    ),
    Mutant(
        "lines-counted-from-0",
        "textio.py",
        "enumerate(text.splitlines(), start=1)",
        "enumerate(text.splitlines(), start=0)",
        (TEXT_FORMATS,),
    ),
    Mutant(
        "header-keywords-unchecked",
        "textio.py",
        "if parts[::2] != keys or len(parts) != 2 * len(keys):",
        "if len(parts) != 2 * len(keys):",
        (TEXT_FORMATS,),
    ),
    Mutant(
        "underscore-read-as-a-digit",
        "textio.py",
        'if not text.isascii() or "_" in text:',
        "if not text.isascii():",
        (TEXT_FORMATS,),
    ),
    # the table of G - u derived from G's table
    Mutant(
        "removed-node-kept-in-its-level",
        "_kernels.py",
        "    level[:, u] = False\n",
        "",
        (REMOVAL_THEN_GAIN,),
    ),
    Mutant(
        "held-neighbours-re-run",
        "_kernels.py",
        "orphaned = (columns > depth) & ~held",
        "orphaned = columns > depth",
        ("tests/test_kernels.py::test_removal_matches_recompute",),
    ),
    Mutant(
        "re-run-through-the-removed-node",
        "_kernels.py",
        "table[s] = bfs_row(cut, s)",
        "table[s] = bfs_row(neighbours, s)",
        (REMOVAL_THEN_GAIN,),
    ),
    # the add-edge update of a table
    Mutant(
        "relaxed-rows-not-mirrored",
        "_kernels.py",
        "        dist[block] = relaxed\n        dist[:, block] = relaxed.T\n",
        "        dist[block] = relaxed\n",
        (UPDATE_ADD,),
    ),
    Mutant(
        "relaxed-one-hop-too-far",
        "_kernels.py",
        "np.minimum(relaxed, r, out=relaxed)",
        "np.minimum(relaxed, r + 1, out=relaxed)",
        (UPDATE_ADD,),
    ),
    Mutant(
        "every-other-block-skipped",
        "_kernels.py",
        "for start in range(0, len(rows), step):",
        "for start in range(0, len(rows), 2 * step):",
        ("tests/test_kernels.py::test_an_update_relaxed_one_row_at_a_time_matches_recompute",),
    ),
    Mutant(
        "every-block-from-row-0",
        "_kernels.py",
        "block = rows[start : start + step]",
        "block = rows[:step]",
        ("tests/test_kernels.py::test_an_update_relaxed_one_row_at_a_time_matches_recompute",),
    ),
    # the screen that clears an agent without an improving drop
    Mutant(
        "own-row-not-cleared",
        "moves.py",
        "        second[u] = 0\n",
        "",
        (DROP_SCREEN,),
    ),
    Mutant(
        "rise-not-clipped",
        "moves.py",
        "        np.minimum(rise, second, out=rise)\n",
        "",
        (DROP_SCREEN,),
    ),
    Mutant(
        "nearest-neighbour-mark-added",
        "moves.py",
        "near[np.arange(n), first] = UNREACHABLE",
        "near[np.arange(n), first] += 1",
        ("tests/test_moves.py::test_drop_screen_reads_the_second_nearest_neighbour",),
    ),
    # the position's door and its lazily built state
    Mutant(
        "witness-never-found",
        "moves.py",
        "        for u in range(self.graph.n):\n"
        "            record = _Pricing(self, u).improving_move(policy)\n"
        "            if record is not None:\n"
        "                return record\n"
        "        return None\n",
        "        return None\n",
        ("tests/test_moves.py::test_path_is_not_an_equilibrium",),
    ),
    Mutant(
        "now-without-the-spend",
        "moves.py",
        "self.total(self.current, self.spent)",
        "self.total(self.current, 0)",
        ("tests/test_moves.py::test_single_move_costs_match_replay",),
    ),
    Mutant(
        "lazy-never-stores",
        "moves.py",
        "value = obj.__dict__[self.name] = self.build(obj)",
        "value = self.build(obj)",
        ("tests/test_dynamics.py::test_uniform_random_totals_are_pinned",),
    ),
    Mutant(
        "stale-prices-kept",
        "moves.py",
        '        vars(self).pop("prices", None)\n',
        "",
        (
            "tests/test_dynamics.py"
            "::test_round_robin_cycle_closed_by_last_agent_completes_the_round",
        ),
    ),
    Mutant(
        "non-improving-step-replayed",
        "moves.py",
        "        if not record.improving:\n",
        "        if False:\n",
        ("tests/test_dynamics.py::test_scripted_replay_rejects_non_improving_step",),
    ),
    # the exact best response's column fold
    Mutant(
        "columns-of-two-folded",
        "moves.py",
        "live = (shorter.sum(axis=0) > 1) | (base >= UNREACHABLE)",
        "live = (shorter.sum(axis=0) > 2) | (base >= UNREACHABLE)",
        (BRUTE_FORCE,),
    ),
    Mutant(
        "gain-added-to-the-step",
        "moves.py",
        "self.price[v] - self.scale * int(g)",
        "self.price[v] + self.scale * int(g)",
        (BRUTE_FORCE,),
    ),
    Mutant(
        "unreached-columns-folded",
        "moves.py",
        "live = (shorter.sum(axis=0) > 1) | (base >= UNREACHABLE)",
        "live = shorter.sum(axis=0) > 1",
        (SENTINEL,),
    ),
    Mutant(
        "folded-base-not-spent",
        "moves.py",
        "spend[0] = (self.spent if self.add_only else 0) + self.scale * int(base[~live].sum())",
        "spend[0] = self.spent if self.add_only else 0",
        (SENTINEL,),
    ),
    # the exact best response's free variables
    Mutant(
        "free-zero-step-forced",
        "moves.py",
        "if not t and s < 0}",
        "if not t and s <= 0}",
        (BRUTE_FORCE,),
    ),
    Mutant(
        "forced-kept-when-disconnected",
        "moves.py",
        "        if best[0] < self.unreachable:\n",
        "        if True:\n",
        (BRUTE_FORCE,),
    ),
    Mutant(
        "forced-steps-not-spent",
        "moves.py",
        "        spend[0] += sum(forced.values())\n",
        "",
        (ORACLE_MOVES_N5, SCALAR_REFERENCE),
    ),
    # the improving-response closure's costs
    Mutant(
        "closure-cost-dropped",
        "oracle.py",
        "order.append((_state_to_graph(g0.n, *state), not successors, cost))",
        "order.append((_state_to_graph(g0.n, *state), not successors, 0))",
        ("tests/test_oracle.py::test_closure_agrees_with_the_engine",),
    ),
    # the set-cover gadget's node order
    Mutant(
        "set-nodes-one-down",
        "constructions.py",
        "        return range(self.hub - len(self.instance.sets), self.hub)\n",
        "        return range(self.hub - len(self.instance.sets) - 1, self.hub - 1)\n",
        ("tests/test_constructions.py::test_gadget_layout_over_random_instances",),
    ),
)
