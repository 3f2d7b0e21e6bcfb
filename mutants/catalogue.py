"""The committed mutants: small breaks of the source that the tests must catch.

Each entry names a file under ``src/degprice``, an exact snippet of it
that must occur once, the snippet that replaces it, and the tests that
must fail once it is applied.  ``test_mutants.py`` applies them one at a
time to a copy of the repo.  A change that adds a fast path adds its
mutants here.
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
)
