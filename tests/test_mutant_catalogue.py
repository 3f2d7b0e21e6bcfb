"""Every committed mutant's old snippet occurs exactly once in the source.

The mutants under ``mutants/`` are killed only on request (``python -m
pytest mutants``), but a refactor that moves mutated code would leave a
mutant that tests nothing.  This check runs with the tests, so such a
refactor fails here and must update ``mutants/catalogue.py``.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "mutants"))

from catalogue import MUTANTS  # noqa: E402


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_old_snippet_occurs_once(mutant):
    assert (ROOT / "src" / "degprice" / mutant.file).read_text().count(mutant.old) == 1
