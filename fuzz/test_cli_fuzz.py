"""The CLI boundary check of ``tests/test_cli_boundary.py`` over more examples.

    python -m pytest fuzz -q

Outside ``testpaths``, so Tier-1 does not run it.  It draws from the same
argv and record-file strategies, derandomized like the Tier-1 run, and
only the example budget differs.
"""

import sys
from pathlib import Path

from hypothesis import given, settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_cli_boundary import COVER_FILES, GRAPH_FILES, argvs, check_main  # noqa: E402

EXAMPLES = 5000


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(argv=argvs(), graph=GRAPH_FILES, cover=COVER_FILES)
def test_main_returns_a_code_and_a_fault_writes_nothing(argv, graph, cover):
    check_main(argv, graph, cover)
