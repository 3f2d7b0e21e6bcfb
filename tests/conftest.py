"""Shared fixtures.

The exhaustive small-n censuses are the most expensive shared resource, so
they are computed lazily and cached for the whole session.  Everything else
is cheap enough to build inline.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from degprice.costs import GameConfig
from degprice.graph import UNREACHABLE, OwnedGraph
from degprice.oracle import equilibrium_census


@st.composite
def owned_graphs(draw, max_n=8, connected=False, min_n=1):
    """Random ownership-labeled graphs on min_n..max_n nodes, optionally
    forced connected.

    Connectivity is ensured with a random spanning tree first; extra edges
    (random orientation) are sprinkled on top either way.
    """
    n = draw(st.integers(min_value=max(min_n, 2 if connected else 1), max_value=max_n))
    g = OwnedGraph(n)
    if connected and n > 1:
        perm = draw(st.permutations(list(range(n))))
        for i in range(1, n):
            other = perm[draw(st.integers(0, i - 1))]
            if draw(st.booleans()):
                g.add_edge(perm[i], other)
            else:
                g.add_edge(other, perm[i])
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in draw(st.lists(pairs, max_size=12)):
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
    return g


def floyd_warshall(g):
    """Independent distance oracle for cross-checking the BFS kernel."""
    n = g.n
    d = np.full((n, n), UNREACHABLE, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for u, v in g.owned_edges:
        d[u, v] = d[v, u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    d[d > UNREACHABLE] = UNREACHABLE
    return d


class _CensusCache:
    def __init__(self):
        self._cache = {}

    def get(self, variant, locality_k, n):
        key = (variant, locality_k, n)
        if key not in self._cache:
            cfg = GameConfig(variant=variant, locality_k=locality_k)
            self._cache[key] = equilibrium_census(n, cfg)
        return self._cache[key]


@pytest.fixture(scope="session")
def census():
    """Lazy per-(variant, locality, n) census cache."""
    return _CensusCache()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion after the run."""
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            if getattr(rep, "when", "call") != "call" and outcome != "error":
                continue
            name = nodeid.split("::")[-1]
            lines[name] = "PASS" if outcome == "passed" else "FAIL"
    if lines:
        terminalreporter.section("acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(f"{name}: {lines[name]}")
