"""Ownership-labeled undirected graphs and structural diagnostics.

Nodes are dense integer ids 0..n-1.  Every edge records which endpoint
bought it; the metric structure (distances, degrees, diameter) always
uses the undirected view.
"""

import numpy as np

from degprice._kernels import UNREACHABLE, apsp, bfs_row
from degprice.errors import ResourceCapExceeded

# a graph holds two sets per node, so this keeps an empty one near 500 MB
MAX_NODES = 1_000_000
# build_clique refuses a clique past this many edges: clique(1414), 998 991 edges,
# peaked at 431 MB and took 4.2 s as a CLI construct on a 2-core x86-64 host
MAX_EDGES = 1_000_000

__all__ = [
    "UNREACHABLE",
    "OwnedGraph",
    "bfs_distances",
    "degree",
    "diameter",
    "is_connected",
]


class OwnedGraph:
    """Simple undirected graph where each edge has exactly one owner.

    ``targets(u)`` is u's strategy: the set of nodes u bought edges to.
    ``OwnedGraph(n, edges)`` adds each ``(owner, target)`` pair of the
    iterable ``edges`` in order, through ``add_edge``.  Inserting an edge
    whose undirected counterpart already exists is an error rather than a
    silent dedup, so no multi-edge can ever form.
    """

    __slots__ = ("n", "_targets", "_adj")

    def __init__(self, n, edges=()):
        if n < 1:
            raise ValueError("need at least one node")
        if n > MAX_NODES:
            raise ResourceCapExceeded(f"graphs limited to n <= {MAX_NODES} nodes, got {n}")
        self.n = n
        self._targets = [set() for _ in range(n)]
        self._adj = [set() for _ in range(n)]
        for owner, target in edges:
            self.add_edge(owner, target)

    def _check_node(self, v):
        if not 0 <= v < self.n:
            raise ValueError(f"node id {v} out of range 0..{self.n - 1}")

    def add_edge(self, owner, target):
        self._check_node(owner)
        self._check_node(target)
        if owner == target:
            raise ValueError(f"self-loop at node {owner}")
        if target in self._adj[owner]:
            raise ValueError(f"edge {{{owner},{target}}} already present")
        self._targets[owner].add(target)
        self._adj[owner].add(target)
        self._adj[target].add(owner)

    def remove_edge(self, owner, target):
        if target not in self._targets[owner]:
            raise ValueError(f"agent {owner} owns no edge to {target}")
        self._targets[owner].discard(target)
        self._adj[owner].discard(target)
        self._adj[target].discard(owner)

    def has_edge(self, u, v):
        """True if the undirected edge {u,v} exists, whoever owns it."""
        return v in self._adj[u]

    def targets(self, u):
        """Strategy of u: targets of the edges u owns (fresh set)."""
        self._check_node(u)
        return set(self._targets[u])

    def neighbors(self, u):
        return set(self._adj[u])

    @property
    def owned_edges(self):
        return {(u, v) for u in range(self.n) for v in self._targets[u]}

    def copy(self):
        g = OwnedGraph.__new__(OwnedGraph)
        g.n = self.n
        g._targets = [set(t) for t in self._targets]
        g._adj = [set(a) for a in self._adj]
        return g

    def check_strategy(self, u, targets):
        """targets as a set, once u and every target are node ids, u is not
        among them, and none of them already bought an edge to u: the rule
        for any strategy u may hold."""
        self._check_node(u)
        targets = set(targets)
        for v in targets:
            self._check_node(v)
            if v == u:
                raise ValueError(f"self-loop at node {u}")
        clash = targets & (self._adj[u] - self._targets[u])
        if clash:
            raise ValueError(f"targets {sorted(clash)} already linked to {u}")
        return targets

    def replace_strategy(self, u, new_targets):
        """Swap out u's entire strategy in place.

        Only edges owned by u change; edges other agents bought toward u
        stay.  The new strategy is checked (``check_strategy``) before
        anything changes.
        """
        new_targets = self.check_strategy(u, new_targets)
        old = set(self._targets[u])
        for v in old - new_targets:
            self.remove_edge(u, v)
        for v in new_targets - old:
            self.add_edge(u, v)

    def adjacency_matrix(self):
        m = np.zeros((self.n, self.n), dtype=bool)
        for u in range(self.n):
            for v in self._adj[u]:
                m[u, v] = True
        return m

    def state_key(self):
        """Canonical hashable identity: (n, sorted owned edge list)."""
        return (self.n, tuple(sorted(self.owned_edges)))

    def __eq__(self, other):
        if not isinstance(other, OwnedGraph):
            return NotImplemented
        return self.n == other.n and self._targets == other._targets

    def __repr__(self):
        return f"OwnedGraph(n={self.n}, edges={sorted(self.owned_edges)})"


def bfs_distances(g, source):
    """Exact hop distances from source over the undirected view, as an int64 row.

    Unreachable nodes hold UNREACHABLE.
    """
    g._check_node(source)
    return np.array(bfs_row(g._adj, source), dtype=np.int64)


def degree(g, v):
    """Number of incident undirected edges, regardless of ownership."""
    g._check_node(v)
    return len(g._adj[v])


def diameter(g):
    """Largest finite distance, or UNREACHABLE when disconnected."""
    return int(apsp(g._adj).max())


def is_connected(g):
    return g.n == 1 or int(bfs_distances(g, 0).max()) < UNREACHABLE
