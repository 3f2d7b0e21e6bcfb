"""Named network families, packaged figure networks, and the set-cover
reduction used to show best-response computation is NP-hard.

The gadget in :func:`set_cover_to_best_response_gadget` arranges a
set-cover instance so that one agent's cheapest strategy change under
2-local additions is exactly a minimum set cover: set nodes sit at
distance 2 from the agent, each priced ``q + 1``, while every uncovered
element keeps ``q + 2`` nodes one hop further away than they need to be.

The set-cover file format lives here, beside the instance it describes:
the record file (``textio.read_records``) with header ``u <n> q <q>``
and one line of q element ids per set.
"""

from dataclasses import dataclass
from importlib import resources
from itertools import chain, combinations, repeat

from degprice.errors import GraphFormatError, InfeasibleInstanceError, ResourceCapExceeded
from degprice.graph import MAX_EDGES, MAX_NODES, OwnedGraph, bfs_distances, degree
from degprice.textio import parse_graph_file, read_records, write_records

_DATA = resources.files("degprice").joinpath("data")
# the packaged networks: one data/<name>.graph file each
FIGURE_NAMES = tuple(
    sorted(f.name.removesuffix(".graph") for f in _DATA.iterdir() if f.name.endswith(".graph"))
)

__all__ = [
    "FIGURE_NAMES",
    "SetCoverInstance",
    "GadgetLayout",
    "build_star",
    "build_path",
    "build_cycle",
    "build_clique",
    "build_figure_network",
    "parse_set_cover_file",
    "serialize_set_cover",
    "dominating_set_to_set_cover",
    "set_cover_to_best_response_gadget",
]


def build_star(n):
    """Star on ``n`` nodes; the center (node 0) buys every edge."""
    if n < 2:
        raise ValueError(f"star needs at least 2 nodes, got {n}")
    return OwnedGraph(n, zip(repeat(0), range(1, n)))


def build_path(n):
    """Path on ``n`` nodes; node i buys the edge to node i + 1."""
    if n < 1:
        raise ValueError(f"path needs at least 1 node, got {n}")
    return OwnedGraph(n, zip(range(n - 1), range(1, n)))


def build_cycle(n):
    """Cycle on ``n`` nodes; node i buys the edge to node (i + 1) mod n."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 nodes, got {n}")
    # lazy edges, so that OwnedGraph checks MAX_NODES before any is built
    return OwnedGraph(n, zip(range(n), chain(range(1, n), (0,))))


def build_clique(n):
    """Complete graph on ``n`` nodes; the lower-indexed endpoint buys."""
    if n < 2:
        raise ValueError(f"clique needs at least 2 nodes, got {n}")
    if n * (n - 1) // 2 > MAX_EDGES:
        raise ResourceCapExceeded(f"graphs limited to {MAX_EDGES} edges, clique({n}) has more")
    return OwnedGraph(n, combinations(range(n), 2))


def build_figure_network(name):
    """Load one of the packaged reference networks by name.

    Available names are listed in :data:`FIGURE_NAMES`.  Each network is
    shipped as a graph text file and parsed on demand, so ownership in
    the returned graph matches the file byte for byte.
    """
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure network {name!r}, expected one of {FIGURE_NAMES}")
    return parse_graph_file(_DATA.joinpath(f"{name}.graph").read_text(encoding="utf-8"))


def _checked_set(elements, universe_size, q):
    """One set of a set-cover instance, as a sorted tuple.

    The one rule for a set, read by ``SetCoverInstance`` and by the file
    parser: exactly q distinct elements, each in ``range(universe_size)``;
    else ValueError.
    """
    elements = tuple(elements)
    if len(elements) != q:
        raise ValueError(f"set {elements} has {len(elements)} elements, expected q={q}")
    if len(set(elements)) != q:
        raise ValueError(f"duplicate element in set {elements}")
    bad = [e for e in elements if not 0 <= e < universe_size]
    if bad:
        raise ValueError(f"element {bad[0]} outside universe 0..{universe_size - 1}")
    return tuple(sorted(elements))


@dataclass(frozen=True)
class SetCoverInstance:
    """Set cover with uniform set size ``q`` over ``range(universe_size)``."""

    universe_size: int
    sets: tuple
    q: int

    def __post_init__(self):
        if self.universe_size < 1:
            raise ValueError(f"universe must be nonempty, got {self.universe_size}")
        if self.q < 1:
            raise ValueError(f"set size must be at least 1, got {self.q}")
        if not self.sets:
            raise ValueError("instance needs at least one set")
        canonical = tuple(_checked_set(s, self.universe_size, self.q) for s in self.sets)
        object.__setattr__(self, "sets", canonical)

    def covered(self, chosen):
        out = set()
        for j in chosen:
            out.update(self.sets[j])
        return out

    def is_cover(self, chosen):
        return len(self.covered(chosen)) == self.universe_size


def parse_set_cover_file(text):
    records = read_records(text, "u <n> q <q>")
    _, (n, q) = next(records)
    sets = []
    for number, elements in records:
        try:
            sets.append(_checked_set(elements, n, q))
        except ValueError as exc:
            raise GraphFormatError(str(exc), line=number) from exc
    try:
        return SetCoverInstance(universe_size=n, sets=tuple(sets), q=q)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def serialize_set_cover(inst):
    return write_records(f"u {inst.universe_size} q {inst.q}", inst.sets)


def dominating_set_to_set_cover(g):
    """Closed-neighborhood instance of a q-regular graph.

    q is node 0's degree, and every other node must have it too, else
    ValueError.  Dominating sets of the graph correspond one-to-one with
    covers: set j is the closed neighborhood of node j, so it has q + 1
    elements.
    """
    q = degree(g, 0)
    for v in range(g.n):
        if degree(g, v) != q:
            raise ValueError(f"graph is not {q}-regular: node {v} has degree {degree(g, v)}")
    sets = tuple(tuple(sorted(g.neighbors(v) | {v})) for v in range(g.n))
    return SetCoverInstance(universe_size=g.n, sets=sets, q=q + 1)


@dataclass(frozen=True)
class GadgetLayout:
    """Node order of the set-cover best-response gadget, read from the
    graph's size and the instance's.

    The nodes run: the ``universe_size`` elements, then ``q + 1`` padding
    leaves per element (element i's in one block), then one node per
    set, then the hub, then the agent.  ``role_map`` labels each node as
    agent / hub / set / element / padding.
    """

    graph: OwnedGraph
    instance: SetCoverInstance

    @property
    def agent(self):
        return self.graph.n - 1

    @property
    def hub(self):
        return self.graph.n - 2

    @property
    def _sets(self):
        return range(self.hub - len(self.instance.sets), self.hub)

    @property
    def set_nodes(self):
        return tuple(self._sets)

    @property
    def element_nodes(self):
        return tuple(range(self.instance.universe_size))

    @property
    def role_map(self):
        n, sets = self.instance.universe_size, self._sets
        roles = ["element"] * n + ["padding"] * (sets.start - n) + ["set"] * len(sets)
        return dict(enumerate(roles + ["hub", "agent"]))

    def cover_from_targets(self, targets):
        """Translate a strategy for the agent into chosen set indices."""
        sets = self._sets
        strangers = [t for t in targets if t not in sets]
        if strangers:
            raise ValueError(f"target {min(strangers)} is not a set node")
        return tuple(sorted(map(sets.index, targets)))

    def as_dict(self):
        return {
            "agent": self.agent,
            "hub": self.hub,
            "set_nodes": list(self.set_nodes),
            "element_nodes": list(self.element_nodes),
            "nodes": self.graph.n,
            "q": self.instance.q,
        }


def set_cover_to_best_response_gadget(inst):
    """Build the network whose 2-local best response for the agent node
    encodes a minimum cover of ``inst``, in ``GadgetLayout``'s node order.

    Each element buys the edges to its padding leaves and to the nodes of
    the sets that hold it, each set node buys the edge to the hub, and
    the hub buys the edge to the agent.  Requires q >= 4 so that covering
    an element (q + 2 nodes pulled one hop closer) always beats its price
    (q per set) with room to spare, and every element must appear in some
    set or the network would be disconnected.  The node count is checked
    against ``MAX_NODES`` first, so a huge universe exits on the cap
    before anything is built.
    """
    n, q, num_sets = inst.universe_size, inst.q, len(inst.sets)
    nodes = n * (q + 2) + num_sets + 2
    if nodes > MAX_NODES:
        raise ResourceCapExceeded(f"gadget needs {nodes} nodes; graphs limited to n <= {MAX_NODES}")
    if q < 4:
        raise ValueError(f"gadget requires set size q >= 4, got q={q}")
    missing = sorted(set(range(n)) - inst.covered(range(num_sets)))
    if missing:
        raise InfeasibleInstanceError(
            f"elements {missing} appear in no set; the gadget would be disconnected"
        )

    set_base, hub = n * (q + 2), nodes - 2
    edges = [((p - n) // (q + 1), p) for p in range(n, set_base)]
    for a, members in enumerate(inst.sets, set_base):
        edges += [*zip(members, repeat(a)), (a, hub)]
    g = OwnedGraph(nodes, [*edges, (hub, hub + 1)])

    dist = bfs_distances(g, hub + 1)
    for v in range(g.n):
        if dist[v] == 2 and degree(g, v) != q + 1:
            raise AssertionError(f"node {v} at distance 2 has degree {degree(g, v)} != q+1")
        if dist[v] == 3 and degree(g, v) < q + 2:
            raise AssertionError(f"node {v} at distance 3 has degree {degree(g, v)} < q+2")
    return GadgetLayout(g, inst)
