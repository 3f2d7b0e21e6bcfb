"""The one distance kernel: breadth-first search over neighbour sets.

``neighbours[v]`` is the set of v's neighbours (``OwnedGraph._adj`` is
one).  ``bfs_row`` gives the hop distances from one source, ``apsp``
stacks one row per source into an int64 table, and ``apsp_update_add``
patches such a table after an edge is added, touching only the rows
and columns whose distances can change.  Every distance caller goes
through them, except ``moves.evaluate_deviation``, the scalar reference
that keeps its own BFS.  A disconnected pair holds exactly
``UNREACHABLE``.  The sentinel is far below the int64 overflow line, so
``sentinel + sentinel + 1`` still compares safely, and the update's
minimum with the old entry keeps every result at most ``UNREACHABLE``.
``apsp`` refuses graphs of more than ``APSP_MAX_NODES`` nodes, whose
table would pass 800 MB.
"""

import numpy as np

from degprice.errors import ResourceCapExceeded

UNREACHABLE = 10**9
APSP_MAX_NODES = 10_000


def bfs_row(neighbours, source, without=None):
    """Hop distances from source as a list, with node ``without`` taken out.

    ``without`` loses all its edges: no path passes through it, and from
    itself it reaches nothing.
    """
    row = [UNREACHABLE] * len(neighbours)
    row[source] = 0
    if source == without:
        return row
    if without is not None:
        # a temporary non-sentinel value marks it as visited, so no path enters it
        row[without] = -1
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        reached = []
        for x in frontier:
            for y in neighbours[x]:
                if row[y] == UNREACHABLE:
                    row[y] = d
                    reached.append(y)
        frontier = reached
    if without is not None:
        row[without] = UNREACHABLE
    return row


def apsp(neighbours, without=None):
    """All-pairs hop distances, one ``bfs_row`` per source, as an int64 table.

    With ``without`` set, the table is that of the graph with that node's
    edges removed.  O(n * (n + edges)) time.
    """
    n = len(neighbours)
    if n > APSP_MAX_NODES:
        raise ResourceCapExceeded(
            f"distance table limited to n <= {APSP_MAX_NODES} nodes, got {n}"
        )
    dist = np.empty((n, n), dtype=np.int64)
    for s in range(n):
        dist[s] = bfs_row(neighbours, s, without)
    return dist


def apsp_update_add(dist, u, v):
    """Refresh a symmetric distance matrix in place after adding the edge {u,v}.

    A new shortest path crosses the new edge once.  Crossing from u to v,
    d(x, y) can drop to ``d(x, u) + 1 + d(v, y)``, which beats
    ``d(x, v) + d(v, y) >= d(x, y)`` only in the rows x nearer to u
    (``d(x, u) + 1 < d(x, v)``) and, by the same argument, only in the
    columns y nearer to v.  Crossing from v to u changes the same pairs,
    transposed.  So relaxing the rows nearer to u against ``dist[v]`` and
    mirroring them into their columns is the whole update, O(n) work per
    such row (the insertion rule of Ausiello, Italiano, Marchetti-Spaccamela
    and Nanni, J. Algorithms 1991).  The minimum with the old entry keeps
    a sum past the sentinel at exactly ``UNREACHABLE``.
    """
    rows = np.flatnonzero(dist[:, u] + 1 < dist[:, v])
    relaxed = np.minimum(dist[rows], dist[rows, u, None] + 1 + dist[v])
    dist[rows] = relaxed
    dist[:, rows] = relaxed.T
