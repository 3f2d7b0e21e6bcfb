"""The one distance kernel: breadth-first search over neighbour sets.

``neighbours[v]`` is the set of v's neighbours (``OwnedGraph._adj`` is
one).  ``bfs_row`` gives the hop distances from one source, ``apsp``
stacks one row per source into an int64 table, and two kernels derive
a table from another instead of building it:

- ``apsp_update_add`` patches G's table after an edge is added,
  touching only the rows and columns whose distances can change;
- ``apsp_without`` gives the table of G - u from G's table, re-running
  ``bfs_row`` only for the sources whose row u's removal changes.  Take
  a source s and d = d(s, u).  Every node at depth d or less keeps its
  distance, since a path through u reaches only deeper nodes.  A node
  y at depth d + 1 keeps its distance if it has a neighbour x other
  than u at depth d, and every deeper node then keeps a path that
  avoids u by induction.  So row s changes outside column u exactly
  when some neighbour y of u at depth d + 1 has no such x.

Every distance caller goes through them, except two references kept
apart on purpose: the scalar reference in ``costs``, with its own BFS
over node sets, and the census tables of ``oracle._tables``, built by
one batched BFS over every edge mask.  A disconnected pair holds
exactly ``UNREACHABLE``.  The sentinel is far below the int64 overflow
line, so ``sentinel + sentinel + 1`` still compares safely, and the
update's minimum with the old entry keeps every result at most
``UNREACHABLE``.
"""

import numpy as np

from degprice.errors import ResourceCapExceeded

UNREACHABLE = 10**9
# ``apsp`` refuses graphs past this many nodes.  An n-node table takes
# 8 n^2 bytes, 800 MB at the cap.  A pricing position that plays an ncg
# move holds at most three n x n int64 arrays at once: G's table, the
# table of G - u that priced the move, and the temporary of the update,
# which it writes into the latter (``moves._Position.apply``).  It keeps
# no n x n adjacency matrix: the removal test's n x n ``level`` array in
# ``apsp_without``, n^2 bytes, is the only boolean one left.
APSP_MAX_NODES = 10_000


def bfs_row(neighbours, source):
    """Hop distances from source as a list."""
    row = [UNREACHABLE] * len(neighbours)
    row[source] = 0
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
    return row


def apsp(neighbours):
    """All-pairs hop distances, one ``bfs_row`` per source, as an int64 table.

    O(n * (n + edges)) time.
    """
    n = len(neighbours)
    if n > APSP_MAX_NODES:
        raise ResourceCapExceeded(
            f"distance table limited to n <= {APSP_MAX_NODES} nodes, got {n}"
        )
    dist = np.empty((n, n), dtype=np.int64)
    for s in range(n):
        dist[s] = bfs_row(neighbours, s)
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


def apsp_without(dist, neighbours, u):
    """The table of G - u, derived from G's table ``dist`` (left unchanged).

    Row s is re-run with ``bfs_row`` only when a neighbour y of u sits
    one hop deeper than u from s and has no other neighbour at u's depth
    (see the module docstring); every other row is copied, with column u
    cut.  By symmetry, x neighbours y exactly when ``dist[x, y] == 1``,
    so u's neighbour columns of ``dist`` also give G's adjacency there.
    This is the removal counterpart of ``apsp_update_add``, in the spirit
    of the fully dynamic shortest paths of Demetrescu and Italiano
    (J. ACM 2004).
    """
    table = dist.copy()
    near = sorted(neighbours[u])
    depth = dist[:, u, None]
    level = dist == depth
    level[:, u] = False
    columns = dist[:, near]
    # held[s, j]: near[j] has a neighbour other than u at u's depth from s
    held = level @ (columns == 1)
    # a neighbour of u is at most one hop deeper than u
    orphaned = (columns > depth) & ~held
    orphaned[u] = False  # row u is cut below
    # u keeps its edges in but has none out, so no path passes through it;
    # column u is cut below
    cut = list(neighbours)
    cut[u] = ()
    for s in orphaned.any(axis=1).nonzero()[0].tolist():
        table[s] = bfs_row(cut, s)
    table[u] = UNREACHABLE
    table[:, u] = UNREACHABLE
    table[u, u] = 0
    return table
