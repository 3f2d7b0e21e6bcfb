"""The one distance kernel: breadth-first search over neighbour sets.

``neighbours[v]`` is the set of v's neighbours (``OwnedGraph._adj`` is
one).  ``bfs_row`` gives the hop distances from one source, ``apsp``
stacks one row per source into an int64 table, and two kernels derive
a table from another instead of building it:

- ``apsp_update_add`` patches a table after a node u gains edges,
  touching only the rows and columns whose distances can change.  Every
  move is one: u gains its new targets on G's table, or all its new
  neighbours on the table of G - u;
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
# 8 n^2 bytes, 800 MB at the cap.  Pricing and playing one move on
# path(300), with update blocks of an eighth of the table, allocates
# 0.02 tables beyond G's for an add, 0.27 for the aog replace of
# ``tests/test_kernels.py``, 1.23 for its swap and delete, and 1.27 for
# a drop whose new neighbours join two components of G - u: a drop
# holds the table of G - u and one block.  At the cap a block is 1 %
# of the table.
APSP_MAX_NODES = 10_000
# ``apsp_update_add`` relaxes its changed rows in blocks of at most this
# many entries, 8 MB, so a move that changes nearly every row holds one
# block rather than a copy of the table.  Up to 1024 nodes every move
# is one block
_RELAX_ENTRIES = 1 << 20


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


def row_with(row, near):
    """u's row after it gains edges: ``min(row, 1 + near.min(axis=0))``.

    ``row`` is u's row and ``near`` stacks the rows of its new
    neighbours.  A shortest path from u uses at most one new edge, its
    first.
    """
    return np.minimum(row, near.min(axis=0) + 1)


def apsp_update_add(dist, u, targets):
    """Refresh a symmetric distance table in place after u gains edges to ``targets``.

    Each new edge ends at u, so with r = ``row_with(dist[u], dist[targets])``
    a pair (x, y) gets ``min(d, r[x] + r[y])``.  If it drops, its new
    shortest path runs x .. u, v .. y for a target v (else read it from
    y), and its part up to v is new and shorter than the old d(x, v), or
    the old path to v would already reach y.  So relaxing the rows x with
    ``r[x] + 1 < d(x, v)`` for some target v, mirrored into their columns,
    is the whole update: for one edge, the insertion rule of Ausiello,
    Italiano, Marchetti-Spaccamela and Nanni (J. Algorithms 1991).  The
    minimum with the old entry keeps a sum past the sentinel at exactly
    ``UNREACHABLE``.  The rows are relaxed in blocks of at most
    ``_RELAX_ENTRIES`` entries, with r and the row set fixed first.
    """
    if not targets:
        return
    near = dist.take(targets, axis=0)
    r = row_with(dist[u], near)
    rows = (r + 1 < near.max(axis=0)).nonzero()[0]
    del near  # as large as the table when u gains most nodes
    # one temporary per block of changed rows: min(d - r[x], r[y]) + r[x].
    # Relaxing is idempotent, so a block may read entries that an earlier
    # block's mirror already relaxed
    step = max(_RELAX_ENTRIES // len(r), 1)
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        shift = r.take(block)[:, None]
        relaxed = dist.take(block, axis=0)
        relaxed -= shift
        np.minimum(relaxed, r, out=relaxed)
        relaxed += shift
        dist[block] = relaxed
        dist[:, block] = relaxed.T


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
