"""Array kernels for distance work, in plain numpy.

All distance arrays are int64 and use the ``UNREACHABLE`` sentinel for
disconnected pairs.  The sentinel is far below the int64 overflow line,
so ``sentinel + sentinel + 1`` is still safely comparable; kernels clamp
results back to exactly ``UNREACHABLE`` before returning.
"""

import numpy as np

UNREACHABLE = 10**9


def apsp(adj):
    """All-pairs hop distances of a dense boolean adjacency matrix.

    Runs one synchronized BFS wave from every source at once via boolean
    matrix products.
    """
    n = adj.shape[0]
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    reached = np.eye(n, dtype=bool)
    frontier = reached.copy()
    d = 0
    while frontier.any():
        d += 1
        frontier = (frontier @ adj) & ~reached
        dist[frontier] = d
        reached |= frontier
    return dist


def apsp_update_add(dist, u, v):
    """Refresh a distance matrix in place after adding the edge {u,v}.

    With unit edge lengths the only new shortest paths route through the
    new edge once, so two broadcast minima suffice.
    """
    thru_uv = dist[:, u, None] + (1 + dist[v, None, :])
    thru_vu = dist[:, v, None] + (1 + dist[u, None, :])
    np.minimum(dist, thru_uv, out=dist)
    np.minimum(dist, thru_vu, out=dist)
    np.minimum(dist, UNREACHABLE, out=dist)


def row_sums_with_sentinel(mat):
    """Per-row sums of a distance matrix with sentinel propagation."""
    connected = (mat < UNREACHABLE).all(axis=1)
    return np.where(connected, mat.sum(axis=1), UNREACHABLE)
