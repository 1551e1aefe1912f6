"""Exact 3D nearest-neighbor search for the distance-field build and for ICP.

The index wraps scipy's cKDTree (median split on the widest axis). Its
leaf bucket size depends on where the queries fall. ICP's online
correspondence queries lie near the surface, where small leaves are
fastest, so ``build_index`` defaults to ``LEAF_SIZE = 16``. The field
build queries every lattice node, and most nodes lie far from the
surface; such a query visits many leaves, and larger leaves make it
cheaper, so the build uses ``FIELD_LEAF_SIZE``. Returned distances are
always recomputed from the winning point with the same expression
``brute_force_nearest`` uses, so the tree and the linear-scan oracle
agree bit for bit whatever the leaf size.

ICP's query points move a little on each iteration, so ``nearest_moving``
asks the tree again only where the winner can have changed. A point queried
at ``a`` keeps its winner ``w`` and its runner-up distance ``d2``. At ``b``,
every other map point is at least ``d2 - |b - a|`` away (triangle
inequality), so ``w`` still wins when ``|b - w| + |b - a| < d2 - TIE_GAP``;
that holds whenever ``2 |b - a| < d2 - |a - w| - TIE_GAP``. Ties need a rule:
within ``TIE_GAP``, cKDTree's ``k=2`` first column can differ from its ``k=1``
answer, so a tied point takes its ``k=1`` winner and is never certified. A
one-point map has no runner-up, so its winner always holds.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .geometry import PointCloud

LEAF_SIZE = 16
# Chosen by a sweep of {32, 64, 128} on the benchmark's build workload (see CHANGES.md).
FIELD_LEAF_SIZE = 64
# Runner-up gaps (m) up to this are ties; certificates keep it as a margin over rounding.
TIE_GAP = 1e-9


def _as_points(points) -> np.ndarray:
    if isinstance(points, PointCloud):
        return points.points
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) point array, got shape {pts.shape}")
    return pts


def _exact_distance(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    # Shared distance expression; keeps tree and oracle bitwise identical.
    return np.sqrt(((q - p) ** 2).sum(axis=-1))


class KdTree3:
    """Immutable exact nearest-neighbor index over a fixed 3D point set.

    Queries are safe from any number of concurrent workers; the build is
    single-threaded and deterministic for a given input order.
    """

    def __init__(self, points, leaf_size: int = LEAF_SIZE):
        pts = _as_points(points)
        if pts.shape[0] == 0:
            raise ValueError("cannot build an index over an empty cloud")
        if not np.isfinite(pts).all():
            raise ValueError("index points must be finite")
        self.points = np.ascontiguousarray(pts)
        self.points.setflags(write=False)
        self._tree = cKDTree(self.points, leafsize=leaf_size, balanced_tree=True)

    def __len__(self) -> int:
        return self.points.shape[0]

    def nearest_many(self, queries, workers: int = 1, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup for an (N, 3) query block: with ``k=2``, nearest and runner-up on axis 1."""
        queries = np.asarray(queries, dtype=np.float64)
        _, idx = self._tree.query(queries, k=k, workers=workers)
        winners = self.points[idx]
        return winners, _exact_distance(queries if k == 1 else queries[:, None], winners)


def nearest_moving(index: KdTree3, queries, held=None):
    """``index.nearest_many(queries)``, bit for bit, for rows that move between calls.

    ``held`` is what the previous call on the same rows returned last (None at
    first); it is updated in place. Returns ``(winners, distances, held)``.
    """
    queries = np.asarray(queries, dtype=np.float64)
    at, winners, reach = held or (np.zeros_like(queries), np.zeros_like(queries), np.zeros(len(queries)))
    dist = _exact_distance(queries, winners)
    stale = np.flatnonzero(~(dist + _exact_distance(queries, at) < reach))  # indices beat a mask here
    if stale.size:
        rows = queries[stale]
        if len(index) == 1:
            won, runner_up = index.nearest_many(rows)[0], np.inf
        else:
            pair, pair_dist = index.nearest_many(rows, k=2)
            won, runner_up = pair[:, 0], pair_dist[:, 1] - TIE_GAP
            tie = ~(pair_dist[:, 0] < runner_up)
            if tie.any():
                won[tie] = index.nearest_many(rows[tie])[0]
                runner_up[tie] = 0.0
        at[stale], winners[stale], reach[stale] = rows, won, runner_up
        dist[stale] = _exact_distance(rows, won)
    return winners.copy(), dist, (at, winners, reach)


def build_index(points, leaf_size: int = LEAF_SIZE) -> KdTree3:
    """Build the exact nearest-neighbor index over a map cloud."""
    return KdTree3(points, leaf_size=leaf_size)


def brute_force_nearest(points, q) -> tuple[np.ndarray, float]:
    """Linear-scan nearest neighbor; the independent oracle for KdTree3."""
    pts = _as_points(points)
    if pts.shape[0] == 0:
        raise ValueError("cannot search an empty cloud")
    q = np.asarray(q, dtype=np.float64)
    d2 = ((pts - q) ** 2).sum(axis=1)
    p = pts[int(np.argmin(d2))]
    return p, float(_exact_distance(q, p))


def brute_force_distances(points, queries, block: int | None = None) -> np.ndarray:
    """Exact nearest distance from each query to the cloud by blocked linear scan.

    The argmin runs on the expanded |q|^2 - 2 q.p + |p|^2 form (fast, BLAS),
    then the winning distance is recomputed by direct subtraction so the
    result carries no cancellation error.
    """
    pts = _as_points(points)
    if pts.shape[0] == 0:
        raise ValueError("cannot search an empty cloud")
    queries = np.asarray(queries, dtype=np.float64)
    single = queries.ndim == 1
    q = queries[None, :] if single else queries
    if block is None:
        block = max(1, 16_000_000 // pts.shape[0])
    p2 = (pts**2).sum(axis=1)
    win = np.empty(q.shape[0], dtype=np.intp)
    for start in range(0, q.shape[0], block):
        blk = q[start : start + block]
        d2 = (blk**2).sum(axis=1)[:, None] - 2.0 * (blk @ pts.T) + p2[None, :]
        win[start : start + block] = np.argmin(d2, axis=1)
    dist = _exact_distance(q, pts[win])
    return dist[0] if single else dist
