"""Exact 3D nearest-neighbor search for the distance-field build and for ICP.

The index wraps scipy's cKDTree (median split on the widest axis).
``scipy.spatial`` (about 36 MB resident) is imported by the first
``KdTree3``, not with this module, so a localizer that only queries a
distance field never loads it. The index's leaf bucket size depends on
where the queries fall. ICP's online correspondence queries lie near the
surface, where small leaves are fastest, so ``build_index`` defaults to
``LEAF_SIZE = 16``. The field build queries lattice nodes, most of them
far from the surface; such a query visits many leaves, and larger leaves
make it cheaper, so the build uses ``FIELD_LEAF_SIZE``. ``nearest_many``
returns indices into ``points``: the build compares winners by index and
keeps them in its float64 node lattice, so it holds no lattice of points.
Distances are always recomputed from the winning point by
``exact_distance``, the expression ``brute_force_nearest`` uses, so the
tree and the linear-scan oracle agree bit for bit whatever the leaf size.

Both callers skip tree queries with a runner-up certificate, which
``certified_nearest`` issues: a ``k=2`` answer is certified when
``d1 < d2 - TIE_GAP``. Within ``TIE_GAP``, cKDTree's ``k=2`` first column
can differ from its ``k=1`` answer, so a tied row takes its ``k=1`` winner
and is never certified. A one-point map's runner-up is at infinity, so
its winner always holds.

ICP's query points move a little on each iteration, so ``nearest_moving``
asks the tree again only where the winner can have changed. A point queried
at ``a`` keeps its winner ``w`` and its runner-up distance ``d2``. At ``b``,
every other map point is at least ``d2 - |b - a|`` away (triangle
inequality), so ``w`` still wins when ``|b - w| + |b - a| < d2 - TIE_GAP``;
that holds whenever ``2 |b - a| < d2 - |a - w| - TIE_GAP``. The field build
(``distance_field.build_grid``) instead gives a winner to every lattice
node on a segment whose two ends are certified with that same winner,
because a map point's Voronoi cell is convex.
"""

from __future__ import annotations

import numpy as np

from .geometry import PointCloud

LEAF_SIZE = 16
# Chosen by a sweep of {32, 64, 128} on the benchmark's build workload (see CHANGES.md).
FIELD_LEAF_SIZE = 64
# Runner-up gaps (m) up to this are ties; certificates keep it as a margin over rounding.
TIE_GAP = 1e-9
# Relative rounding bound of the expanded squared distance |q|^2 - 2 q.p + |p|^2:
# its error is a few ulps of |q|^2 + |p|^2, far below this multiple of them.
EXPANDED_FORM_SLACK = 64 * np.finfo(np.float64).eps


def _as_points(points) -> np.ndarray:
    if isinstance(points, PointCloud):
        return points.points
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) point array, got shape {pts.shape}")
    return pts


def exact_distance(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The distance expression of the tree, the oracle and the field build; keeps them bitwise identical."""
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
        from scipy.spatial import cKDTree  # on first use: see the module docstring

        self._tree = cKDTree(self.points, leafsize=leaf_size, balanced_tree=True)

    def __len__(self) -> int:
        return self.points.shape[0]

    def nearest_many(self, queries, workers: int = 1, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Indices into ``points`` of the nearest point to each row of an (N, 3) block, and distances.

        With ``k=2`` both have an axis 1: nearest, then runner-up. A one-point
        index has no runner-up; its column keeps cKDTree's index ``len(self)``
        and has distance inf.
        """
        queries = np.asarray(queries, dtype=np.float64)
        _, idx = self._tree.query(queries, k=k, workers=workers)
        if k == 1:
            return idx, exact_distance(queries, self.points[idx])
        have = min(k, len(self))
        dist = np.full(idx.shape, np.inf)
        dist[:, :have] = exact_distance(queries[:, None], self.points[idx[:, :have]])
        return idx, dist


def certified_nearest(index: KdTree3, queries, workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``k=1`` winner index and its certified reach: the runner-up distance less ``TIE_GAP``.

    A row is certified when its nearest distance is below its reach; a tied
    row takes its ``k=1`` winner and reach 0, so it never is.
    """
    pair, dist = index.nearest_many(queries, workers=workers, k=2)
    won, reach = pair[:, 0], dist[:, 1] - TIE_GAP
    tie = ~(dist[:, 0] < reach)
    if tie.any():
        won[tie] = index.nearest_many(queries[tie], workers=workers)[0]
        reach[tie] = 0.0
    return won, reach


def nearest_moving(index: KdTree3, queries, held=None):
    """``index.nearest_many(queries)``, bit for bit, for rows that move between calls.

    ``held`` is what the previous call on the same rows returned last (None at
    first); it is updated in place. Returns ``(winners, distances, held)``,
    with the winners as points.
    """
    queries = np.asarray(queries, dtype=np.float64)
    at, winners, reach = held or (np.zeros_like(queries), np.zeros_like(queries), np.zeros(len(queries)))
    dist = exact_distance(queries, winners)
    stale = np.flatnonzero(~(dist + exact_distance(queries, at) < reach))  # indices beat a mask here
    if stale.size:
        rows = queries[stale]
        won, runner_up = certified_nearest(index, rows)
        won = index.points[won]
        at[stale], winners[stale], reach[stale] = rows, won, runner_up
        dist[stale] = exact_distance(rows, won)
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
    return p, float(exact_distance(q, p))


def brute_force_distances(points, queries) -> np.ndarray:
    """Exact nearest distance from each query to the cloud by blocked linear scan.

    The expanded |q|^2 - 2 q.p + |p|^2 form (fast, BLAS) picks, per query,
    the points whose value lies within its rounding bound
    (``EXPANDED_FORM_SLACK``) of the minimum; the direct expression of
    ``exact_distance`` ranks those. So rounding ties break as in the tree,
    and the result carries no cancellation error.
    """
    pts = _as_points(points)
    if pts.shape[0] == 0:
        raise ValueError("cannot search an empty cloud")
    queries = np.asarray(queries, dtype=np.float64)
    single = queries.ndim == 1
    q = queries[None, :] if single else queries
    # About 1 M elements, 8 MB, per (block, N) temporary.
    block = max(1, 1_000_000 // pts.shape[0])
    p2 = (pts**2).sum(axis=1)
    p2_max = p2.max()
    win = np.zeros(q.shape[0], dtype=np.intp)  # a NaN row has no candidate; it keeps point 0
    for start in range(0, q.shape[0], block):
        blk = q[start : start + block]
        q2 = (blk**2).sum(axis=1)
        d2 = blk @ pts.T  # then -2 q.p + |q|^2 + |p|^2, in place
        d2 *= -2.0
        d2 += q2[:, None]
        d2 += p2
        bound = d2.min(axis=1) + EXPANDED_FORM_SLACK * (q2 + p2_max)
        rows, cols = np.divmod(np.flatnonzero(d2 <= bound[:, None]), len(pts))
        # Sorted by row, then direct squared distance, then point index; each
        # row's first candidate wins.
        order = np.lexsort((((blk[rows] - pts[cols]) ** 2).sum(axis=-1), rows))
        rows, cols = rows[order], cols[order]
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        win[start + rows[first]] = cols[first]
    dist = exact_distance(q, pts[win])
    return dist[0] if single else dist
