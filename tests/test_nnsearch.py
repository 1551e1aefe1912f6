import numpy as np
import pytest

from dfloc.distance_field import GridSpec
from dfloc.geometry import Frame, PointCloud
from dfloc.nnsearch import (
    FIELD_LEAF_SIZE,
    LEAF_SIZE,
    KdTree3,
    brute_force_distances,
    brute_force_nearest,
    build_index,
    nearest_moving,
)


def _nearest(index, q):
    """The winner and distance that ``nearest_many`` returns for one query row."""
    won, d = index.nearest_many(np.asarray(q, dtype=np.float64)[None])
    return index.points[won[0]], d[0]


def test_single_point_tree():
    index = build_index(np.array([[1.0, 2.0, 3.0]]))
    p, d = _nearest(index, [4.0, 6.0, 3.0])
    assert np.allclose(p, [1.0, 2.0, 3.0])
    assert d == pytest.approx(5.0)


def test_cube_corners_zero_distance():
    corners = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    index = build_index(corners)
    for c in corners:
        _, d = _nearest(index, c)
        assert d == 0.0


def test_empty_cloud_rejected():
    with pytest.raises(ValueError):
        build_index(np.empty((0, 3)))
    with pytest.raises(ValueError):
        brute_force_nearest(np.empty((0, 3)), [0.0, 0.0, 0.0])


NON_FINITE_MAP = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [np.nan, 1.0, 1.0], [1.0, 0.0, 0.0]])


@pytest.mark.parametrize(
    "search",
    [
        build_index,
        lambda pts: brute_force_distances(pts, [[5.0, 5.0, 5.1]]),
        lambda pts: brute_force_nearest(pts, [5.0, 5.0, 5.1]),
    ],
    ids=["build_index", "brute_force_distances", "brute_force_nearest"],
)
def test_a_raw_array_with_a_non_finite_point_is_refused_alike(search):
    # A non-finite map point must be refused, not searched: it leaves the
    # blocked scan no candidate (every query got point 0's distance, 8.60 m
    # for a query 0.1 m from [5, 5, 5]) and makes the NaN point the linear
    # scan's winner.
    with pytest.raises(ValueError, match="index points must be finite"):
        search(NON_FINITE_MAP)
    with pytest.raises(ValueError, match="index points must be finite"):
        search(np.where(np.isnan(NON_FINITE_MAP), np.inf, NON_FINITE_MAP))


@pytest.mark.parametrize(
    "search",
    [
        lambda pts, q: build_index(pts).nearest_many(q),
        brute_force_distances,
        lambda pts, q: brute_force_nearest(pts, q[0]),
    ],
    ids=["nearest_many", "brute_force_distances", "brute_force_nearest"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_query_is_refused_alike(search, bad):
    # The tree refuses it through scipy; the oracles answered a NaN row with
    # NaN, an inf row with inf and two RuntimeWarnings, and the linear scan
    # returned point 0.
    with pytest.raises(ValueError, match="must be finite"):
        search(NON_FINITE_MAP[[0, 1, 3]], np.array([[bad, 0.0, 0.0], [5.0, 5.0, 5.1]]))


def test_brute_force_pythagorean():
    _, d = brute_force_nearest(np.array([[0.0, 0.0, 0.0]]), [3.0, 4.0, 0.0])
    assert d == pytest.approx(5.0)


def test_tree_matches_brute_force_exactly():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 10, size=(10_000, 3))
    index = build_index(PointCloud(pts, Frame.MAP))
    queries = rng.uniform(-1, 11, size=(1000, 3))
    for q in queries:
        _, d_tree = _nearest(index, q)
        _, d_brute = brute_force_nearest(pts, q)
        assert d_tree == d_brute  # identical float expression on the winning point


def test_nearest_many_matches_blocked_oracle():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 5, size=(2000, 3))
    queries = rng.uniform(0, 5, size=(500, 3))
    index = build_index(pts)
    _, d = index.nearest_many(queries)
    oracle = brute_force_distances(pts, queries)
    assert np.array_equal(d, oracle)


def test_leaf_size_does_not_change_distances():
    rng = np.random.default_rng(12)
    pts = rng.uniform(0, 5, size=(3000, 3))
    # Near and far queries, plus half-integer points equidistant from lattice map points.
    lattice = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = np.vstack([pts, lattice])
    queries = np.vstack([rng.uniform(-3, 8, size=(1000, 3)), lattice[:-1] + 0.5])
    oracle = brute_force_distances(pts, queries)
    for leaf in (1, LEAF_SIZE, FIELD_LEAF_SIZE, 256):
        _, d = build_index(pts, leaf_size=leaf).nearest_many(queries, workers=2)
        assert np.array_equal(d.view(np.uint64), oracle.view(np.uint64)), leaf


def _tied_lattice():
    # A 6x6x6 lattice of map points 0.3 m apart, queried at the 0.15 m nodes
    # around it: most nodes tie between 2 to 8 points, and the coordinates are
    # not binary fractions, so rounding breaks the ties.
    lattice = np.stack(np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    return 0.3 * lattice, GridSpec(np.full(3, -2.55), 0.15, 44, 44, 44).node_coordinates()


def _ring_on_an_axis():
    # 12 map points on the circle of radius 0.5 around the x axis, queried on
    # a 0.1 m lattice: every node on the axis is equidistant from all of them.
    ring = [(a * sa, b * sb) for a, b in ((0.3, 0.4), (0.4, 0.3)) for sa in (1, -1) for sb in (1, -1)]
    ring += [(0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)]
    pts = np.array([(0.0, y, z) for y, z in ring])
    return pts, GridSpec(np.full(3, -3.2), 0.1, 64, 64, 64).node_coordinates()


@pytest.mark.parametrize("case", [_tied_lattice, _ring_on_an_axis], ids=["tied-lattice", "ring"])
def test_oracle_breaks_rounding_ties_as_the_tree_does(case):
    pts, queries = case()
    oracle = brute_force_distances(pts, queries)
    for leaf in (LEAF_SIZE, FIELD_LEAF_SIZE):
        _, d = build_index(pts, leaf_size=leaf).nearest_many(queries)
        differ = int((d.view(np.uint64) != oracle.view(np.uint64)).sum())
        assert differ == 0, f"leaf {leaf}: {differ} of {len(queries)} rows differ"


def test_translation_equivariance():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(500, 3))
    shift = np.array([12.3, -4.5, 6.7])
    q = rng.normal(size=3)
    _, d0 = _nearest(build_index(pts), q)
    _, d1 = _nearest(build_index(pts + shift), q + shift)
    assert d1 == pytest.approx(d0, abs=1e-9)


def test_tie_distance_deterministic():
    pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    _, d = _nearest(build_index(pts), [0.0, 0.0, 0.0])
    assert d == pytest.approx(1.0)


def test_index_accepts_cloud_and_arrays():
    pts = np.random.default_rng(10).normal(size=(64, 3))
    a = KdTree3(pts)
    b = KdTree3(PointCloud(pts, Frame.MAP))
    assert len(a) == len(b) == 64


def test_nearest_many_k2_returns_the_runner_up():
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 5, size=(2000, 3))
    queries = rng.uniform(-1, 6, size=(500, 3))
    won, d = build_index(pts).nearest_many(queries, k=2)
    assert won.shape == d.shape == (500, 2)
    assert np.array_equal(d[:, 0], brute_force_distances(pts, queries))
    assert (d[:, 1] >= d[:, 0]).all()
    assert np.array_equal(d[:, 1], np.sqrt(((queries - pts[won[:, 1]]) ** 2).sum(axis=1)))


def test_nearest_many_k2_on_a_one_point_index_has_an_infinite_runner_up():
    queries = np.random.default_rng(18).normal(size=(20, 3))
    index = build_index(np.array([[1.0, -2.0, 0.5]]))
    won, d = index.nearest_many(queries, k=2)
    one, d1 = index.nearest_many(queries)
    assert np.array_equal(won[:, 0], one) and np.array_equal(d[:, 0], d1)
    assert np.isinf(d[:, 1]).all()


def _walk_matches_fresh_queries(pts, queries, moves) -> None:
    """Move ``queries`` by each of ``moves`` in turn; before every move the
    reused answers must carry the bits of a fresh nearest_many call."""
    index = build_index(pts)
    held = None
    for move in [*moves, None]:
        winners, dist, held = nearest_moving(index, queries, held)
        fresh_won, fresh_dist = index.nearest_many(queries)
        assert np.array_equal(winners.view(np.uint64), index.points[fresh_won].view(np.uint64))
        assert np.array_equal(dist.view(np.uint64), fresh_dist.view(np.uint64))
        if move is not None:
            queries = queries + move


def test_nearest_moving_matches_fresh_queries_on_a_random_walk(tree_rows):
    rng = np.random.default_rng(14)
    pts = rng.uniform(0, 5, size=(3000, 3))
    queries = rng.uniform(-0.5, 5.5, size=(400, 3))
    # Steps shrink from a few centimetres to under a millimetre, as ICP's do.
    moves = [rng.normal(scale=0.05 * 0.7**i, size=queries.shape) for i in range(15)]
    _walk_matches_fresh_queries(pts, queries, moves)
    reused = sum(n for n, k in tree_rows if k == 2)
    assert 400 < reused < 16 * 400  # some rows were certified, some were not


def test_nearest_moving_ties_take_the_k1_winner(tree_rows):
    # Queries at cell centres and edge midpoints of a unit lattice are
    # equidistant from 8 and 2 map points. Each integer move, some of them
    # zero, is undone by the next, so the queries stay on those midpoints.
    rng = np.random.default_rng(15)
    pts = np.stack(np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    starts = rng.integers(1, 4, size=(300, 3)).astype(np.float64)
    starts[:150] += 0.5
    starts[150:, 0] += 0.5
    moves = []
    for _ in range(4):
        move = rng.integers(-1, 2, size=starts.shape).astype(np.float64)
        moves += [move, -move]
    _walk_matches_fresh_queries(pts, starts, moves)
    # Every call re-queried every tie with k=1: 9 walk calls and 9 fresh ones.
    assert sum(n for n, k in tree_rows if k == 1) == 2 * 9 * 300


def test_nearest_moving_on_a_one_point_map(tree_rows):
    rng = np.random.default_rng(16)
    queries = rng.normal(size=(50, 3))
    moves = [rng.normal(scale=0.5, size=queries.shape) for _ in range(5)]
    _walk_matches_fresh_queries(np.array([[1.0, -2.0, 0.5]]), queries, moves)
    # No runner-up: after the first call the winner always holds.
    assert sum(n for n, k in tree_rows) == 50 + 6 * 50


def test_nearest_moving_skips_the_tree_when_nothing_moved(tree_rows):
    rng = np.random.default_rng(17)
    index = build_index(rng.uniform(0, 5, size=(1000, 3)))
    queries = rng.uniform(0, 5, size=(200, 3))
    first = nearest_moving(index, queries)
    calls = len(tree_rows)
    again = nearest_moving(index, queries, first[2])
    assert len(tree_rows) == calls
    assert np.array_equal(again[0], first[0]) and np.array_equal(again[1], first[1])
