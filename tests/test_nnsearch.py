import numpy as np
import pytest

from dfloc.geometry import Frame, PointCloud
from dfloc.nnsearch import (
    FIELD_LEAF_SIZE,
    LEAF_SIZE,
    KdTree3,
    brute_force_distances,
    brute_force_nearest,
    build_index,
)


def test_single_point_tree():
    index = build_index(np.array([[1.0, 2.0, 3.0]]))
    p, d = index.nearest([4.0, 6.0, 3.0])
    assert np.allclose(p, [1.0, 2.0, 3.0])
    assert d == pytest.approx(5.0)


def test_cube_corners_zero_distance():
    corners = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    index = build_index(corners)
    for c in corners:
        _, d = index.nearest(c)
        assert d == 0.0


def test_empty_cloud_rejected():
    with pytest.raises(ValueError):
        build_index(np.empty((0, 3)))
    with pytest.raises(ValueError):
        brute_force_nearest(np.empty((0, 3)), [0.0, 0.0, 0.0])


def test_brute_force_pythagorean():
    _, d = brute_force_nearest(np.array([[0.0, 0.0, 0.0]]), [3.0, 4.0, 0.0])
    assert d == pytest.approx(5.0)


def test_tree_matches_brute_force_exactly():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 10, size=(10_000, 3))
    index = build_index(PointCloud(pts, Frame.MAP))
    queries = rng.uniform(-1, 11, size=(1000, 3))
    for q in queries:
        _, d_tree = index.nearest(q)
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


def test_translation_equivariance():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(500, 3))
    shift = np.array([12.3, -4.5, 6.7])
    q = rng.normal(size=3)
    _, d0 = build_index(pts).nearest(q)
    _, d1 = build_index(pts + shift).nearest(q + shift)
    assert d1 == pytest.approx(d0, abs=1e-9)


def test_tie_distance_deterministic():
    pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    _, d = build_index(pts).nearest([0.0, 0.0, 0.0])
    assert d == pytest.approx(1.0)


def test_index_accepts_cloud_and_arrays():
    pts = np.random.default_rng(10).normal(size=(64, 3))
    a = KdTree3(pts)
    b = KdTree3(PointCloud(pts, Frame.MAP))
    assert len(a) == len(b) == 64
