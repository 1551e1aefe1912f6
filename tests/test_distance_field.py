import io
import math
import struct
import sys
import tracemalloc
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from dfloc import distance_field, synth
from dfloc.distance_field import (
    GRID_MAGIC,
    GRID_VERSION,
    DfGrid,
    GridDimensionError,
    GridFileError,
    GridMagicError,
    GridSpec,
    GridTruncatedError,
    GridVersionError,
    build_grid,
    fit_cell_coeffs,
    load_grid,
    plan_grid,
    query_many,
    save_grid,
)
from dfloc.geometry import Frame, FrameError, PointCloud, Pose4, apply_pose, rotate_z
from dfloc.nnsearch import FIELD_LEAF_SIZE, brute_force_distances, build_index

_HEADER_SIZE = len(GRID_MAGIC) + struct.calcsize("<I3ddd3Q")

UNIT_CUBE = PointCloud(
    np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]),
    Frame.MAP,
)


def _corner_offsets(res):
    # x fastest, then y, then z
    return np.array(
        [[i * res, j * res, k * res] for k in (0, 1) for j in (0, 1) for i in (0, 1)]
    )


def _fit_corners(corners, res):
    # corners x fastest, then y, then z -> the one cell of a 2x2x2 [x, y, z] lattice
    lattice = np.asarray(corners, dtype=np.float64).reshape(2, 2, 2).transpose(2, 1, 0)
    return fit_cell_coeffs(lattice, res)[0, 0, 0]


def test_plan_grid_exact_tiling():
    spec = plan_grid(UNIT_CUBE, 0.5, margin=0.0)
    assert (spec.nx, spec.ny, spec.nz) == (2, 2, 2)
    assert np.allclose(spec.origin, [0.0, 0.0, 0.0])


def test_plan_grid_with_margin():
    spec = plan_grid(UNIT_CUBE, 0.5, margin=0.5)
    assert (spec.nx, spec.ny, spec.nz) == (4, 4, 4)
    assert np.allclose(spec.origin, [-0.5, -0.5, -0.5])


def test_plan_grid_degenerate_map():
    cloud = PointCloud(np.zeros((5, 3)), Frame.MAP)
    spec = plan_grid(cloud, 0.1, margin=0.0)
    assert (spec.nx, spec.ny, spec.nz) == (2, 2, 2)


def test_fit_constant_corners():
    coeffs = _fit_corners(np.full(8, 3.25), 0.5)
    assert coeffs[0] == pytest.approx(3.25)
    assert np.abs(coeffs[1:]).max() == 0.0


def test_fit_linear_in_x():
    res = 0.5
    corners = _corner_offsets(res)[:, 0]  # distance equals local x coordinate
    coeffs = _fit_corners(corners, res)
    assert coeffs[1] == pytest.approx(1.0)
    assert abs(coeffs[0]) < 1e-12 and np.abs(coeffs[2:]).max() < 1e-12


def test_fit_matches_linear_solve_oracle():
    rng = np.random.default_rng(11)
    res = 0.37
    offs = _corner_offsets(res)
    # design matrix of the trilinear basis at the 8 corners
    x, y, z = offs[:, 0], offs[:, 1], offs[:, 2]
    design = np.stack([np.ones(8), x, y, z, x * y, x * z, y * z, x * y * z], axis=1)
    for _ in range(50):
        corners = rng.uniform(0, 4, size=8)
        expected = np.linalg.solve(design, corners)
        got = _fit_corners(corners, res)
        assert np.abs(got - expected).max() < 1e-9


def test_corner_reconstruction(small_grid):
    rng = np.random.default_rng(12)
    spec = small_grid.spec
    offs = _corner_offsets(spec.resolution)
    for _ in range(100):
        i, j, k = (rng.integers(0, n) for n in (spec.nx, spec.ny, spec.nz))
        base = spec.origin + np.array([i, j, k]) * spec.resolution
        vals, _, inside = query_many(small_grid, base + offs)
        assert inside.all()
        stored = np.array(
            [small_grid.node_distances[i + di, j + dj, k + dk]
             for dk in (0, 1) for dj in (0, 1) for di in (0, 1)]
        )
        assert np.abs(vals - stored).max() < 1e-9


def test_single_point_map_node_distances():
    cloud = PointCloud(np.array([[1.0, 1.0, 1.0]]), Frame.MAP)
    spec = GridSpec(np.array([0.0, 0.0, 0.0]), 0.5, 4, 4, 4)
    grid = build_grid(cloud, spec)
    assert grid.node_distances[2, 2, 2] == 0.0
    assert grid.node_distances[3, 2, 2] == pytest.approx(0.5)
    assert grid.node_distances[3, 3, 2] == pytest.approx(0.5 * math.sqrt(2))


def test_node_exactness_small():
    rng = np.random.default_rng(13)
    cloud = PointCloud(rng.uniform(0, 3, size=(500, 3)), Frame.MAP)
    spec = plan_grid(cloud, 0.4, margin=0.5)
    grid = build_grid(cloud, spec)
    oracle = brute_force_distances(cloud, spec.node_coordinates())
    assert np.abs(grid.node_distances.ravel() - oracle).max() < 1e-9


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_build_independent_of_workers_and_slabs(monkeypatch, tmp_path):
    rng = np.random.default_rng(21)
    cloud = PointCloud(rng.uniform(0, 3, size=(300, 3)), Frame.MAP)
    spec = plan_grid(cloud, 0.25, margin=0.5)
    assert (spec.nx + 1) % 5 != 0
    plane = (spec.ny + 1) * (spec.nz + 1)
    reference = build_grid(cloud, spec, workers=1)
    oracle = brute_force_distances(cloud, spec.node_coordinates())
    assert _same_bits(reference.node_distances.ravel(), oracle)
    save_grid(reference, tmp_path / "reference.df")
    reference_bytes = (tmp_path / "reference.df").read_bytes()
    slots, rows = reference.band
    fit = distance_field._fit_cells
    fitted = []

    def spy(nodes, resolution, corner):
        fitted.append(np.size(corner))
        return fit(nodes, resolution, corner)

    monkeypatch.setattr(distance_field, "_fit_cells", spy)
    variants = [("workers=-1", distance_field.SLAB_NODES, -1), ("one plane", plane, 1),
                ("half a plane", plane // 2, -1), ("5 planes", 5 * plane, 1)]
    for name, slab, workers in variants:
        monkeypatch.setattr(distance_field, "SLAB_NODES", slab)
        grid = build_grid(cloud, spec, workers=workers)
        assert _same_bits(grid.node_distances, reference.node_distances), name
        save_grid(grid, tmp_path / f"{name}.df")
        assert (tmp_path / f"{name}.df").read_bytes() == reference_bytes, name
        # Each slab's band rows are one contiguous run, whatever the slab size.
        fitted.clear()
        loaded = load_grid(tmp_path / f"{name}.df")
        assert sum(fitted) == len(rows), f"{name}: the load fitted {sum(fitted)} cells for {len(rows)} band rows"
        for copy in (grid, loaded):
            assert np.array_equal(copy.band[0], slots) and _same_bits(copy.band[1], rows), name
        assert _same_bits(grid.coeffs, reference.coeffs), name
    # The lazily fitted table is the one-shot fit of the whole lattice, and a
    # materialized or loaded table saves to the same bytes as an untouched one.
    assert _same_bits(reference.coeffs, fit_cell_coeffs(reference.node_distances, spec.resolution))
    for name, grid in [("materialized", reference), ("loaded", load_grid(tmp_path / "reference.df"))]:
        save_grid(grid, tmp_path / f"{name}.df")
        assert (tmp_path / f"{name}.df").read_bytes() == reference_bytes, name


def _lattice_by_every_node(cloud, spec):
    """The lattice as a build that queries every node with k=1 fills it."""
    _, dist = build_index(cloud, leaf_size=FIELD_LEAF_SIZE).nearest_many(spec.node_coordinates())
    return dist.reshape(spec.nx + 1, spec.ny + 1, spec.nz + 1)


def _assert_same_bits_as_every_node_queried(grid, cloud):
    """Bitwise against the every-node pass and against the linear-scan oracle."""
    spec = grid.spec
    assert _same_bits(grid.node_distances, _lattice_by_every_node(cloud, spec))
    assert _same_bits(grid.node_distances.ravel(), brute_force_distances(cloud, spec.node_coordinates()))


@pytest.mark.parametrize("spacing", [1.0, 0.3])
def test_build_is_exact_where_nodes_tie(spacing):
    # Map points on a 6x6x6 lattice, nodes at half its spacing: every node
    # that is not a map point is an edge midpoint, face centre or cell centre
    # of the lattice, or lies beyond it, tied between 2 to 8 points. Node and
    # map coordinates are multiples of 0.15 and 0.3 in the second case, which
    # are not binary fractions, so there rounding breaks the ties.
    lattice = np.stack(np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    cloud = PointCloud(spacing * lattice, Frame.MAP)
    spec = GridSpec(np.full(3, -17 * spacing / 2), spacing / 2, 44, 44, 44)
    _assert_same_bits_as_every_node_queried(build_grid(cloud, spec), cloud)


def test_build_is_exact_on_a_line_of_nodes_equidistant_from_a_ring_of_points():
    # 12 map points on the circle of radius 0.5 around the x axis, at
    # (0.3, 0.4), (0.5, 0) and their mirror images: every node on that axis
    # is equidistant from all of them, but their squared coordinates round
    # differently, so which one a node's rounding favours changes along the axis.
    ring = [(a * sa, b * sb) for a, b in ((0.3, 0.4), (0.4, 0.3)) for sa in (1, -1) for sb in (1, -1)]
    ring += [(0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)]
    cloud = PointCloud(np.array([(0.0, y, z) for y, z in ring]), Frame.MAP)
    spec = GridSpec(np.full(3, -3.2), 0.1, 64, 64, 64)
    _assert_same_bits_as_every_node_queried(build_grid(cloud, spec), cloud)


def test_build_is_exact_on_a_map_with_duplicate_points():
    # A point and its copy tie wherever they win, so no node they win is certified.
    scene = synth.make_scene("box_room", 4.0, 30.0, seed=5)
    pts = scene.map.points
    cloud = PointCloud(np.vstack([pts, pts[::3], pts[::7]]), Frame.MAP)
    spec = plan_grid(cloud, 0.15, margin=1.0)
    _assert_same_bits_as_every_node_queried(build_grid(cloud, spec), cloud)


def test_box_room_build_queries_under_half_of_its_nodes(tree_rows):
    scene = synth.make_scene("box_room", 4.0, 30.0, seed=3)
    spec = plan_grid(scene.map, 0.1, margin=1.0)
    grid = build_grid(scene.map, spec)
    queried = sum(n for n, _ in tree_rows)
    assert queried < grid.node_distances.size / 2, f"{queried} tree rows for {grid.node_distances.size} nodes"
    _assert_same_bits_as_every_node_queried(grid, scene.map)


def test_first_queries_from_many_threads_match_one_thread():
    # Four threads race to fit a fresh grid's table on first use.
    rng = np.random.default_rng(23)
    cloud = PointCloud(rng.uniform(0, 3, size=(300, 3)), Frame.MAP)
    spec = plan_grid(cloud, 0.1, margin=0.5)
    pts = rng.uniform(spec.origin - 0.2, spec.upper + 0.2, size=(5000, 3))
    value, grad, inside = query_many(build_grid(cloud, spec), pts)
    fresh = build_grid(cloud, spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(query_many, fresh, pts) for _ in range(4)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got_value, got_grad, got_inside in results:
        assert _same_bits(got_value, value) and _same_bits(got_grad, grad)
        assert np.array_equal(got_inside, inside)


def test_node_coordinates_x_range_matches_full_lattice():
    spec = GridSpec(np.array([-1.3, 0.7, 2.1]), 0.37, 6, 3, 4)
    full = spec.node_coordinates()
    plane = (spec.ny + 1) * (spec.nz + 1)
    assert full.shape == ((spec.nx + 1) * plane, 3)
    for x0, x1 in ((0, 1), (2, 5), (4, 7)):
        assert _same_bits(spec.node_coordinates(x0, x1), full[x0 * plane : x1 * plane])


def _build_and_save_peak(cloud, spec, path):
    """Peak traced bytes of building and saving a grid, and the grid."""
    tracemalloc.start()
    try:
        grid = build_grid(cloud, spec)
        save_grid(grid, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, grid


def test_build_memory_bounded(tmp_path):
    # 1.03 M nodes, many build slabs. A build and save that hold only the
    # node lattice and one slab peak near 2x the lattice; one that also
    # holds the whole coefficient table peaks near 10x.
    rng = np.random.default_rng(22)
    cloud = PointCloud(rng.uniform(0, 1, size=(200, 3)), Frame.MAP)
    spec = GridSpec(np.zeros(3), 0.01, 100, 100, 100)
    assert (spec.nx + 1) * (spec.ny + 1) * (spec.nz + 1) > 3 * distance_field.SLAB_NODES
    peak, grid = _build_and_save_peak(cloud, spec, tmp_path / "grid.df")
    nodes = grid.node_distances.nbytes
    assert peak < 2.5 * nodes, f"peak {peak / 1e6:.1f} MB for {nodes / 1e6:.1f} MB of nodes"


def test_build_memory_bounded_on_a_surface_map(tmp_path):
    # 1.19 M nodes. A random volume cloud certifies few nodes; around a
    # room's walls most nodes are filled between certified planes instead.
    scene = synth.make_scene("box_room", 4.0, 30.0, seed=3)
    spec = plan_grid(scene.map, 0.05, margin=1.0)
    assert (spec.nx + 1) * (spec.ny + 1) * (spec.nz + 1) > 3 * distance_field.SLAB_NODES
    peak, grid = _build_and_save_peak(scene.map, spec, tmp_path / "grid.df")
    nodes = grid.node_distances.nbytes
    assert peak < 2.5 * nodes, f"peak {peak / 1e6:.1f} MB for {nodes / 1e6:.1f} MB of nodes"


class _FailsAfterTheHeader(io.BufferedWriter):
    """A file whose writes fail once the header is in."""

    def write(self, data):
        if self.tell() >= _HEADER_SIZE:
            raise OSError("simulated failure mid-save")
        return super().write(data)


def test_save_grid_replaces_the_file_atomically(monkeypatch, tmp_path, small_scene):
    spec = plan_grid(small_scene.map, 0.25, margin=0.5)
    path = tmp_path / "grid.df"
    save_grid(build_grid(small_scene.map, spec), path)
    good = path.read_bytes()
    opened = []

    def failing_open(file, mode):
        opened.append(_FailsAfterTheHeader(io.FileIO(file, mode)))
        return opened[-1]

    monkeypatch.setattr(distance_field, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="mid-save"):
        save_grid(build_grid(small_scene.map, spec), path)
    assert len(opened) == 1 and opened[0].closed
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["grid.df"]


def test_build_requires_map_frame():
    cloud = PointCloud(np.zeros((4, 3)), Frame.BODY)
    with pytest.raises(FrameError):
        build_grid(cloud, GridSpec(np.zeros(3), 0.5, 2, 2, 2))


def test_query_at_nodes_returns_stored_values(small_grid):
    spec = small_grid.spec
    nodes = spec.node_coordinates()
    rng = np.random.default_rng(14)
    pick = rng.choice(len(nodes), size=500, replace=False)
    vals, _, inside = query_many(small_grid, nodes[pick])
    assert inside.all()
    assert np.abs(vals - small_grid.node_distances.ravel()[pick]).max() < 1e-9


def test_query_outside_grid_is_max_distance(small_grid):
    value, grad, inside = query_many(small_grid, small_grid.spec.origin - 1.0)
    assert value == small_grid.max_distance and not inside and np.abs(grad).max() == 0.0


def test_query_on_upper_boundary_is_inside(small_grid):
    _, _, inside = query_many(small_grid, small_grid.spec.upper)
    assert inside


def test_gradient_matches_finite_differences(small_grid):
    rng = np.random.default_rng(15)
    spec = small_grid.spec
    h = 1e-6
    count = 0
    while count < 1000:
        p = rng.uniform(spec.origin + 0.01, spec.upper - 0.01)
        local = (p - spec.origin) / spec.resolution
        frac = local - np.floor(local)
        if (frac * spec.resolution < 1e-4).any() or ((1 - frac) * spec.resolution < 1e-4).any():
            continue
        count += 1
        _, grad, _ = query_many(small_grid, p)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            fd = (query_many(small_grid, p + e)[0] - query_many(small_grid, p - e)[0]) / (2 * h)
            assert abs(grad[axis] - fd) < 1e-5


def test_interpolation_error_bound(small_scene, small_grid):
    rng = np.random.default_rng(16)
    spec = small_grid.spec
    pts = rng.uniform(spec.origin, spec.upper, size=(2000, 3))
    vals, _, inside = query_many(small_grid, pts)
    assert inside.all()
    truth = brute_force_distances(small_scene.map, pts)
    err = np.abs(vals - truth)
    assert err.max() <= spec.resolution * math.sqrt(3.0)


def test_field_lipschitz_on_lattice(small_grid):
    res = small_grid.spec.resolution
    bound = res * math.sqrt(3.0) + 1e-9
    nd = small_grid.node_distances
    for axis in range(3):
        diff = np.abs(np.diff(nd, axis=axis))
        assert diff.max() <= bound


def test_face_continuity(small_grid):
    rng = np.random.default_rng(17)
    spec = small_grid.spec
    res = spec.resolution
    for _ in range(200):
        i = rng.integers(1, spec.nx)  # interior face x = origin + i*res
        y = rng.uniform(spec.origin[1], spec.upper[1])
        z = rng.uniform(spec.origin[2], spec.upper[2])
        x = spec.origin[0] + i * res
        p = np.array([x, y, z])
        # evaluate via both adjacent cells by nudging the lookup index only
        left = _eval_in_cell(small_grid, p, np.array([i - 1, None, None]))
        right = _eval_in_cell(small_grid, p, np.array([i, None, None]))
        assert left == pytest.approx(right, abs=1e-9)


def _eval_in_cell(grid, p, forced):
    spec = grid.spec
    rel = (p - spec.origin) / spec.resolution
    idx = np.floor(rel).astype(int)
    idx = np.minimum(idx, spec.counts - 1)
    for a, f in enumerate(forced):
        if f is not None:
            idx[a] = f
    local = p - (spec.origin + idx * spec.resolution)
    c = grid.coeffs[idx[0], idx[1], idx[2]]
    x, y, z = local
    return (
        c[0] + c[1] * x + c[2] * y + c[3] * z
        + c[4] * x * y + c[5] * x * z + c[6] * y * z + c[7] * x * y * z
    )


def test_non_negative_everywhere(small_grid):
    rng = np.random.default_rng(18)
    spec = small_grid.spec
    pts = rng.uniform(spec.origin - 1, spec.upper + 1, size=(5000, 3))
    vals, _, _ = query_many(small_grid, pts)
    assert vals.min() >= 0.0


@pytest.fixture(scope="module")
def rotated_room():
    # Walls at 30 degrees to the lattice axes, unlike every other test room.
    scene = synth.make_scene("box_room", 6.0, 30.0, seed=7)
    cloud = PointCloud(rotate_z(math.radians(30.0), scene.map.points), Frame.MAP)
    return cloud, build_grid(cloud, plan_grid(cloud, 0.1, margin=0.3))


def test_build_is_exact_on_walls_across_the_lattice_axes(rotated_room):
    # The Voronoi-segment fill does least where walls run along lattice axes,
    # as in every other build test map; here they run at 30 degrees. The
    # oracle checks a seeded sample: all 293 k nodes would take seconds.
    cloud, grid = rotated_room
    spec = grid.spec
    assert _same_bits(grid.node_distances, _lattice_by_every_node(cloud, spec))
    sample = np.random.default_rng(11).choice(grid.node_distances.size, 5000, replace=False)
    oracle = brute_force_distances(cloud, spec.node_coordinates()[sample])
    assert _same_bits(grid.node_distances.ravel()[sample], oracle)


def _fit_by_hand(nodes, res):
    """The closed-form fit with every coefficient written out, additions in their order."""
    d = nodes
    d000, d100, d010, d110 = d[:-1, :-1, :-1], d[1:, :-1, :-1], d[:-1, 1:, :-1], d[1:, 1:, :-1]
    d001, d101, d011, d111 = d[:-1, :-1, 1:], d[1:, :-1, 1:], d[:-1, 1:, 1:], d[1:, 1:, 1:]
    r2, r3 = res * res, res * res * res
    return np.stack([
        d000,
        (d100 - d000) / res,
        (d010 - d000) / res,
        (d001 - d000) / res,
        (d110 - d100 - d010 + d000) / r2,
        (d101 - d100 - d001 + d000) / r2,
        (d011 - d010 - d001 + d000) / r2,
        (d111 - d110 - d101 - d011 + d100 + d010 + d001 - d000) / r3,
    ], axis=-1)


def _cells(spec, pts):
    """Each point's cell indices, with the upper boundary folded into the last cell, and the
    in-volume mask."""
    r = (np.asarray(pts, dtype=np.float64) - spec.origin) / spec.resolution
    inside = ((r >= 0.0) & (r <= spec.counts)).all(axis=-1)
    return np.clip(np.floor(r), 0, spec.counts - 1).astype(np.int64), inside


def _query_by_table(table, spec, max_distance, pts):
    """query_many as it was when a grid held its whole coefficient table."""
    pts = np.asarray(pts, dtype=np.float64)
    cell, inside = _cells(spec, pts)
    res = spec.resolution
    c0, c1, c2, c3, c4, c5, c6, c7 = np.moveaxis(table[cell[..., 0], cell[..., 1], cell[..., 2]], -1, 0)
    x, y, z = (pts[..., a] - (spec.origin[a] + cell[..., a] * res) for a in range(3))
    t2 = c2 + c4 * x
    t4 = c6 + c7 * x
    gz = (c3 + c5 * x) + y * t4
    value = c0 + c1 * x + y * t2 + z * gz
    gy = t2 + z * t4
    gx = c1 + y * c4 + z * (c5 + y * c7)
    grad = np.stack([gx, gy, gz], axis=-1)
    return np.where(inside, value, max_distance), np.where(inside[..., None], grad, 0.0), inside


def _identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_queries_keep_the_bits(grid, table, pts):
    want = _query_by_table(table, grid.spec, grid.max_distance, pts)
    if pts.ndim == 1:
        assert all(_identical(a, b) for a, b in zip(want, query_many(grid, pts)))
        return
    assert all(_identical(a, b) for a, b in zip(want, query_many(grid, pts)))
    columns = distance_field.query_columns(grid, pts[:, 0], pts[:, 1], pts[:, 2])
    assert all(_identical(a, b) for a, b in zip((want[0], *np.moveaxis(want[1], -1, 0), want[2]), columns))


def test_band_queries_keep_the_bits_of_the_whole_table(tmp_path, rotated_room):
    # Poses offset 0-1 m from the map put queries in the band, out of it and
    # off the volume. A grid fitting its band and a loaded one both answer as
    # the gather from the whole table did, bit for bit.
    cloud, grid = rotated_room
    spec = grid.spec
    table = fit_cell_coeffs(grid.node_distances, spec.resolution)
    assert _same_bits(table, _fit_by_hand(grid.node_distances, spec.resolution))
    rng = np.random.default_rng(31)
    surface = cloud.points[rng.choice(len(cloud), 2000, replace=False)]
    scans = []
    for k, offset in enumerate((0.0, 0.05, 0.15, 0.3, 0.6, 1.0)):
        direction = rng.normal(size=3)
        t = offset * direction / np.linalg.norm(direction)
        scans.append(apply_pose(Pose4(*t, 0.01 * k), surface) + rng.normal(0.0, 0.02, surface.shape))
    pts = np.concatenate(scans)
    cell, inside = _cells(spec, pts)
    slots, _ = grid.band
    in_band = slots.reshape(grid.node_distances.shape)[cell[:, 0], cell[:, 1], cell[:, 2]] >= 0
    kinds = (in_band & inside, ~in_band & inside, ~inside)
    assert kinds[0].sum() > 1000 and kinds[1].sum() > 1000 and kinds[2].sum() > 100
    singles = [pts[np.flatnonzero(m)[j]] for m in kinds for j in range(5)]
    save_grid(grid, tmp_path / "fit.df")
    for case, g in [("fitted", grid), ("loaded", load_grid(tmp_path / "fit.df"))]:
        far = np.array([spec.origin - 1e3, spec.upper + 1e3, spec.origin + [-1e3, 0.0, 1e3]])
        for scan in scans + singles + [far, np.empty((0, 3))]:
            _assert_queries_keep_the_bits(g, table, scan)
        assert _same_bits(g.coeffs, table), case


def test_load_keeps_the_band_not_the_table(tmp_path):
    # A 0.1 m grid of a 10 m room, the tracking benchmark's geometry. The loader
    # holds the nodes, one slot per node, the band's rows and the fit of one
    # slab's band cells at a time, never the whole table.
    scene = synth.make_scene("box_room", 10.0, 30.0, seed=3)
    spec = plan_grid(scene.map, 0.1, margin=1.0)
    path = tmp_path / "grid.df"
    save_grid(build_grid(scene.map, spec), path)
    tracemalloc.start()
    try:
        grid = load_grid(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = spec.nx * spec.ny * spec.nz
    table = 64 * cells
    assert len(grid.band[1]) <= 0.3 * cells
    assert peak < table / 2, f"peak {peak / 1e6:.1f} MB for a {table / 1e6:.1f} MB table"


def test_save_load_round_trip(tmp_path, small_grid):
    path = tmp_path / "grid.df"
    save_grid(small_grid, path)
    loaded = load_grid(path)
    assert loaded.spec.resolution == small_grid.spec.resolution
    assert loaded.spec.margin == small_grid.spec.margin
    assert np.array_equal(loaded.spec.origin, small_grid.spec.origin)
    assert (loaded.spec.nx, loaded.spec.ny, loaded.spec.nz) == (
        small_grid.spec.nx, small_grid.spec.ny, small_grid.spec.nz)
    assert np.array_equal(loaded.node_distances, small_grid.node_distances)
    assert np.array_equal(loaded.coeffs, small_grid.coeffs)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.df"
    path.write_bytes(b"NOTAGRID" + b"\0" * 64)
    with pytest.raises(GridMagicError):
        load_grid(path)


def test_load_rejects_bad_version(tmp_path, small_grid):
    # Version 1 also stored the coefficient table. A .df file is derived from
    # its map, so an old or unknown one is rebuilt, not read.
    path = tmp_path / "version.df"
    save_grid(small_grid, path)
    good = path.read_bytes()
    for version in (1, 9):
        raw = bytearray(good)
        struct.pack_into("<I", raw, len(GRID_MAGIC), version)
        path.write_bytes(bytes(raw))
        with pytest.raises(GridVersionError, match="build-df"):
            load_grid(path)


def test_load_rejects_truncated_payload(tmp_path, small_grid):
    path = tmp_path / "trunc.df"
    save_grid(small_grid, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(GridTruncatedError):
        load_grid(path)
    path.write_bytes(raw + b"\0" * 8)
    with pytest.raises(GridTruncatedError):
        load_grid(path)


def _rewrite_node(path, index, value, checksum):
    """Store ``value`` as node ``index`` (flat) of the grid file at ``path``; with
    ``checksum``, recompute the CRC-32 so that it covers the new bytes."""
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, _HEADER_SIZE + 8 * index, value)
    if checksum:
        struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(raw[:-4]))
    path.write_bytes(bytes(raw))


def test_load_rejects_non_finite_node_distance(tmp_path, small_grid):
    # A NaN node under a valid checksum: the content itself is refused.
    path = tmp_path / "nan.df"
    save_grid(small_grid, path)
    _rewrite_node(path, small_grid.node_distances.size // 2, math.nan, checksum=True)
    with pytest.raises(GridFileError, match="node distances must be finite"):
        load_grid(path)


def test_load_rejects_a_node_that_does_not_match_the_checksum(tmp_path):
    spec = plan_grid(UNIT_CUBE, 0.5, margin=0.5)
    nodes = build_grid(UNIT_CUBE, spec).node_distances
    path = tmp_path / "ulp.df"
    save_grid(DfGrid(spec, nodes), path)
    index = np.ravel_multi_index((1, 2, 3), nodes.shape)
    _rewrite_node(path, index, np.nextafter(nodes[1, 2, 3], math.inf), checksum=False)  # one ulp off, still finite
    with pytest.raises(GridFileError, match="checksum"):
        load_grid(path)


@pytest.mark.parametrize(
    "field, value",
    [("resolution", math.inf), ("margin", math.nan), ("margin", math.inf)],
)
def test_load_rejects_non_finite_header_scalar(tmp_path, small_grid, field, value):
    # Header layout: version u32, origin 3 x f64, resolution f64, margin f64.
    offset = struct.calcsize("<I3d") if field == "resolution" else struct.calcsize("<I3dd")
    path = tmp_path / "header.df"
    save_grid(small_grid, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, len(GRID_MAGIC) + offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(GridFileError, match=field):
        load_grid(path)


def test_plan_grid_rejects_infinite_resolution():
    with pytest.raises(ValueError, match="resolution"):
        plan_grid(UNIT_CUBE, math.inf)


def test_load_reads_no_more_than_the_header_implies(tmp_path):
    # Trailing bytes are read only as far as needed to see they are there.
    path = tmp_path / "trailing.df"
    save_grid(build_grid(UNIT_CUBE, plan_grid(UNIT_CUBE, 0.5, 0.0)), path)
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size + (64 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(GridTruncatedError):
            load_grid(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("cut", ["nodes", "checksum"])
def test_load_refuses_a_file_that_shrinks_while_it_is_read(monkeypatch, tmp_path, small_grid, cut):
    # The size check sees the size the file had; the payload then runs short,
    # in the node lattice or in the checksum.
    path = tmp_path / "grid.df"
    save_grid(small_grid, path)
    size = path.stat().st_size
    header = _HEADER_SIZE
    keep = header + 64 if cut == "nodes" else size - 2
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    monkeypatch.setattr(distance_field.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
    with pytest.raises(GridTruncatedError, match=f"payload is {keep - header} bytes"):
        load_grid(path)


def test_load_refuses_a_payload_larger_than_the_file(tmp_path):
    # 140 bytes whose header claims 1999^3 cells: within MAX_NODES, but the
    # payload it implies is about 575 GB, so no read may be sized by it.
    path = tmp_path / "huge.df"
    header = GRID_MAGIC + struct.pack("<I3ddd3Q", GRID_VERSION, 0.0, 0.0, 0.0, 0.1, 0.0, 1999, 1999, 1999)
    path.write_bytes(header.ljust(140, b"\0"))
    with pytest.raises(GridTruncatedError, match="header implies"):
        load_grid(path)


@pytest.mark.parametrize("resolution", [0.004, 1e-20])
def test_plan_grid_refuses_more_than_max_nodes(resolution):
    # A 10 x 10 x 5 m map with a 1 m margin at 4 mm needs 3000 x 3000 x 1750
    # cells: 15.8 G nodes, about 1.1 TB of arrays. At 1e-20 m the counts do
    # not fit in int64.
    corners = PointCloud(np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 5.0]]), Frame.MAP)
    with pytest.raises(GridDimensionError, match="exceed"):
        plan_grid(corners, resolution, margin=1.0)


def test_plan_grid_refuses_cell_counts_that_overflow_without_a_warning():
    # The span over the resolution, or the span itself, overflows float64.
    corners = PointCloud(np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 5.0]]), Frame.MAP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridDimensionError, match="exceed"):
            plan_grid(corners, 1e-320, margin=1.0)
        with pytest.raises(GridDimensionError, match="exceed"):
            plan_grid(corners, 0.1, margin=1e308)


def test_load_rejects_dimension_overflow(tmp_path, small_grid):
    path = tmp_path / "dims.df"
    save_grid(small_grid, path)
    raw = bytearray(path.read_bytes())
    offset = len(GRID_MAGIC) + struct.calcsize("<I3ddd")
    struct.pack_into("<3Q", raw, offset, 1 << 40, 1 << 40, 1 << 40)
    path.write_bytes(bytes(raw))
    with pytest.raises(GridDimensionError):
        load_grid(path)


def test_grid_validates_shapes():
    spec = GridSpec(np.zeros(3), 0.5, 2, 2, 2)
    with pytest.raises(ValueError):
        DfGrid(spec, np.zeros((3, 3, 3)), np.zeros((2, 2, 2, 7)))
    with pytest.raises(ValueError):
        DfGrid(spec, -np.ones((3, 3, 3)), np.zeros((2, 2, 2, 8)))
    for bad in (math.nan, math.inf, -math.inf):
        coeffs = np.zeros((2, 2, 2, 8))
        coeffs[1, 0, 1, 5] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            DfGrid(spec, np.zeros((3, 3, 3)), coeffs)
