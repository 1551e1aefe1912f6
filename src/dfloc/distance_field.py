"""Distance-field grid: build, trilinear query with analytic gradient, file io.

The field stores, on a fixed-resolution voxel lattice, the exact distance
from each lattice node to the closest map point. Each cell's 8 corner
nodes determine the 8 coefficients of the trilinear polynomial

    f(x, y, z) = a0 + a1*x + a2*y + a3*z + a4*x*y + a5*x*z + a6*y*z + a7*x*y*z

expressed in cell-local metric coordinates (origin at the cell's minimum
corner, offsets in meters within [0, resolution]). The polynomial
reproduces the 8 corner distances exactly and provides the analytic
gradient the registration solver consumes.

A query outside the grid volume does not raise: it returns the grid's
largest node distance (``DfGrid.max_distance``), gradient 0 and
inside=False. ``query_columns`` applies this one policy for every caller,
so the registration residual charges an off-volume point no less than
any in-volume one and moving points off the map never lowers its cost.
"""

from __future__ import annotations

import math
import os
import struct
import uuid
import zlib
from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property

import numpy as np

from .geometry import Frame, FrameError, PointCloud
from .nnsearch import FIELD_LEAF_SIZE, build_index, certified_nearest, exact_distance

GRID_MAGIC = b"DFGRID1\n"
GRID_VERSION = 2

# Largest lattice, in nodes, that a grid may have when planned or loaded.
MAX_NODES = 1 << 33

# Lattice nodes per slab (whole x planes, at least one) of a build or a fit.
# Their peak memory is the node lattice plus the working arrays of one slab.
SLAB_NODES = 1 << 16

# A cell keeps a coefficient row when its smallest corner distance is at most
# this many times the resolution; a query of any other cell fits it from its
# 8 nodes.
# Registration queries lie near the surface: within sensor noise once a scan
# is aligned, within the odometry error before. At 2 cells the band is about
# a sixth of a 0.1 m room grid's cells and takes 97.5 % of the tracking
# benchmark's queries; a wider band costs memory for little speed (see
# CHANGES.md for the measurements).
BAND_CELLS = 2

# Strides, in lattice nodes, of the planes a build queries, coarse to fine.
FILL_STRIDES = (32, 16, 8, 4, 2)
# A lattice node whose winner is not known yet, during a build.
_UNKNOWN = -1.0


class GridFileError(ValueError):
    """Malformed distance-field grid file."""


class GridMagicError(GridFileError):
    """File does not start with the grid magic bytes."""


class GridVersionError(GridFileError):
    """Grid file version is not supported."""


class GridTruncatedError(GridFileError):
    """File size is inconsistent with the header counts."""


class GridDimensionError(GridFileError):
    """GridSpec cell counts below 2 per axis or above ``MAX_NODES`` lattice nodes."""


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the voxel grid: minimum corner, cell edge, cell counts."""

    origin: np.ndarray
    resolution: float
    nx: int
    ny: int
    nz: int
    margin: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.resolution < math.inf:
            raise ValueError(f"resolution must be positive and finite, got {self.resolution}")
        if not 0.0 <= self.margin < math.inf:
            raise ValueError(f"margin must be non-negative and finite, got {self.margin}")
        origin = np.asarray(self.origin, dtype=np.float64).reshape(3).copy()
        if not np.isfinite(origin).all():
            raise ValueError("grid origin must be finite")
        origin.setflags(write=False)
        object.__setattr__(self, "origin", origin)
        counts = (self.nx, self.ny, self.nz)
        if min(counts) < 2:
            raise GridDimensionError(f"grids need at least 2 cells per axis, got {counts}")
        if math.prod(int(n) + 1 for n in counts) > MAX_NODES:
            raise GridDimensionError(f"cell counts {counts} exceed the supported {MAX_NODES} nodes")

    @property
    def counts(self) -> np.ndarray:
        return np.array([self.nx, self.ny, self.nz])

    @cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Node coordinates along x, y and z, ``origin[a] + resolution * i`` for i in 0..n: the one
        expression of a node's position, which the build and every query read."""
        axes = tuple(self.origin[a] + self.resolution * np.arange(n + 1) for a, n in enumerate(self.counts))
        for axis in axes:
            axis.setflags(write=False)
        return axes

    @property
    def upper(self) -> np.ndarray:
        """Maximum corner of the grid volume."""
        return np.array([axis[-1] for axis in self.axes])

    def node_coordinates(self, x_start: int = 0, x_stop: int | None = None) -> np.ndarray:
        """Lattice node positions of the x planes [x_start, x_stop), all by default.

        Shape ((x_stop-x_start)*(ny+1)*(nz+1), 3) in ij order (z varies
        fastest). A node's coordinates do not depend on the range asked for.
        """
        ax, ay, az = self.axes
        mesh = np.meshgrid(ax[x_start:x_stop], ay, az, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, 3)


def _slabs(spec: GridSpec, planes: int) -> list[tuple[int, int]]:
    """[start, stop) ranges that split ``planes`` x planes into slabs of ``SLAB_NODES`` nodes."""
    step = max(1, SLAB_NODES // ((spec.ny + 1) * (spec.nz + 1)))
    return [(x0, min(x0 + step, planes)) for x0 in range(0, planes, step)]


@dataclass(frozen=True)
class DfGrid:
    """Built distance field: node lattice plus the trilinear coefficients of the cells near the surface.

    node_distances has shape (nx+1, ny+1, nz+1). A cell's coefficients are
    the fit of its 8 nodes (``_fit_cells``). ``band`` holds them for the
    cells near the surface: ``(slots, rows)``, with one int32 slot per
    lattice node and a row for each cell in the band (smallest corner
    distance at most ``BAND_CELLS`` times the resolution), in lattice order.
    A cell's slot, at its minimum corner, is the index of its row or -1. The
    band, and no other cell, is fitted on first access; ``load_grid`` fits
    it before it returns. ``coeffs`` assembles and keeps the whole table on
    request; queries never ask for it. ``table`` stays for callers that
    pass one, such as the benchmark's corrupted-file self-test: it must
    have shape (nx, ny, nz, 8) and be finite, and the grid keeps none of
    its values. Everything is read-only, so a grid can serve any number of
    concurrent queries; racing first accesses at worst fit the band twice.
    ``max_distance`` is the largest node distance, an upper bound of the
    field inside the volume.
    """

    spec: GridSpec
    node_distances: np.ndarray
    table: InitVar[np.ndarray | None] = None
    max_distance: float = field(init=False, repr=False)

    def __post_init__(self, table):
        nodes = np.ascontiguousarray(np.asarray(self.node_distances, dtype=np.float64))
        expect_nodes = (self.spec.nx + 1, self.spec.ny + 1, self.spec.nz + 1)
        if nodes.shape != expect_nodes:
            raise ValueError(f"node lattice shape {nodes.shape} != {expect_nodes}")
        lo, hi = nodes.min(), nodes.max()  # NaN if any node is NaN
        if not 0.0 <= lo <= hi < math.inf:
            raise ValueError("node distances must be finite and non-negative")
        nodes.setflags(write=False)
        object.__setattr__(self, "node_distances", nodes)
        object.__setattr__(self, "max_distance", float(hi))
        if table is not None:
            coeffs = np.asarray(table, dtype=np.float64)
            expect_cells = (self.spec.nx, self.spec.ny, self.spec.nz, 8)
            if coeffs.shape != expect_cells:
                raise ValueError(f"coefficient array shape {coeffs.shape} != {expect_cells}")
            if not -math.inf < coeffs.min() <= coeffs.max() < math.inf:  # NaN fails
                raise ValueError("cell coefficients must be finite")

    @cached_property
    def band(self) -> tuple[np.ndarray, np.ndarray]:
        return _band(self.spec, self.node_distances)

    @cached_property
    def coeffs(self) -> np.ndarray:
        spec = self.spec
        table = np.empty((spec.nx, spec.ny, spec.nz, 8))
        for c0, c1 in _slabs(spec, spec.nx):
            table[c0:c1] = fit_cell_coeffs(self.node_distances[c0 : c1 + 1], spec.resolution)
        table.setflags(write=False)
        return table


def _band(spec: GridSpec, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A grid's ``(slots, rows)``: the fit of its nodes for each cell in the band, and for no other.

    Slots count up in lattice order, so each slab's rows are one run. Holds
    the nodes, the slots, the rows and one slab's working arrays.
    """
    slabs = _slabs(spec, spec.nx)
    # A row index fits int32 unless the grid has 2**31 cells or more.
    dtype = np.int32 if spec.nx * spec.ny * spec.nz < 1 << 31 else np.int64
    slots = np.full(nodes.size, -1, dtype=dtype)
    lattice = slots.reshape(nodes.shape)
    reach = BAND_CELLS * spec.resolution
    count = 0
    for c0, c1 in slabs:
        low = np.minimum(nodes[c0:c1], nodes[c0 + 1 : c1 + 1])
        low = np.minimum(low[:, :-1], low[:, 1:])
        near = np.minimum(low[:, :, :-1], low[:, :, 1:]) <= reach
        n = int(np.count_nonzero(near))
        lattice[c0:c1, :-1, :-1][near] = np.arange(count, count + n)
        count += n
    rows = np.empty((count, 8))
    start = 0
    for c0, c1 in slabs:
        corner = c0 * lattice[0].size + np.flatnonzero(lattice[c0:c1] >= 0)  # flat, on the whole lattice
        rows[start : start + corner.size] = _fit_cells(nodes, spec.resolution, corner)
        start += corner.size
    slots.setflags(write=False)
    rows.setflags(write=False)
    return slots, rows


def plan_grid(cloud: PointCloud, resolution: float = 0.05, margin: float = 1.0) -> GridSpec:
    """Choose a grid covering the map bounding box plus ``margin`` on every side.

    The origin is the padded bounding-box minimum; cell counts are the
    smallest that cover the padded box, never below 2 per axis (a
    degenerate single-point map still yields a valid 2x2x2 grid). The
    defaults are those of ``dfloc build-df``.
    """
    if len(cloud) == 0:
        raise ValueError("cannot plan a grid for an empty map")
    lo = cloud.points.min(axis=0) - margin
    hi = cloud.points.max(axis=0) + margin
    # The smallest spec checks resolution and margin before they divide.
    spec = GridSpec(lo, float(resolution), 2, 2, 2, float(margin))
    # The 1e-9 slack keeps exact tilings (span an integer multiple of the
    # resolution) from picking up a spurious extra cell.
    with np.errstate(over="ignore"):  # an infinite count is refused below
        cells = np.maximum(2.0, np.ceil((hi - lo) / spec.resolution - 1e-9))
    if not np.isfinite(cells).all():
        raise GridDimensionError(f"cell counts {tuple(cells.tolist())} exceed the supported {MAX_NODES} nodes")
    nx, ny, nz = (int(n) for n in cells)
    return replace(spec, nx=nx, ny=ny, nz=nz)


def fit_cell_coeffs(nodes, resolution: float) -> np.ndarray:
    """Closed-form trilinear coefficients of every cell of a node lattice.

    ``nodes`` holds distances on an (a + 1, b + 1, c + 1) lattice indexed
    [x, y, z]; the result has shape (a, b, c, 8), in cell-local metric
    coordinates. Cell (i, j, k) is fitted from the 8 nodes at
    (i + di, j + dj, k + dk) for di, dj, dk in {0, 1}, by ``_fit_cells``.
    """
    d = np.asarray(nodes, dtype=np.float64)
    if d.ndim != 3:
        raise ValueError(f"expected a 3-D node lattice, got shape {d.shape}")
    corner = np.arange(d.size).reshape(d.shape)[:-1, :-1, :-1]
    return _fit_cells(d, resolution, corner.ravel()).reshape(corner.shape + (8,))


def _fit_cells(nodes: np.ndarray, resolution: float, corner) -> np.ndarray:
    """Trilinear coefficients, shape (N, 8), of the cells of the (a + 1, b + 1, c + 1) lattice
    ``nodes`` whose minimum corners are ``corner`` (N flat indices); the one copy of the fit."""
    _, ny, nz = nodes.shape
    offsets = np.array([[x * ny * nz + y * nz + z] for z in (0, 1) for y in (0, 1) for x in (0, 1)])
    d000, d100, d010, d110, d001, d101, d011, d111 = np.take(nodes, offsets + corner)  # x fastest
    r = float(resolution)
    r2, r3 = r * r, r * r * r
    out = np.empty((8, d000.size))
    out[0] = d000
    out[1] = (d100 - d000) / r
    out[2] = (d010 - d000) / r
    out[3] = (d001 - d000) / r
    out[4] = (d110 - d100 - d010 + d000) / r2
    out[5] = (d101 - d100 - d001 + d000) / r2
    out[6] = (d011 - d010 - d001 + d000) / r2
    out[7] = (d111 - d110 - d101 - d011 + d100 + d010 + d001 - d000) / r3
    return out.T


def build_grid(cloud: PointCloud, spec: GridSpec, workers: int = -1) -> DfGrid:
    """Compute exact nearest-map distances on the lattice; fit no cell.

    This is the expensive offline step; ``workers`` is forwarded to the
    nearest-neighbor queries (-1 = all cores). Each node's distance is
    ``exact_distance`` from the node to its tree ``k=1`` winner, but most
    nodes get their winner without a tree query, because a map point's
    Voronoi cell is convex. For each stride of ``FILL_STRIDES`` and each
    axis in turn, the unknown nodes on every stride-th plane across that
    axis (and on the last plane) are queried with ``k=2`` by
    ``certified_nearest``: a node is *certified* when ``d1 < d2 - TIE_GAP``,
    and a tied node takes its ``k=1`` winner and is never certified. Where
    both ends of a segment between neighbouring planes are certified with
    the same winner ``w``, every node between them gets ``w`` and is
    certified too. Nodes still unknown after the finest stride are queried
    with ``k=1``.

    Why a filled node's winner is the tree's answer: for any other map
    point ``w'``, ``|q - w'|^2 - |q - w|^2`` is affine in ``q``, so on a
    segment it is at least its smaller end value, and at a certified end
    it is at least ``d2^2 - d1^2 > TIE_GAP * d2``. That bound carries over
    to the filled nodes, which later segments may use as ends. So ``w`` is
    the unique nearest point of every filled node, by a margin far above the
    rounding of squared distances (about 1e-16 of their size) on any map
    whose distinct points are not within micrometres of each other.

    Memory: the float64 node lattice holds each node's state until the
    final pass: -1 while unknown, ``w`` when certified, ``-2 - w`` for an
    uncertified winner, and then its distance. That pass goes slab by slab
    of whole x planes (``SLAB_NODES`` nodes); plane queries go in blocks of
    at most half a slab, and fills one plane at a time. So a build holds
    the lattice plus one slab's working arrays. Node positions come from
    ``GridSpec.axes``, and the band is fitted when first queried. The
    result is bitwise independent of the worker count and slab size.
    """
    if len(cloud) == 0:
        raise ValueError("cannot build a distance field from an empty map")
    if cloud.frame is not Frame.MAP:
        raise FrameError(f"distance fields are built from map-frame clouds, got '{cloud.frame.value}'")
    index = build_index(cloud, leaf_size=FIELD_LEAF_SIZE)
    nodes = np.full((spec.nx + 1, spec.ny + 1, spec.nz + 1), _UNKNOWN)
    for stride in FILL_STRIDES:
        for axis in range(3):
            last = nodes.shape[axis] - 1
            planes = np.union1d(np.arange(0, last + 1, stride), last)
            _query_planes(index, spec, nodes, axis, planes, workers)
            _fill_segments(nodes, axis, planes)
    for x0, x1 in _slabs(spec, spec.nx + 1):
        slab = nodes[x0:x1].reshape(-1)  # a view: the lattice is C-contiguous
        coords = spec.node_coordinates(x0, x1)
        unknown = np.flatnonzero(slab == _UNKNOWN)
        if unknown.size:
            slab[unknown] = index.nearest_many(coords[unknown], workers=workers)[0]
        won = slab.astype(np.intp)
        slab[:] = exact_distance(coords, index.points[np.where(won < 0, -2 - won, won)])
    return DfGrid(spec, nodes)


def _query_planes(index, spec: GridSpec, nodes: np.ndarray, axis: int, planes: np.ndarray, workers) -> None:
    """Store the winner code of each unknown node on ``planes`` across ``axis``."""
    line = np.moveaxis(nodes, axis, 0)
    # A k=2 row takes about twice the memory of a slab's k=1 row.
    step = max(1, SLAB_NODES // (2 * line[0].size))
    for c in range(0, planes.size, step):
        at = planes[c : c + step]
        p, j, k = np.nonzero(line[at] == _UNKNOWN)
        if p.size:
            ijk = [j, k]
            ijk.insert(axis, at[p])
            coords = np.stack([spec.axes[a][ijk[a]] for a in range(3)], axis=-1)
            won, reach = certified_nearest(index, coords, workers)
            nodes[tuple(ijk)] = np.where(reach > 0.0, won, -2 - won)


def _fill_segments(nodes: np.ndarray, axis: int, planes: np.ndarray) -> None:
    """Fill each segment across ``axis`` between neighbouring ``planes`` whose ends are certified
    with the same winner: its nodes get that winner, certified."""
    line = np.moveaxis(nodes, axis, 0)
    for lo, hi in zip(planes[:-1], planes[1:]):
        same = line[lo] >= 0.0
        same &= line[lo] == line[hi]
        if hi - lo > 1 and same.any():
            for between in range(lo + 1, hi):
                np.copyto(line[between], line[lo], where=same)


def query_many(grid: DfGrid, pts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the field at an (N, 3) block of map-frame points or one (3,) point.

    Returns (values, gradients, inside): values (N,), gradients (N, 3)
    and the in-volume mask, without the N axis for a single point.
    """
    pts = np.asarray(pts, dtype=np.float64)
    value, gx, gy, gz, inside = query_columns(grid, pts[..., 0], pts[..., 1], pts[..., 2])
    return value, np.stack([gx, gy, gz], axis=-1), inside


def query_columns(grid: DfGrid, qx, qy, qz):
    """Column-level field evaluation: returns (value, gx, gy, gz, inside).

    This is the hot path shared by query_many and the registration
    residuals; it works on 1D coordinate arrays to avoid (N, 3)
    intermediates and axis reductions. A cell's coefficients are its row in
    ``grid.band``, or else ``_fit_cells``' fit of its 8 nodes, so a query
    reads the same bits as from the whole table; a point's offset is from
    its cell's minimum corner in ``GridSpec.axes``. It is the one place
    that decides the field outside the volume: value ``grid.max_distance``,
    gradient 0.
    """
    spec = grid.spec
    res = spec.resolution
    nx, ny, nz = spec.nx, spec.ny, spec.nz
    ox, oy, oz = spec.origin
    ax, ay, az = spec.axes
    rx = (qx - ox) / res
    ry = (qy - oy) / res
    rz = (qz - oz) / res
    inside = (
        (rx >= 0.0) & (rx <= nx) & (ry >= 0.0) & (ry <= ny) & (rz >= 0.0) & (rz <= nz)
    )
    # The cast truncates toward zero: the floor, except below 0, where the clamp
    # takes both to 0. The upper boundary folds into the last cell. In-place
    # ufuncs clamp faster than np.clip; np.array keeps a single point a 0-d
    # array, which out= needs.
    ix, iy, iz = (np.array(r, dtype=np.int64) for r in (rx, ry, rz))
    all_inside = inside.all()
    for i, n in ((ix, nx), (iy, ny), (iz, nz)):
        if not all_inside:
            np.maximum(i, 0, out=i)
        np.minimum(i, n - 1, out=i)
    corner = (ix * (ny + 1) + iy) * (nz + 1) + iz  # each cell's minimum corner on the node lattice
    c0, c1, c2, c3, c4, c5, c6, c7 = _cell_coeffs(grid, corner).T
    x = qx - ax[ix]
    y = qy - ay[iy]
    z = qz - az[iz]
    t2 = c2 + c4 * x
    t4 = c6 + c7 * x
    gz = (c3 + c5 * x) + y * t4
    value = c0 + c1 * x + y * t2 + z * gz
    gy = t2 + z * t4
    gx = c1 + y * c4 + z * (c5 + y * c7)
    if not all_inside:
        zero = ~inside
        value = np.where(zero, grid.max_distance, value)
        gx = np.where(zero, 0.0, gx)
        gy = np.where(zero, 0.0, gy)
        gz = np.where(zero, 0.0, gz)
    return value, gx, gy, gz, inside


def _cell_coeffs(grid: DfGrid, corner) -> np.ndarray:
    """Coefficient rows, shape (..., 8), of the cells whose minimum corners are ``corner``
    (flat lattice indices): the band's rows, and the fit of its 8 nodes for any other cell."""
    slots, rows = grid.band
    slot = slots[corner]
    if slot.min(initial=0) >= 0:  # the initial value serves an empty query
        return rows.take(slot, axis=0)
    shape, slot, corner = np.shape(slot), np.ravel(slot), np.ravel(corner)
    miss = np.flatnonzero(slot < 0)
    coeffs = rows.take(np.maximum(slot, 0), axis=0) if len(rows) else np.empty((slot.size, 8))
    coeffs[miss] = _fit_cells(grid.node_distances, grid.spec.resolution, corner[miss])
    return coeffs.reshape(shape + (8,))


# After the magic: version, origin, resolution, margin, cell counts.
_HEADER_FMT = "<I3ddd3Q"
_HEADER_SIZE = len(GRID_MAGIC) + struct.calcsize(_HEADER_FMT)
# After the node distances: the CRC-32 (zlib.crc32) of every byte before it.
_CRC_FMT = "<I"
_CRC_SIZE = struct.calcsize(_CRC_FMT)


def save_grid(grid: DfGrid, path) -> None:
    """Write a grid to the binary .df layout (see FORMATS.md), replacing ``path`` atomically.

    The file holds the header, the node distances and a CRC-32 of both;
    nothing that can be computed from them. It is written into a sibling
    temporary file, renamed over ``path`` once complete and removed on failure.
    """
    spec = grid.spec
    header = GRID_MAGIC + struct.pack(
        _HEADER_FMT, GRID_VERSION, *spec.origin, spec.resolution, spec.margin, spec.nx, spec.ny, spec.nz
    )
    nodes = grid.node_distances.astype("<f8", copy=False)
    crc = struct.pack(_CRC_FMT, zlib.crc32(nodes, zlib.crc32(header)))
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(header)
            fh.write(nodes)
            fh.write(crc)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_grid(path) -> DfGrid:
    """Read a grid written by save_grid; the round trip is bit-exact.

    The nodes are read whole and checked against the file's CRC-32, and the
    grid's band cells, and no other, are fitted before it returns, so no
    query pays for the fit. Raises GridMagicError, GridVersionError (a
    version 1 file too: rebuild it with ``dfloc build-df``),
    GridDimensionError or GridTruncatedError for the corresponding
    malformed inputs, before reading the payload; GridTruncatedError also
    when the file shrinks while it is read; and GridFileError for a
    checksum mismatch or any other invalid content.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_SIZE)
        if len(head) < len(GRID_MAGIC) or head[: len(GRID_MAGIC)] != GRID_MAGIC:
            raise GridMagicError(f"{path}: not a distance-field grid file")
        if len(head) < _HEADER_SIZE:
            raise GridTruncatedError(f"{path}: header truncated")
        version, ox, oy, oz, resolution, margin, nx, ny, nz = struct.unpack(
            _HEADER_FMT, head[len(GRID_MAGIC) :]
        )
        if version != GRID_VERSION:
            raise GridVersionError(
                f"{path}: unsupported grid version {version}, this reader takes {GRID_VERSION}; "
                "rebuild the file from its map with dfloc build-df"
            )
        try:
            spec = GridSpec(np.array([ox, oy, oz]), resolution, nx, ny, nz, margin)
        except ValueError as exc:
            error = GridDimensionError if isinstance(exc, GridDimensionError) else GridFileError
            raise error(f"{path}: {exc}") from exc
        expected = 8 * (nx + 1) * (ny + 1) * (nz + 1) + _CRC_SIZE
        found = os.fstat(fh.fileno()).st_size - _HEADER_SIZE
        if found != expected:
            raise GridTruncatedError(f"{path}: payload is {found} bytes, header implies {expected} bytes")
        nodes = np.empty((nx + 1, ny + 1, nz + 1), dtype="<f8")
        got = fh.readinto(nodes)
        crc = fh.read(_CRC_SIZE)
        if got != nodes.nbytes or len(crc) != _CRC_SIZE:  # the file shrank since fstat
            found = fh.tell() - _HEADER_SIZE
            raise GridTruncatedError(f"{path}: payload is {found} bytes, header implies {expected} bytes")
    if zlib.crc32(nodes, zlib.crc32(head)) != struct.unpack(_CRC_FMT, crc)[0]:
        raise GridFileError(f"{path}: checksum mismatch, the file is corrupt")
    try:
        grid = DfGrid(spec, nodes)
    except ValueError as exc:
        raise GridFileError(f"{path}: {exc}") from exc
    grid.band  # fitted here, so that no timed query pays for it
    return grid
