"""Distance-field grid: build, trilinear query with analytic gradient, file io.

The field stores, on a fixed-resolution voxel lattice, the exact distance
from each lattice node to the closest map point. Each cell additionally
holds the 8 coefficients of the trilinear polynomial

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
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Frame, FrameError, PointCloud
from .nnsearch import FIELD_LEAF_SIZE, build_index

GRID_MAGIC = b"DFGRID1\n"
GRID_VERSION = 1

# Largest lattice, in nodes, that a grid may have when planned or loaded.
MAX_NODES = 1 << 33

# Lattice nodes per build slab (whole x planes, at least one). The build's
# peak memory is its output plus the working arrays of one slab.
SLAB_NODES = 1 << 16


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

    @property
    def upper(self) -> np.ndarray:
        """Maximum corner of the grid volume."""
        return self.origin + self.resolution * self.counts

    def node_coordinates(self, x_start: int = 0, x_stop: int | None = None) -> np.ndarray:
        """Lattice node positions of the x planes [x_start, x_stop), all by default.

        Shape ((x_stop-x_start)*(ny+1)*(nz+1), 3) in ij order (z varies
        fastest). A node's coordinates do not depend on the range asked for.
        """
        if x_stop is None:
            x_stop = self.nx + 1
        ranges = (np.arange(x_start, x_stop), np.arange(self.ny + 1), np.arange(self.nz + 1))
        axes = [self.origin[a] + self.resolution * ranges[a] for a in range(3)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, 3)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the closed grid volume."""
        pts = np.asarray(pts, dtype=np.float64)
        return ((pts >= self.origin) & (pts <= self.upper)).all(axis=-1)


@dataclass(frozen=True)
class DfGrid:
    """Built distance field: node lattice plus per-cell trilinear coefficients.

    node_distances has shape (nx+1, ny+1, nz+1); coeffs has shape
    (nx, ny, nz, 8). Both are read-only after construction, so a grid can
    serve any number of concurrent queries. ``max_distance`` is the largest
    node distance, an upper bound of the field inside the volume, computed
    once here.
    """

    spec: GridSpec
    node_distances: np.ndarray
    coeffs: np.ndarray
    max_distance: float = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.node_distances, dtype=np.float64))
        coeffs = np.ascontiguousarray(np.asarray(self.coeffs, dtype=np.float64))
        expect_nodes = (self.spec.nx + 1, self.spec.ny + 1, self.spec.nz + 1)
        expect_cells = (self.spec.nx, self.spec.ny, self.spec.nz, 8)
        if nodes.shape != expect_nodes:
            raise ValueError(f"node lattice shape {nodes.shape} != {expect_nodes}")
        if coeffs.shape != expect_cells:
            raise ValueError(f"coefficient array shape {coeffs.shape} != {expect_cells}")
        if not np.isfinite(nodes).all() or (nodes < 0.0).any():
            raise ValueError("node distances must be finite and non-negative")
        if not np.isfinite(coeffs).all():
            raise ValueError("cell coefficients must be finite")
        nodes.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "node_distances", nodes)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "max_distance", float(nodes.max()))


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
    nx, ny, nz = (int(n) for n in np.maximum(2.0, np.ceil((hi - lo) / spec.resolution - 1e-9)))
    return replace(spec, nx=nx, ny=ny, nz=nz)


def fit_cell_coeffs(corner_distances, resolution: float) -> np.ndarray:
    """Closed-form trilinear coefficients from 8 cell-corner values.

    Corners are ordered x fastest, then y, then z:
    (0,0,0), (1,0,0), (0,1,0), (1,1,0), (0,0,1), (1,0,1), (0,1,1), (1,1,1).
    Accepts a stack of shape (..., 8) and returns coefficients of the same
    shape, in cell-local metric coordinates.
    """
    d = np.asarray(corner_distances, dtype=np.float64)
    if d.shape[-1] != 8:
        raise ValueError(f"expected 8 corner values on the last axis, got shape {d.shape}")
    r = float(resolution)
    r2, r3 = r * r, r * r * r
    d000, d100, d010, d110, d001, d101, d011, d111 = np.moveaxis(d, -1, 0)
    out = np.empty_like(d)
    out[..., 0] = d000
    out[..., 1] = (d100 - d000) / r
    out[..., 2] = (d010 - d000) / r
    out[..., 3] = (d001 - d000) / r
    out[..., 4] = (d110 - d100 - d010 + d000) / r2
    out[..., 5] = (d101 - d100 - d001 + d000) / r2
    out[..., 6] = (d011 - d010 - d001 + d000) / r2
    out[..., 7] = (d111 - d110 - d101 - d011 + d100 + d010 + d001 - d000) / r3
    return out


def build_grid(cloud: PointCloud, spec: GridSpec, workers: int = -1) -> DfGrid:
    """Compute exact nearest-map distances on the lattice and fit every cell.

    This is the expensive offline step; ``workers`` is forwarded to the
    nearest-neighbor queries (-1 = all cores). The lattice is filled in
    slabs of whole x planes (``SLAB_NODES`` nodes), and each slab's cells
    are fitted as soon as both of their x planes are known, so only one
    slab's coordinates, corner stack and coefficients are held at a time.
    The result is bitwise independent of the worker count and slab size.
    """
    if len(cloud) == 0:
        raise ValueError("cannot build a distance field from an empty map")
    if cloud.frame is not Frame.MAP:
        raise FrameError(f"distance fields are built from map-frame clouds, got '{cloud.frame.value}'")
    index = build_index(cloud, leaf_size=FIELD_LEAF_SIZE)
    nx, ny, nz = spec.nx, spec.ny, spec.nz
    nodes = np.empty((nx + 1, ny + 1, nz + 1))
    coeffs = np.empty((nx, ny, nz, 8))
    planes = max(1, SLAB_NODES // ((ny + 1) * (nz + 1)))
    for x0 in range(0, nx + 1, planes):
        x1 = min(x0 + planes, nx + 1)
        _, dist = index.nearest_many(spec.node_coordinates(x0, x1), workers=workers)
        nodes[x0:x1] = dist.reshape(x1 - x0, ny + 1, nz + 1)
        # Cell i spans node planes i and i + 1: cells before plane x1 - 1 are now complete.
        c0 = max(x0 - 1, 0)
        block = nodes[c0:x1]
        corners = np.stack(
            [
                block[:-1, :-1, :-1],
                block[1:, :-1, :-1],
                block[:-1, 1:, :-1],
                block[1:, 1:, :-1],
                block[:-1, :-1, 1:],
                block[1:, :-1, 1:],
                block[:-1, 1:, 1:],
                block[1:, 1:, 1:],
            ],
            axis=-1,
        )
        coeffs[c0 : x1 - 1] = fit_cell_coeffs(corners, spec.resolution)
    return DfGrid(spec, nodes, coeffs)


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
    intermediates and axis reductions. It is the one place that decides
    the field outside the volume: value ``grid.max_distance``, gradient 0.
    """
    spec = grid.spec
    res = spec.resolution
    nx, ny, nz = spec.nx, spec.ny, spec.nz
    ox, oy, oz = spec.origin
    rx = (qx - ox) / res
    ry = (qy - oy) / res
    rz = (qz - oz) / res
    inside = (
        (rx >= 0.0) & (rx <= nx) & (ry >= 0.0) & (ry <= ny) & (rz >= 0.0) & (rz <= nz)
    )
    # Upper boundary folds into the last cell.
    ix = np.clip(np.floor(rx).astype(np.int64), 0, nx - 1)
    iy = np.clip(np.floor(ry).astype(np.int64), 0, ny - 1)
    iz = np.clip(np.floor(rz).astype(np.int64), 0, nz - 1)
    flat = (ix * ny + iy) * nz + iz
    c0, c1, c2, c3, c4, c5, c6, c7 = np.take(grid.coeffs.reshape(-1, 8), flat, axis=0).T
    x = qx - (ox + ix * res)
    y = qy - (oy + iy * res)
    z = qz - (oz + iz * res)
    t2 = c2 + c4 * x
    t4 = c6 + c7 * x
    gz = (c3 + c5 * x) + y * t4
    value = c0 + c1 * x + y * t2 + z * gz
    gy = t2 + z * t4
    gx = c1 + y * c4 + z * (c5 + y * c7)
    if not inside.all():
        zero = ~inside
        value = np.where(zero, grid.max_distance, value)
        gx = np.where(zero, 0.0, gx)
        gy = np.where(zero, 0.0, gy)
        gz = np.where(zero, 0.0, gz)
    return value, gx, gy, gz, inside


# After the magic: version, origin, resolution, margin, cell counts.
_HEADER_FMT = "<I3ddd3Q"
_HEADER_SIZE = len(GRID_MAGIC) + struct.calcsize(_HEADER_FMT)


def save_grid(grid: DfGrid, path) -> None:
    """Write a grid to the binary .df layout (see FORMATS.md)."""
    spec = grid.spec
    header = GRID_MAGIC + struct.pack(
        _HEADER_FMT,
        GRID_VERSION,
        *spec.origin,
        spec.resolution,
        spec.margin,
        spec.nx,
        spec.ny,
        spec.nz,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        grid.node_distances.astype("<f8", copy=False).tofile(fh)
        grid.coeffs.astype("<f8", copy=False).tofile(fh)


def load_grid(path) -> DfGrid:
    """Read a grid written by save_grid; the round trip is bit-exact.

    Raises GridMagicError, GridVersionError, GridDimensionError or
    GridTruncatedError for the corresponding malformed inputs, before
    reading the payload, and GridFileError for any other invalid content.
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
            raise GridVersionError(f"{path}: unsupported grid version {version}")
        try:
            spec = GridSpec(np.array([ox, oy, oz]), resolution, nx, ny, nz, margin)
        except ValueError as exc:
            error = GridDimensionError if isinstance(exc, GridDimensionError) else GridFileError
            raise error(f"{path}: {exc}") from exc
        n_nodes = (nx + 1) * (ny + 1) * (nz + 1)
        expected = 8 * (n_nodes + 8 * nx * ny * nz)
        found = os.fstat(fh.fileno()).st_size - _HEADER_SIZE
        if found != expected:
            raise GridTruncatedError(f"{path}: payload is {found} bytes, header implies {expected} bytes")
        payload = fh.read(expected)
    if len(payload) != expected:  # the file shrank since fstat
        raise GridTruncatedError(f"{path}: payload is {len(payload)} bytes, header implies {expected} bytes")
    nodes = np.frombuffer(payload, dtype="<f8", count=n_nodes).reshape(nx + 1, ny + 1, nz + 1)
    coeffs = np.frombuffer(payload, dtype="<f8", offset=8 * n_nodes).reshape(nx, ny, nz, 8)
    try:
        return DfGrid(spec, nodes, coeffs)
    except ValueError as exc:
        raise GridFileError(f"{path}: {exc}") from exc
