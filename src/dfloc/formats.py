"""File formats: point clouds, trajectory CSV, run configuration, scenario bundles.

All layouts are documented byte-for-byte in FORMATS.md. Loads are
all-or-nothing: a malformed input raises before any partially built
object escapes. Distance-field grid persistence lives in
``distance_field`` (save_grid / load_grid).
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .geometry import Attitude, Frame, OdomDelta, PointCloud, Pose4, wrap_angle
from .registration import IcpOptions
from .solver import RobustLoss, SolverOptions
from .synth import SCENE_KINDS, NoiseSetup, ScanModel, Scene, ScenarioRun
from .tracker import ScanFrame

CLOUD_MAGIC = b"XYZCLD1\n"


class CloudFormatError(ValueError):
    """Malformed point-cloud file."""


class CloudParseError(CloudFormatError):
    """A text line did not parse as three numbers."""


class CloudValueError(CloudFormatError):
    """A parsed coordinate was NaN or infinite."""


class EmptyCloudError(CloudFormatError):
    """The file contains no points."""


class TrajectoryFormatError(ValueError):
    """Malformed trajectory CSV."""


class ConfigError(ValueError):
    """Invalid run-configuration file; the message names the offending key."""


class ScenarioFormatError(ValueError):
    """Malformed scenario bundle."""


def read_cloud(path, frame: Frame = Frame.MAP) -> PointCloud:
    """Load a point cloud from ASCII XYZ or the binary cloud format.

    The binary variant is detected by its magic bytes; anything else is
    parsed as text with one ``x y z`` triple per line and ``#`` comments.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(CLOUD_MAGIC)] == CLOUD_MAGIC:
        return _read_cloud_binary(raw, path, frame)
    return _read_cloud_text(raw, path, frame)


def _read_cloud_binary(raw: bytes, path: Path, frame: Frame) -> PointCloud:
    header_size = len(CLOUD_MAGIC) + 8
    if len(raw) < header_size:
        raise CloudFormatError(f"{path}: binary cloud header truncated")
    (count,) = struct.unpack_from("<Q", raw, len(CLOUD_MAGIC))
    if count == 0:
        raise EmptyCloudError(f"{path}: cloud contains no points")
    expected = header_size + 12 * count
    if len(raw) != expected:
        raise CloudFormatError(f"{path}: file is {len(raw)} bytes, header implies {expected}")
    pts = np.frombuffer(raw, dtype="<f4", offset=header_size).reshape(count, 3)
    if not np.isfinite(pts).all():
        raise CloudValueError(f"{path}: binary cloud contains non-finite coordinates")
    return PointCloud(pts.astype(np.float64), frame)


def _read_cloud_text(raw: bytes, path: Path, frame: Frame) -> PointCloud:
    rows = []
    for lineno, line in enumerate(raw.decode("utf-8", errors="replace").splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise CloudParseError(f"{path}: line {lineno}: expected 'x y z', got {len(parts)} fields")
        try:
            xyz = [float(v) for v in parts]
        except ValueError:
            raise CloudParseError(f"{path}: line {lineno}: not a numeric triple: '{body}'") from None
        if not all(math.isfinite(v) for v in xyz):
            raise CloudValueError(f"{path}: line {lineno}: non-finite coordinate")
        rows.append(xyz)
    if not rows:
        raise EmptyCloudError(f"{path}: cloud contains no points")
    return PointCloud(np.array(rows), frame)


def write_cloud(cloud: PointCloud, path, binary: bool = False) -> None:
    """Write a cloud as ASCII XYZ, or as the f32 binary format when ``binary``."""
    path = Path(path)
    if binary:
        with open(path, "wb") as fh:
            fh.write(CLOUD_MAGIC)
            fh.write(struct.pack("<Q", len(cloud)))
            cloud.points.astype("<f4").tofile(fh)
        return
    with open(path, "w", encoding="utf-8") as fh:
        for x, y, z in cloud.points:
            fh.write(f"{x:.9g} {y:.9g} {z:.9g}\n")


class TrajectorySource(enum.Enum):
    GROUND_TRUTH = "ground_truth"
    ODOMETRY = "odometry"
    ESTIMATE = "estimate"


@dataclass(frozen=True)
class TrajectoryRow:
    """One timestamped pose sample with full orientation and provenance tag."""

    timestamp: float
    tx: float
    ty: float
    tz: float
    roll: float
    pitch: float
    yaw: float
    source: TrajectorySource

    def __post_init__(self):
        vals = (self.timestamp, self.tx, self.ty, self.tz, self.roll, self.pitch, self.yaw)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("trajectory row contains non-finite values")
        object.__setattr__(self, "yaw", float(wrap_angle(self.yaw)))
        if not isinstance(self.source, TrajectorySource):
            object.__setattr__(self, "source", TrajectorySource(self.source))

    def pose(self) -> Pose4:
        return Pose4(self.tx, self.ty, self.tz, self.yaw)


TRAJECTORY_HEADER = "t,tx,ty,tz,roll,pitch,yaw,source"


def write_trajectory(rows, path) -> None:
    """Write trajectory rows as CSV; values round-trip to better than 1e-9."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for r in rows:
            fh.write(
                f"{r.timestamp:.12g},{r.tx:.12g},{r.ty:.12g},{r.tz:.12g},"
                f"{r.roll:.12g},{r.pitch:.12g},{r.yaw:.12g},{r.source.value}\n"
            )


def read_trajectory(path) -> list[TrajectoryRow]:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != TRAJECTORY_HEADER:
        got = lines[0].strip() if lines else "<empty file>"
        raise TrajectoryFormatError(f"{path}: bad header '{got}' (expected '{TRAJECTORY_HEADER}')")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise TrajectoryFormatError(f"{path}: line {lineno}: expected 8 columns, got {len(parts)}")
        try:
            vals = [float(v) for v in parts[:7]]
        except ValueError:
            raise TrajectoryFormatError(f"{path}: line {lineno}: non-numeric field") from None
        token = parts[7].strip()
        try:
            source = TrajectorySource(token)
        except ValueError:
            raise TrajectoryFormatError(f"{path}: line {lineno}: unknown source '{token}'") from None
        try:
            rows.append(TrajectoryRow(*vals, source))
        except ValueError as exc:
            raise TrajectoryFormatError(f"{path}: line {lineno}: {exc}") from None
    return rows


# -- run configuration -------------------------------------------------------


@dataclass(frozen=True)
class GridOptions:
    resolution: float = 0.05
    margin: float = 1.0

    def __post_init__(self):
        if not self.resolution > 0.0:
            raise ValueError("resolution must be positive")
        if not self.margin >= 0.0:
            raise ValueError("margin must be non-negative")


@dataclass(frozen=True)
class SimOptions:
    """Scene / trajectory / scan generation parameters for `simulate`."""

    scene_kind: str = "box_room"
    extent: float = 10.0
    density: float = 100.0
    steps: int = 100
    step_length: float = 0.15
    scan: ScanModel = field(default_factory=ScanModel)
    frame_dt: float = 0.1

    def __post_init__(self):
        if self.scene_kind not in SCENE_KINDS:
            raise ValueError(f"scene kind must be one of {SCENE_KINDS}")
        for name in ("extent", "density", "step_length", "frame_dt"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.steps < 2:
            raise ValueError("steps must be at least 2")


@dataclass(frozen=True)
class RunConfig:
    map_path: str | None = None
    grid: GridOptions = field(default_factory=GridOptions)
    loss: RobustLoss = field(default_factory=RobustLoss)
    solver: SolverOptions = field(default_factory=SolverOptions)
    icp: IcpOptions = field(default_factory=IcpOptions)
    noise: NoiseSetup = field(default_factory=NoiseSetup)
    sim: SimOptions = field(default_factory=SimOptions)
    seed: int = 0


# Config key -> attribute path in RunConfig. Defaults and constraints live
# on the option dataclasses; a value is parsed by the type of its default.
CONFIG_KEYS = {
    "map": "map_path",
    "grid.resolution": "grid.resolution",
    "grid.margin": "grid.margin",
    "loss.kind": "loss.kind",
    "loss.scale": "loss.scale",
    "solver.max_iterations": "solver.max_iterations",
    "solver.param_tolerance": "solver.param_tolerance",
    "solver.cost_tolerance": "solver.cost_tolerance",
    "solver.initial_damping": "solver.initial_damping",
    "solver.damping_increase": "solver.damping_increase",
    "solver.damping_decrease": "solver.damping_decrease",
    "icp.max_iterations": "icp.max_iterations",
    "icp.max_correspondence_distance": "icp.max_correspondence_distance",
    "icp.outlier_rejection_threshold": "icp.outlier_rejection_threshold",
    "icp.convergence_epsilon": "icp.convergence_epsilon",
    "noise.sigma_t": "noise.sigma_t",
    "noise.sigma_yaw": "noise.sigma_yaw",
    "scene.kind": "sim.scene_kind",
    "scene.extent": "sim.extent",
    "scene.density": "sim.density",
    "trajectory.steps": "sim.steps",
    "trajectory.step_length": "sim.step_length",
    "trajectory.frame_dt": "sim.frame_dt",
    "scan.points": "sim.scan.points",
    "scan.max_range": "sim.scan.max_range",
    "scan.noise_sigma": "sim.scan.noise_sigma",
    "scan.outlier_fraction": "sim.scan.outlier_fraction",
    "seed": "seed",
}


def _parse_like(text: str, default):
    if default is None:
        return text
    if type(default) is int:
        return int(text, 0)
    return type(default)(text)


def _with_value(obj, path: str, text: str):
    """Copy of ``obj`` with the field at dotted ``path`` set from ``text``."""
    name, _, rest = path.partition(".")
    current = getattr(obj, name)
    value = _with_value(current, rest, text) if rest else _parse_like(text, current)
    return replace(obj, **{name: value})


def parse_keyvalues(text: str, path="<config>") -> dict[str, str]:
    """Parse flat ``key = value`` lines with '#' comments into a dict."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got '{body}'")
        key, value = body.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def config_from_dict(raw: dict[str, str], path="<config>") -> RunConfig:
    cfg = RunConfig()
    for key, text in raw.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown key '{key}'")
        try:
            cfg = _with_value(cfg, CONFIG_KEYS[key], text)
        except ValueError as exc:
            raise ConfigError(f"{path}: key '{key}': bad value '{text}': {exc}") from None
    return cfg


def load_config(path) -> RunConfig:
    """Load a run configuration; absent keys fall back to the documented defaults."""
    path = Path(path)
    return config_from_dict(parse_keyvalues(path.read_text(encoding="utf-8"), path), path)


# -- scenario bundles ---------------------------------------------------------

SCENARIO_META = "scenario.txt"
FRAMES_HEADER = "t,dtx,dty,dtz,dyaw,roll,pitch,scan"


def ground_truth_rows(run: ScenarioRun) -> list[TrajectoryRow]:
    """The scenario's true poses as trajectory rows, one per frame."""
    return [
        TrajectoryRow(f.timestamp, p.tx, p.ty, p.tz, 0.0, 0.0, p.yaw, TrajectorySource.GROUND_TRUTH)
        for p, f in zip(run.ground_truth, run.frames)
    ]


def save_scenario(run: ScenarioRun, directory) -> None:
    """Write a scenario bundle: metadata, map, ground truth, frame table, scans."""
    directory = Path(directory)
    (directory / "scans").mkdir(parents=True, exist_ok=True)
    b = run.scene.bounds
    meta = [
        f"seed = {run.seed}",
        f"noise.sigma_t = {run.noise.sigma_t:.12g}",
        f"noise.sigma_yaw = {run.noise.sigma_yaw:.12g}",
        f"noise.seed = {run.noise.seed}",
        f"bounds.min = {b[0, 0]:.12g} {b[0, 1]:.12g} {b[0, 2]:.12g}",
        f"bounds.max = {b[1, 0]:.12g} {b[1, 1]:.12g} {b[1, 2]:.12g}",
    ]
    (directory / SCENARIO_META).write_text("\n".join(meta) + "\n", encoding="utf-8")
    write_cloud(run.scene.map, directory / "map.cld", binary=True)
    write_trajectory(ground_truth_rows(run), directory / "ground_truth.csv")
    with open(directory / "frames.csv", "w", encoding="utf-8") as fh:
        fh.write(FRAMES_HEADER + "\n")
        for k, frame in enumerate(run.frames):
            d = frame.odom if frame.odom is not None else OdomDelta.zero()
            scan_name = f"scans/{k:06d}.cld"
            fh.write(
                f"{frame.timestamp:.12g},{d.dtx:.12g},{d.dty:.12g},{d.dtz:.12g},"
                f"{d.dyaw:.12g},{frame.attitude.roll:.12g},{frame.attitude.pitch:.12g},{scan_name}\n"
            )
            write_cloud(frame.cloud, directory / scan_name, binary=True)


def load_scenario(directory) -> ScenarioRun:
    """Read a bundle written by save_scenario."""
    directory = Path(directory)
    meta_path = directory / SCENARIO_META
    if not meta_path.is_file():
        raise ScenarioFormatError(f"{directory}: missing {SCENARIO_META}")
    meta = parse_keyvalues(meta_path.read_text(encoding="utf-8"), meta_path)
    try:
        seed = int(meta.get("seed", "0"))
        noise = NoiseSetup(
            float(meta.get("noise.sigma_t", "0")),
            float(meta.get("noise.sigma_yaw", "0")),
            int(meta.get("noise.seed", "0")),
        )
        bmin = [float(v) for v in meta["bounds.min"].split()]
        bmax = [float(v) for v in meta["bounds.max"].split()]
    except (KeyError, ValueError) as exc:
        raise ScenarioFormatError(f"{meta_path}: bad metadata: {exc}") from exc
    scene = Scene(read_cloud(directory / "map.cld", Frame.MAP), np.array([bmin, bmax]))
    gt_rows = read_trajectory(directory / "ground_truth.csv")
    poses = tuple(r.pose() for r in gt_rows)

    frames_path = directory / "frames.csv"
    lines = frames_path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != FRAMES_HEADER:
        raise ScenarioFormatError(f"{frames_path}: bad header (expected '{FRAMES_HEADER}')")
    frames = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise ScenarioFormatError(f"{frames_path}: line {lineno}: expected 8 columns")
        try:
            t, dtx, dty, dtz, dyaw, roll, pitch = (float(v) for v in parts[:7])
        except ValueError:
            raise ScenarioFormatError(f"{frames_path}: line {lineno}: non-numeric field") from None
        cloud = read_cloud(directory / parts[7].strip(), Frame.SENSOR)
        frames.append(
            ScanFrame(cloud, Attitude(roll, pitch), OdomDelta(dtx, dty, dtz, dyaw), t)
        )
    if len(frames) != len(poses):
        raise ScenarioFormatError(
            f"{directory}: {len(frames)} frames but {len(poses)} ground-truth poses"
        )
    return ScenarioRun(scene, poses, tuple(frames), noise, seed)
