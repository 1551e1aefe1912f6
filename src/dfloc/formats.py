"""File formats: point clouds, CSV files, run configuration, scenario bundles.

All layouts are documented byte-for-byte in FORMATS.md. Loads are
all-or-nothing: a malformed input raises before any partially built
object escapes. Text files are strict UTF-8, and every CSV file goes
through read_csv and write_csv. Distance-field grid persistence lives in
``distance_field`` (save_grid / load_grid).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .geometry import Attitude, Frame, PointCloud, Pose4
from .synth import SCENE_KINDS, NoiseSetup, ScanModel, ScenarioRun
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


def _read_text(path, error: type[ValueError]) -> str:
    """A text file's content; bytes that are not UTF-8 raise ``error``."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc


def read_csv(path, header: str, error: type[ValueError], parse) -> list:
    """The rows of a CSV file with exactly this header, each converted by ``parse``.

    Blank lines are skipped. ``parse`` gets a row's fields; a row whose column
    count differs from the header's, or whose ``parse`` raises ValueError or
    OSError, raises ``error`` naming the file and line.
    """
    lines = _read_text(path, error).splitlines()
    if not lines or lines[0].strip() != header:
        got = lines[0].strip() if lines else "<empty file>"
        raise error(f"{path}: bad header '{got}' (expected '{header}')")
    columns = header.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != columns:
            raise error(f"{path}: line {lineno}: expected {columns} columns, got {len(fields)}")
        try:
            rows.append(parse(fields))
        except (ValueError, OSError) as exc:
            raise error(f"{path}: line {lineno}: {exc}") from exc
    return rows


def write_csv(path, header: str, rows) -> None:
    """Write the header, then each row's cells joined by commas, one ``\\n``-terminated line each."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def read_cloud(path, frame: Frame = Frame.MAP) -> PointCloud:
    """Load a point cloud from ASCII XYZ or the binary cloud format.

    The binary variant is detected by its magic bytes; anything else is
    parsed as text with one ``x y z`` triple per line and ``#`` comments.
    A binary file's size is checked against its header before the points are read.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(len(CLOUD_MAGIC)) == CLOUD_MAGIC:
            return _read_cloud_binary(fh, path, frame)
    return _read_cloud_text(_read_text(path, CloudParseError), path, frame)


def _read_cloud_binary(fh, path: Path, frame: Frame) -> PointCloud:
    head = fh.read(8)
    if len(head) < 8:
        raise CloudFormatError(f"{path}: binary cloud header truncated")
    (count,) = struct.unpack("<Q", head)
    if count == 0:
        raise EmptyCloudError(f"{path}: cloud contains no points")
    expected = len(CLOUD_MAGIC) + 8 + 12 * count
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise CloudFormatError(f"{path}: file is {size} bytes, header implies {expected}")
    raw = fh.read(12 * count)
    if len(raw) != 12 * count:  # the file shrank since fstat
        raise CloudFormatError(f"{path}: point data is {len(raw)} bytes, header implies {12 * count}")
    pts = np.frombuffer(raw, dtype="<f4").reshape(count, 3)
    if not np.isfinite(pts).all():
        raise CloudValueError(f"{path}: binary cloud contains non-finite coordinates")
    return PointCloud(pts.astype(np.float64), frame)


def _read_cloud_text(text: str, path: Path, frame: Frame) -> PointCloud:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
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


@dataclass(frozen=True)
class TrajectoryRow:
    """One timestamped 4-DOF pose sample; the pose checks and wraps its own fields."""

    timestamp: float
    pose: Pose4

    def __post_init__(self):
        if not math.isfinite(self.timestamp):
            raise ValueError(f"trajectory time must be finite, got {self.timestamp}")


TRAJECTORY_HEADER = "t,tx,ty,tz,yaw"


def _digits12(*values: float) -> list[str]:
    return [f"{v:.12g}" for v in values]


def write_trajectory(rows, path) -> None:
    """Write trajectory rows as CSV; values round-trip to better than 1e-9."""
    write_csv(path, TRAJECTORY_HEADER, (_digits12(r.timestamp, *r.pose.as_array()) for r in rows))


def _trajectory_row(fields: list[str]) -> TrajectoryRow:
    t, tx, ty, tz, yaw = (float(v) for v in fields)
    return TrajectoryRow(t, Pose4(tx, ty, tz, yaw))


def read_trajectory(path) -> list[TrajectoryRow]:
    return read_csv(path, TRAJECTORY_HEADER, TrajectoryFormatError, _trajectory_row)


STEP_TIMES_HEADER = "dt"


def write_step_times(times, path) -> None:
    """Write per-step wall-clock times, one ``dt`` row per step: row k is step k."""
    write_csv(path, STEP_TIMES_HEADER, ([f"{dt:.9g}"] for dt in times))


def _step_time(fields: list[str]) -> float:
    dt = float(fields[0])
    if not math.isfinite(dt):
        raise ValueError(f"dt '{fields[0]}' is not finite")
    return dt


def read_step_times(path) -> np.ndarray:
    """The per-step times of a step-times file; every row needs a finite dt."""
    return np.array(read_csv(path, STEP_TIMES_HEADER, ValueError, _step_time))


# -- run configuration -------------------------------------------------------


@dataclass(frozen=True)
class SimOptions:
    """Scene / trajectory / scan generation parameters for `simulate`."""

    scene_kind: str = "box_room"
    extent: float = 10.0
    density: float = 100.0
    steps: int = 100
    step_length: float = 0.15
    scan: ScanModel = field(default_factory=ScanModel)

    def __post_init__(self):
        if self.scene_kind not in SCENE_KINDS:
            raise ValueError(f"scene kind must be one of {SCENE_KINDS}")
        for name in ("extent", "density", "step_length"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.steps < 2:
            raise ValueError("steps must be at least 2")


@dataclass(frozen=True)
class RunConfig:
    """Settings read by simulate; localize and benchmark read only ``seed``.
    Grid settings are build-df flags."""

    noise: NoiseSetup = field(default_factory=NoiseSetup)
    sim: SimOptions = field(default_factory=SimOptions)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# Config key -> attribute path in RunConfig. Defaults and constraints live
# on the option dataclasses; a value is parsed by the type of its default.
CONFIG_KEYS = {
    "noise.sigma_t": "noise.sigma_t",
    "noise.sigma_yaw": "noise.sigma_yaw",
    "scene.kind": "sim.scene_kind",
    "scene.extent": "sim.extent",
    "scene.density": "sim.density",
    "trajectory.steps": "sim.steps",
    "trajectory.step_length": "sim.step_length",
    "scan.points": "sim.scan.points",
    "scan.max_range": "sim.scan.max_range",
    "scan.noise_sigma": "sim.scan.noise_sigma",
    "scan.outlier_fraction": "sim.scan.outlier_fraction",
    "seed": "seed",
}


def _parse_like(text: str, default):
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
    """Parse flat ``key = value`` lines with '#' comments into a dict; a repeated key raises."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got '{body}'")
        key, value = (part.strip() for part in body.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}: line {lineno}: key '{key}' given twice")
        out[key] = value
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
    return config_from_dict(parse_keyvalues(_read_text(path, ConfigError), path), path)


# -- scenario bundles ---------------------------------------------------------

FRAMES_HEADER = "dtx,dty,dtz,dyaw,roll,pitch"  # row k is frame k, at row k's t in ground_truth.csv
SCAN_PATH = "scans/{:06d}.cld"  # row k of frames.csv is scan k


def ground_truth_rows(run: ScenarioRun) -> list[TrajectoryRow]:
    """The scenario's true poses, at their frames' times, as trajectory rows."""
    return [TrajectoryRow(f.timestamp, p) for p, f in zip(run.ground_truth, run.frames)]


def save_scenario(run: ScenarioRun, directory) -> None:
    """Write a scenario bundle: map, ground truth, frame table, scans."""
    directory = Path(directory)
    (directory / "scans").mkdir(parents=True, exist_ok=True)
    write_cloud(run.map, directory / "map.cld", binary=True)
    write_trajectory(ground_truth_rows(run), directory / "ground_truth.csv")
    rows = []
    for k, frame in enumerate(run.frames):
        d = frame.odom if frame.odom is not None else Pose4.identity()
        write_cloud(frame.cloud, directory / SCAN_PATH.format(k), binary=True)
        att = frame.attitude
        rows.append(_digits12(*d.as_array(), att.roll, att.pitch))
    write_csv(directory / "frames.csv", FRAMES_HEADER, rows)


def _frame_row(fields: list[str]) -> tuple[Attitude, Pose4]:
    dtx, dty, dtz, dyaw, roll, pitch = (float(v) for v in fields)
    return Attitude(roll, pitch), Pose4(dtx, dty, dtz, dyaw)


def load_scenario(directory) -> ScenarioRun:
    """Read a bundle written by save_scenario.

    A missing or malformed member raises ScenarioFormatError naming it, with the underlying
    error as its cause. Frame k's time is the t of row k of ground_truth.csv.
    """
    directory = Path(directory)
    member = "map.cld"
    try:
        cloud = read_cloud(directory / member, Frame.MAP)
        member = "ground_truth.csv"
        truth = read_trajectory(directory / member)
        if any(a.timestamp >= b.timestamp for a, b in zip(truth, truth[1:])):
            raise ValueError("frame times t must be strictly increasing")
        member = "frames.csv"
        rows = read_csv(directory / member, FRAMES_HEADER, ScenarioFormatError, _frame_row)
        if len(rows) != len(truth):
            raise ValueError(f"{len(rows)} rows, but ground_truth.csv has {len(truth)}")
        frames = []
        for k, (r, (attitude, odom)) in enumerate(zip(truth, rows)):
            member = SCAN_PATH.format(k)
            frames.append(ScanFrame(read_cloud(directory / member, Frame.SENSOR), attitude, odom, r.timestamp))
        member = "frames.csv"
        return ScenarioRun(cloud, [r.pose for r in truth], frames)
    except ScenarioFormatError:
        raise
    except (OSError, ValueError) as exc:
        where = str(directory / member)
        raise ScenarioFormatError(str(exc) if where in str(exc) else f"{where}: {exc}") from exc
