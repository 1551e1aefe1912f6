"""Points, clouds, and 4-DOF poses for map-based LIDAR localization.

Conventions used throughout the package:

* Frames: ``sensor`` (raw LIDAR output), ``body`` (tilt-compensated, z-up)
  and ``map`` (world). Clouds carry their frame tag so that registering an
  uncompensated cloud is a detectable error instead of silent corruption.
* The estimated state is 4-DOF: translation (tx, ty, tz) in meters plus
  yaw in radians. Roll and pitch come from the IMU and are applied to the
  cloud before registration, never estimated.
* Tilt compensation rotates sensor points by R_y(pitch) @ R_x(roll),
  i.e. roll about x first, then pitch about y, z-up.
* Yaw angles are always wrapped to (-pi, pi].

Point arguments to the functions below are arrays of shape (3,) or
(N, 3); operations broadcast over the leading axis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class Frame(enum.Enum):
    """Coordinate frame a point cloud is expressed in."""

    SENSOR = "sensor"
    BODY = "body"
    MAP = "map"


class FrameError(ValueError):
    """An operation received a cloud in the wrong frame."""


def wrap_angle(angle):
    """Wrap an angle (scalar or array, radians) to (-pi, pi]."""
    return np.pi - (np.pi - angle) % TWO_PI


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of finite 3D points (meters) tagged with its frame.

    The stored array is float64, C-contiguous and marked read-only;
    clouds are safe to share between concurrent workers.
    """

    points: np.ndarray
    frame: Frame

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain non-finite values")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if not isinstance(self.frame, Frame):
            object.__setattr__(self, "frame", Frame(self.frame))

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Attitude:
    """IMU roll/pitch (radians) used to tilt-compensate a sensor cloud.

    Both angles must stay strictly inside (-pi/2, pi/2), the regime in
    which tilt compensation is well defined.
    """

    roll: float
    pitch: float

    def __post_init__(self):
        if not (math.isfinite(self.roll) and math.isfinite(self.pitch)):
            raise ValueError("attitude angles must be finite")
        if abs(self.roll) >= math.pi / 2 or abs(self.pitch) >= math.pi / 2:
            raise ValueError("attitude outside the tilt-compensable regime (|angle| < pi/2)")

    @classmethod
    def level(cls) -> "Attitude":
        return cls(0.0, 0.0)


@dataclass(frozen=True)
class Pose4:
    """A 4-DOF transform: translation (meters) plus yaw (radians).

    It is either a map-frame pose or a body-frame increment between two
    poses (see ``compose`` and ``pose_delta``). yaw is wrapped to
    (-pi, pi] on construction, so two poses describing the same
    transform compare equal component-wise.
    """

    tx: float
    ty: float
    tz: float
    yaw: float = 0.0

    def __post_init__(self):
        vals = (self.tx, self.ty, self.tz, self.yaw)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"pose components must be finite, got {vals}")
        object.__setattr__(self, "yaw", float(wrap_angle(self.yaw)))

    @classmethod
    def identity(cls) -> "Pose4":
        return cls(0.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, arr) -> "Pose4":
        tx, ty, tz, yaw = (float(v) for v in arr)
        return cls(tx, ty, tz, yaw)

    def as_array(self) -> np.ndarray:
        return np.array([self.tx, self.ty, self.tz, self.yaw])

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.tx, self.ty, self.tz])


def rotate_z(yaw: float, p) -> np.ndarray:
    """Rotate point(s) about the z axis by ``yaw`` radians."""
    p = np.asarray(p, dtype=np.float64)
    c, s = math.cos(yaw), math.sin(yaw)
    out = np.empty_like(p)
    out[..., 0] = c * p[..., 0] - s * p[..., 1]
    out[..., 1] = s * p[..., 0] + c * p[..., 1]
    out[..., 2] = p[..., 2]
    return out


def apply_pose(pose: Pose4, p) -> np.ndarray:
    """Map body-frame point(s) into the map frame: R_z(yaw) @ p + t."""
    out = rotate_z(pose.yaw, p)
    out[..., 0] += pose.tx
    out[..., 1] += pose.ty
    out[..., 2] += pose.tz
    return out


def compose(prev: Pose4, delta: Pose4) -> Pose4:
    """Advance ``prev`` by a body-frame increment.

    The translation part of ``delta`` is rotated into the map frame by
    prev.yaw before being added; yaw is summed and wrapped.
    """
    t = rotate_z(prev.yaw, delta.translation)
    return Pose4(prev.tx + t[0], prev.ty + t[1], prev.tz + t[2], prev.yaw + delta.yaw)


def pose_delta(prev: Pose4, curr: Pose4) -> Pose4:
    """Body-frame increment d with compose(prev, d) == curr (up to wrapping)."""
    dt_map = curr.translation - prev.translation
    dt_body = rotate_z(-prev.yaw, dt_map)
    return Pose4(dt_body[0], dt_body[1], dt_body[2], curr.yaw - prev.yaw)


def attitude_matrix(att: Attitude) -> np.ndarray:
    """Rotation R_y(pitch) @ R_x(roll) taking sensor coordinates to body."""
    cr, sr = math.cos(att.roll), math.sin(att.roll)
    cp, sp = math.cos(att.pitch), math.sin(att.pitch)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    return ry @ rx


def tilt_compensate(cloud: PointCloud, att: Attitude) -> PointCloud:
    """Rotate a sensor-frame cloud by the IMU attitude into the z-up body frame."""
    if cloud.frame is not Frame.SENSOR:
        raise FrameError(f"tilt_compensate expects a sensor-frame cloud, got '{cloud.frame.value}'")
    rot = attitude_matrix(att)
    return PointCloud(cloud.points @ rot.T, Frame.BODY)
