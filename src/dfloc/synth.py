"""Synthetic scenes, trajectories, scans, and odometry noise.

Everything here is deterministic per seed: a scenario seed is expanded
into independent child streams (scene, trajectory, per-step scans,
attitude wobble, odometry noise) so one integer replays a whole run.

Scans are produced by range-limited subsampling of the map rather than
ray casting. That is enough to exercise registration, which cares about
point geometry, not visibility; occlusion effects are a known fidelity
limitation.

Synthesis builds no search index over the map. A scan's in-range test
sums squared offsets one axis at a time, which gives the bits of the
(N, 3) reduction without its temporary. A trajectory's clearance is
checked exactly, by linear scan, against only the map points that fall
in the path's bounding box grown by the clearance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Attitude,
    Frame,
    PointCloud,
    Pose4,
    attitude_matrix,
    pose_delta,
    rotate_z,
    wrap_angle,
)
from .nnsearch import brute_force_distances
from .tracker import ScanFrame

SCENE_KINDS = ("box_room", "building_yard")

# Minimum pose-to-surface distance kept by generated trajectories.
TRAJECTORY_CLEARANCE = 0.5
# Seconds between consecutive frames of a generated scenario.
FRAME_DT = 0.1
# Standard deviation (rad) of each frame's roll and pitch, clipped to +-0.15 rad.
ATTITUDE_WOBBLE = 0.03


@dataclass(frozen=True)
class Scene:
    """A synthetic map cloud plus the volume it occupies."""

    map: PointCloud
    bounds: np.ndarray  # (2, 3): [min corner; max corner]

    def __post_init__(self):
        bounds = np.asarray(self.bounds, dtype=np.float64).reshape(2, 3).copy()
        if len(self.map) == 0:
            raise ValueError("scene map must be nonempty")
        if not np.isfinite(bounds).all() or (bounds[1] <= bounds[0]).any():
            raise ValueError("scene bounds must be finite and span a positive volume")
        pts = self.map.points
        if (pts < bounds[0]).any() or (pts > bounds[1]).any():
            raise ValueError("map points fall outside the declared bounds")
        bounds.setflags(write=False)
        object.__setattr__(self, "bounds", bounds)


@dataclass(frozen=True)
class NoiseSetup:
    """Gaussian corruption applied to odometry increments."""

    sigma_t: float = 0.0
    sigma_yaw: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.sigma_t < math.inf and 0.0 <= self.sigma_yaw < math.inf):
            raise ValueError("noise sigmas must be non-negative and finite")


@dataclass(frozen=True)
class ScanModel:
    """Scan generation parameters: range, size, point noise, clutter fraction."""

    max_range: float = 15.0
    points: int = 2000
    noise_sigma: float = 0.02
    outlier_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.max_range < math.inf:
            raise ValueError("max_range must be positive and finite")
        if self.points < 1:
            raise ValueError("points must be at least 1")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be non-negative and finite")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class ScenarioRun:
    """One benchmark unit: map cloud, ground truth, and the frames fed to a tracker.

    Frame odometry carries whatever noise the scenario was simulated with;
    the noiseless deltas recompose the ground-truth increments exactly.
    """

    map: PointCloud
    ground_truth: tuple[Pose4, ...]
    frames: tuple[ScanFrame, ...]

    def __post_init__(self):
        if len(self.ground_truth) != len(self.frames):
            raise ValueError("ground truth and frames must have equal length")
        if not self.frames:
            raise ValueError("a scenario needs at least one frame")
        times = [f.timestamp for f in self.frames]
        if not all(math.isfinite(t) for t in times):
            raise ValueError("frame timestamps must be finite")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("frame timestamps must be strictly increasing")
        object.__setattr__(self, "ground_truth", tuple(self.ground_truth))
        object.__setattr__(self, "frames", tuple(self.frames))


def _sample_faces(rng: np.random.Generator, faces: list[tuple[np.ndarray, np.ndarray]], density: float) -> np.ndarray:
    """Sample each rectangular face (origin, spanned by two edge vectors packed
    as rows of a (2, 3) array) uniformly at ``density`` points per square meter."""
    pieces = []
    for face_origin, edges in faces:
        area = np.linalg.norm(edges[0]) * np.linalg.norm(edges[1])
        count = max(1, round(area * density))
        uv = rng.random((count, 2))
        pieces.append(face_origin + uv[:, :1] * edges[0] + uv[:, 1:] * edges[1])
    return np.concatenate(pieces, axis=0)


def _box_faces(lo: np.ndarray, hi: np.ndarray, open_bottom: bool = False) -> list:
    ex = np.array([hi[0] - lo[0], 0.0, 0.0])
    ey = np.array([0.0, hi[1] - lo[1], 0.0])
    ez = np.array([0.0, 0.0, hi[2] - lo[2]])
    faces = [
        (lo, np.array([ex, ey])),  # bottom
        (np.array([lo[0], lo[1], hi[2]]), np.array([ex, ey])),  # top
        (lo, np.array([ex, ez])),  # y = lo side
        (np.array([lo[0], hi[1], lo[2]]), np.array([ex, ez])),  # y = hi side
        (lo, np.array([ey, ez])),  # x = lo side
        (np.array([hi[0], lo[1], lo[2]]), np.array([ey, ez])),  # x = hi side
    ]
    return faces[1:] if open_bottom else faces


def make_scene(kind: str, extent: float, density: float, seed: int = 0) -> Scene:
    """Generate a synthetic map cloud.

    box_room: hollow room of footprint extent x extent and height extent/2
    (floor, ceiling, four walls, uniformly sampled at ``density`` points
    per square meter). building_yard: ground plane with a few cuboid
    buildings. Deterministic per seed.
    """
    if kind not in SCENE_KINDS:
        raise ValueError(f"unknown scene kind '{kind}' (expected one of {SCENE_KINDS})")
    if not (0.0 < extent < math.inf and 0.0 < density < math.inf):
        raise ValueError("extent and density must be positive and finite")
    rng = np.random.default_rng(seed)
    if kind == "box_room":
        lo = np.zeros(3)
        hi = np.array([extent, extent, extent / 2.0])
        pts = _sample_faces(rng, _box_faces(lo, hi), density)
        return Scene(PointCloud(pts, Frame.MAP), np.array([lo, hi]))

    # building_yard: ground plane plus 3-5 cuboids with flight space above.
    height_cap = 0.45 * extent
    lo = np.zeros(3)
    hi = np.array([extent, extent, extent / 2.0])
    faces = [(lo, np.array([[extent, 0.0, 0.0], [0.0, extent, 0.0]]))]
    for _ in range(int(rng.integers(3, 6))):
        w, d = rng.uniform(0.12, 0.25, size=2) * extent
        h = rng.uniform(0.2, 1.0) * height_cap
        bx = rng.uniform(0.05 * extent, 0.95 * extent - w)
        by = rng.uniform(0.05 * extent, 0.95 * extent - d)
        faces.extend(_box_faces(np.array([bx, by, 0.0]), np.array([bx + w, by + d, h]), open_bottom=True))
    pts = _sample_faces(rng, faces, density)
    return Scene(PointCloud(pts, Frame.MAP), np.array([lo, hi]))


def make_trajectory(scene: Scene, steps: int, step_length: float, seed: int = 0) -> list[Pose4]:
    """Smooth closed-ish loop through the scene's free interior.

    The path follows a Lissajous-style figure fitted to the interior box,
    stepped at constant arc length: consecutive translation increments
    have norm step_length +-10%, per-step yaw change stays below 0.2 rad
    (so tracking without odometry remains well posed), and every pose
    keeps at least TRAJECTORY_CLEARANCE (plus a generation-time buffer)
    from the map surface. Loop shapes are drawn per seed and rejected
    until one satisfies clearance and turn-rate bounds; raises when the
    scene leaves no room. Clearance is the exact ``brute_force_distances``
    from each pose to the map points inside the path's bounding box grown
    by the buffer plus a margin; no other map point can be nearer than the
    buffer, so the decision is that of a search over the whole map.
    """
    if steps < 2:
        raise ValueError("a trajectory needs at least 2 steps")
    if not 0.0 < step_length < math.inf:
        raise ValueError(f"step_length must be positive and finite, got {step_length}")
    buffer = TRAJECTORY_CLEARANCE + 0.1
    lo = scene.bounds[0] + buffer
    hi = scene.bounds[1] - buffer
    if (hi <= lo).any():
        raise ValueError("scene too small for the required trajectory clearance")
    # A map point within `reach` of a pose lies in the path's bounding box grown by
    # `reach`; the margin over `buffer` is far above rounding in the distances.
    reach = buffer + 1e-3
    map_pts = scene.map.points
    rng = np.random.default_rng(seed)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # Prefer cruising above interior obstacles when the scene has them.
    top = float(map_pts[:, 2].max())
    if top + buffer + 0.1 < hi[2]:
        z_lo = max(lo[2], top + buffer + 0.1)
        z_mid = 0.5 * (z_lo + hi[2])
        z_amp_cap = 0.5 * (hi[2] - z_lo)
    else:
        z_mid = center[2]
        z_amp_cap = half[2]
    max_turn = 0.2

    def positions(amp, freq, phase, t):
        return np.stack(
            [
                center[0] + amp[0] * np.sin(freq[0] * t + phase[0]),
                center[1] + amp[1] * np.sin(freq[1] * t + phase[1]),
                z_mid + amp[2] * np.sin(freq[2] * t + phase[2]),
            ],
            axis=-1,
        )

    for trial in range(120):
        amp = np.array(
            [
                half[0] * rng.uniform(0.7, 0.92),
                half[1] * rng.uniform(0.7, 0.92),
                min(z_amp_cap * rng.uniform(0.2, 0.6), 0.15 * max(half[0], half[1])),
            ]
        )
        # Figure complexity backs off to a near-ellipse when tighter loops
        # keep violating the turn-rate bound (small rooms, long steps).
        if trial < 40:
            fy = rng.choice([2.0, 3.0]) + rng.uniform(-0.1, 0.1)
        elif trial < 80:
            fy = 2.0 + rng.uniform(-0.1, 0.1)
        else:
            fy = 1.0 + rng.uniform(0.05, 0.15)
        freq = np.array([1.0, fy, rng.uniform(1.5, 4.0)])
        phase = rng.uniform(0.0, 2.0 * math.pi, size=3)
        # arc-length stepping with jittered per-step targets
        t = rng.uniform(0.0, 2.0 * math.pi)
        pts = [positions(amp, freq, phase, t)]
        for _ in range(steps - 1):
            target = step_length * rng.uniform(0.9, 1.1)
            # velocity-scaled parameter step, refined once at the midpoint for arc accuracy
            vel = positions(amp, freq, phase, t + 1e-6) - positions(amp, freq, phase, t - 1e-6)
            speed = float(np.linalg.norm(vel)) / 2e-6
            if speed < 1e-9:
                break
            dt = target / speed
            cand = positions(amp, freq, phase, t + dt)
            chord = float(np.linalg.norm(cand - pts[-1]))
            if not abs(chord - target) < 0.02 * target:  # a NaN chord refines too
                t_mid = t + 0.5 * dt
                vel = positions(amp, freq, phase, t_mid + 1e-6) - positions(amp, freq, phase, t_mid - 1e-6)
                speed = max(float(np.linalg.norm(vel)) / 2e-6, 1e-9)
                dt = target / speed
                cand = positions(amp, freq, phase, t + dt)
            t += dt
            pts.append(cand)
        if len(pts) < steps:
            continue
        path = np.array(pts)
        deltas = np.diff(path, axis=0)
        norms = np.linalg.norm(deltas, axis=1)
        if norms.min() < 0.85 * step_length or norms.max() > 1.15 * step_length:
            continue
        yaws = np.arctan2(deltas[:, 1], deltas[:, 0])
        yaws = np.append(yaws, yaws[-1])
        turns = np.abs(wrap_angle(np.diff(yaws)))
        if turns.max() > max_turn:
            continue
        if (path < lo).any() or (path > hi).any():
            continue
        box = (map_pts >= path.min(axis=0) - reach) & (map_pts <= path.max(axis=0) + reach)
        near = map_pts[box.all(axis=1)]
        if len(near) and brute_force_distances(near, path).min() < buffer:
            continue
        return [Pose4(p[0], p[1], p[2], yaw) for p, yaw in zip(path, yaws)]
    raise ValueError("scene too small for the required trajectory clearance")


def true_odometry(poses: list[Pose4]) -> list[Pose4]:
    """Exact body-frame increments along a trajectory; index 0 is the identity."""
    deltas = [Pose4.identity()]
    for prev, curr in zip(poses, poses[1:]):
        deltas.append(pose_delta(prev, curr))
    return deltas


def simulate_scan(
    scene: Scene,
    pose: Pose4,
    attitude: Attitude,
    model: ScanModel,
    seed: int = 0,
) -> PointCloud:
    """Synthesize a sensor-frame scan taken at ``pose`` with the given attitude.

    Picks ``model.points`` map points within model.max_range of the sensor
    origin, expresses them in the sensor frame (inverse pose, then inverse
    tilt), adds isotropic Gaussian noise, and replaces
    floor(outlier_fraction * points) of them with uniform clutter inside
    the range ball. Raises when no map point is in range. A point is in
    range when its squared offset, summed one axis at a time as
    (x + y) + z, is at most max_range squared.
    """
    rng = np.random.default_rng(seed)
    pts, origin = scene.map.points, pose.translation
    # One axis at a time, summed (x + y) + z: the bits of ((pts - origin) ** 2).sum(axis=1)
    # without an (N, 3) temporary.
    d2 = np.square(pts[:, 0] - origin[0])
    d2 += np.square(pts[:, 1] - origin[1])
    d2 += np.square(pts[:, 2] - origin[2])
    in_range = np.flatnonzero(d2 <= model.max_range * model.max_range)
    if in_range.size == 0:
        raise ValueError(f"no map points within {model.max_range} m of the scan pose")
    pick = rng.choice(in_range, size=model.points, replace=in_range.size < model.points)
    body = rotate_z(-pose.yaw, pts[pick] - origin)
    # p_sensor = R^T p_body for R = attitude_matrix; row-stacked: body @ R.
    sensor = body @ attitude_matrix(attitude)
    sensor = sensor + rng.normal(0.0, model.noise_sigma, size=sensor.shape)
    n_out = int(model.outlier_fraction * model.points)
    if n_out:
        idx = rng.choice(model.points, size=n_out, replace=False)
        direction = rng.normal(size=(n_out, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = model.max_range * np.cbrt(rng.random(n_out))
        sensor[idx] = direction * radius[:, None]
    return PointCloud(sensor, Frame.SENSOR)


def corrupt_odometry(true_deltas, setup: NoiseSetup, seed: int) -> list[Pose4]:
    """Add per-component Gaussian noise to odometry increments.

    sigma_t applies to each translation axis, sigma_yaw to the yaw
    increment; zero sigmas return the inputs bit for bit. Deterministic
    per ``seed``.
    """
    rng = np.random.default_rng(seed)
    scale = np.array([setup.sigma_t, setup.sigma_t, setup.sigma_t, setup.sigma_yaw])
    out = []
    for d in true_deltas:
        n = rng.normal(0.0, scale)
        out.append(Pose4(d.tx + n[0], d.ty + n[1], d.tz + n[2], d.yaw + n[3]))
    return out


def make_scenario(
    scene: Scene,
    steps: int,
    step_length: float,
    model: ScanModel,
    noise: NoiseSetup,
    seed: int = 0,
) -> ScenarioRun:
    """Assemble a full tracking scenario over a prebuilt scene.

    Ground truth comes from make_trajectory; each frame gets a scan
    simulated at its true pose, a small random roll/pitch attitude, and
    the true odometry increment corrupted per ``noise``. All child seeds
    derive from ``seed``.
    """
    root = np.random.SeedSequence(seed)
    traj_seed, att_seed, noise_seed, scan_root = root.spawn(4)
    poses = make_trajectory(scene, steps, step_length, seed=traj_seed.generate_state(1)[0])
    att_rng = np.random.default_rng(att_seed)
    deltas = corrupt_odometry(true_odometry(poses), noise, int(noise_seed.generate_state(1)[0]))
    scan_seeds = [int(s.generate_state(1)[0]) for s in scan_root.spawn(steps)]
    frames = []
    for k, pose in enumerate(poses):
        att = Attitude(
            float(np.clip(att_rng.normal(0.0, ATTITUDE_WOBBLE), -0.15, 0.15)),
            float(np.clip(att_rng.normal(0.0, ATTITUDE_WOBBLE), -0.15, 0.15)),
        )
        cloud = simulate_scan(scene, pose, att, model, seed=scan_seeds[k])
        frames.append(ScanFrame(cloud, att, deltas[k], k * FRAME_DT))
    return ScenarioRun(scene.map, tuple(poses), tuple(frames))
