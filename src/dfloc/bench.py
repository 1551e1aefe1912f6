"""Benchmark harness: run a tracker over a scenario under an odometry mode.

Modes reproduce the robustness protocol:

* ``baseline``   - use the scenario's stored odometry increments as-is.
* ``noodom``     - ignore odometry; each step starts from the previous solution.
* ``midnoise``   - add Gaussian noise (0.25 m per axis, 0.05 rad yaw) to
  the stored increments.
* ``largenoise`` - same with 0.5 m per axis and 0.1 rad yaw.

A run is flagged diverged when a step fails outright or lands more than
DIVERGENCE_RADIUS from ground truth.
Per-scan times are taken strictly around the registration call; the
offline grid / index build is never included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .distance_field import DfGrid
from .evaluation import BenchRow, rmse_translation, rmse_yaw
from .formats import RunConfig, TrajectoryRow, ground_truth_rows
from .geometry import PointCloud, Pose4
from .nnsearch import KdTree3
from .registration import RegistrationResult, dll_register, icp_register
from .synth import NoiseSetup, ScenarioRun, corrupt_odometry
from .tracker import ScanFrame, TrackStepError, advance, init_tracker

MODES = ("baseline", "noodom", "midnoise", "largenoise")
METHODS = ("dll", "icp")

MODE_NOISE = {"midnoise": NoiseSetup(0.25, 0.05), "largenoise": NoiseSetup(0.5, 0.1)}

# Translation error beyond which a run counts as diverged.
DIVERGENCE_RADIUS = 5.0


def mode_frames(scenario: ScenarioRun, mode: str, seed: int) -> tuple[ScanFrame, ...]:
    """Apply an odometry treatment to the scenario's frames."""
    if mode not in MODES:
        raise ValueError(f"unknown mode '{mode}' (expected one of {MODES})")
    frames = scenario.frames
    if mode == "baseline":
        return frames
    if mode == "noodom":
        return tuple(replace(f, odom=None) for f in frames)
    noisy = corrupt_odometry([f.odom for f in frames], MODE_NOISE[mode], seed)
    return tuple(replace(f, odom=d) for f, d in zip(frames, noisy))


@dataclass(frozen=True)
class TrackingRun:
    """Outcome of tracking one scenario under one method and mode."""

    method: str
    mode: str
    rows: list[TrajectoryRow]
    step_times: np.ndarray
    divergence_step: int | None

    @property
    def diverged(self) -> bool:
        return self.divergence_step is not None


def run_tracking(
    scenario: ScenarioRun,
    method: str,
    mode: str,
    grid: DfGrid | None = None,
    map_index: KdTree3 | None = None,
    cfg: RunConfig = RunConfig(),
) -> TrackingRun:
    """Track every frame of a scenario; returns estimates, timings, divergence.

    The tracker starts from the true initial pose. ``grid`` is required
    for the field method, ``map_index`` for the ICP baseline. Of ``cfg``
    only the seed is read: it seeds the mode's odometry noise.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}' (expected one of {METHODS})")
    if method == "dll" and grid is None:
        raise ValueError("the field method needs a distance-field grid")
    if method == "icp" and map_index is None:
        raise ValueError("the icp baseline needs a map index")

    def register(body: PointCloud, guess: Pose4) -> RegistrationResult:
        if method == "dll":
            return dll_register(body, grid, guess)
        return icp_register(body, map_index, guess)

    if method == "dll":
        grid.band  # a grid fits its band on first use: fit it before any scan is timed
    rows: list[TrajectoryRow] = []
    times: list[float] = []
    divergence_step: int | None = None
    state = init_tracker(scenario.ground_truth[0])
    for k, frame in enumerate(mode_frames(scenario, mode, cfg.seed)):
        try:
            state = advance(state, frame, register)
        except TrackStepError:
            divergence_step = k
            break
        p = state.current_pose
        rows.append(TrajectoryRow(frame.timestamp, p))
        times.append(state.last_result.elapsed)
        if np.linalg.norm(p.translation - scenario.ground_truth[k].translation) > DIVERGENCE_RADIUS:
            divergence_step = k
            break
    return TrackingRun(method, mode, rows, np.array(times), divergence_step)


def bench_row(run: TrackingRun, scenario: ScenarioRun) -> BenchRow:
    """Summarize a tracking run against the scenario's ground truth."""
    dt_mean = float(run.step_times.mean()) if run.step_times.size else None
    dt_dev = float(run.step_times.std()) if run.step_times.size else None
    if run.diverged:
        return BenchRow(run.method, run.mode, None, None, None, None, dt_mean, dt_dev, True)
    gt = ground_truth_rows(scenario)
    rt, rt_dev = rmse_translation(run.rows, gt)
    ra, ra_dev = rmse_yaw(run.rows, gt)
    return BenchRow(run.method, run.mode, rt, rt_dev, ra, ra_dev, dt_mean, dt_dev, False)


def run_benchmark(
    scenario: ScenarioRun, grid: DfGrid, map_index: KdTree3, cfg: RunConfig = RunConfig()
) -> list[BenchRow]:
    """Run every method under every odometry mode, seeded by ``cfg``, and summarize each."""
    return [
        bench_row(run_tracking(scenario, method, mode, grid, map_index, cfg), scenario)
        for method in METHODS
        for mode in MODES
    ]
