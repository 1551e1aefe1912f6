"""Sequential pose tracking: predict with odometry, compensate tilt, register.

``advance`` is the one tracking step. It composes the previous estimate
with the body-frame odometry increment (or reuses the previous estimate
when no odometry is available), tilt-compensates the sensor cloud with
the frame's IMU attitude, and hands the body-frame cloud and the guess to
a registrar, ``(body, guess) -> RegistrationResult``. ``track_step`` is
``advance`` with the distance-field registrar (``dll_register``); the
benchmark passes an ICP registrar to the same step. A tracker is a
sequential state machine; distinct trackers over the same grid may run
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .distance_field import DfGrid
from .geometry import Attitude, PointCloud, Pose4, compose, tilt_compensate
from .registration import RegistrationError, RegistrationResult, dll_register

Registrar = Callable[[PointCloud, Pose4], RegistrationResult]


@dataclass(frozen=True)
class ScanFrame:
    """One tracking input: sensor cloud, IMU attitude, odometry increment.

    odom is None when no odometry is available for the step; the tracker
    then falls back to the previous solution as its initial guess.
    """

    cloud: PointCloud
    attitude: Attitude
    odom: Pose4 | None
    timestamp: float


@dataclass(frozen=True)
class TrackerState:
    current_pose: Pose4
    last_result: RegistrationResult | None
    step_index: int


class TrackStepError(RuntimeError):
    """A tracking step failed; carries the step index for the caller's recovery policy."""

    def __init__(self, step_index: int, cause: Exception):
        super().__init__(f"tracking step {step_index} failed: {cause}")
        self.step_index = step_index


def init_tracker(initial_pose: Pose4) -> TrackerState:
    """Start (or restart) tracking from a known pose at step 0."""
    return TrackerState(initial_pose, None, 0)


def advance(state: TrackerState, frame: ScanFrame, register: Registrar) -> TrackerState:
    """Advance the tracker by one frame with ``register`` and return the new state.

    On registration failure the previous state is left untouched and a
    TrackStepError is raised; holding the last pose (rather than silent
    dead reckoning) keeps degradation explicit.
    """
    if frame.odom is not None:
        guess = compose(state.current_pose, frame.odom)
    else:
        guess = state.current_pose
    body = tilt_compensate(frame.cloud, frame.attitude)
    try:
        result = register(body, guess)
    except (RegistrationError, ValueError) as exc:
        raise TrackStepError(state.step_index, exc) from exc
    return TrackerState(result.pose, result, state.step_index + 1)


def track_step(state: TrackerState, frame: ScanFrame, grid: DfGrid) -> TrackerState:
    """Advance the tracker by one frame, registering against the distance field."""
    # dll_register is looked up in this module on each call, so a wrapper
    # installed as tracker.dll_register (tracing, tests) sees every step.
    return advance(state, frame, lambda body, guess: dll_register(body, grid, guess))
