"""Scan-to-map registrars sharing one result contract.

Two methods are provided:

* ``dll_register`` refines a 4-DOF pose by minimizing the interpolated
  distance field at the transformed scan points. No correspondence
  search; the per-point residual is the field value and its Jacobian
  comes from the analytic field gradient via the chain rule.
* ``icp_register`` is the classic baseline: alternate nearest-map-point
  correspondences with a closed-form 4-DOF alignment until the transform
  stops moving.

Both take a tilt-compensated body-frame cloud and an initial guess, and
both are pure functions of their inputs (safe to run concurrently
against the same grid or index).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

# query_many is no longer called here. It stays importable from this module
# because perfbench/tracing.py wraps it under this name to count calls.
from .distance_field import DfGrid, query_columns, query_many  # noqa: F401
from .geometry import (
    Frame,
    FrameError,
    PointCloud,
    Pose4,
    apply_pose,
    rotate_z,
    wrap_angle,
)
from .nnsearch import KdTree3, nearest_moving
from .solver import (
    ResidualProvider,
    RobustLoss,
    SolveReport,
    SolverOptions,
    Termination,
    solve_lm,
)


class RegistrationError(RuntimeError):
    """Registration could not produce a pose."""


class UnobservableCloudError(RegistrationError):
    """Every input point fell outside the distance-field volume."""


class NoCorrespondencesError(RegistrationError):
    """An ICP iteration found no usable point pairs."""


@dataclass(frozen=True)
class IcpOptions:
    """ICP configuration; defaults follow the baseline setup (50 iterations,
    0.1 m correspondence radius)."""

    max_iterations: int = 50
    max_correspondence_distance: float = 0.1
    convergence_epsilon: float = 1e-9

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        for name in ("max_correspondence_distance", "convergence_epsilon"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class IcpReport:
    iterations: int
    final_cost: float
    converged: bool
    correspondences: int


@dataclass(frozen=True)
class RegistrationResult:
    """Refined pose plus diagnostics. points_used + points_out_of_map always
    equals the input cloud size. For ``dll_register``, ``report`` is the
    fine pass and ``coarse_report`` the coarse pass; ICP results carry no
    coarse report."""

    pose: Pose4
    report: SolveReport | IcpReport
    elapsed: float
    points_used: int
    points_out_of_map: int
    coarse_report: SolveReport | None = None


class FieldEvaluation(tuple):
    """``(residuals, jacobian)`` of the field objective at one pose, with the
    points' in-volume mask as ``inside``. It unpacks as the pair the solver
    expects."""

    def __new__(cls, residuals: np.ndarray, jacobian: np.ndarray, inside: np.ndarray):
        evaluation = super().__new__(cls, (residuals, jacobian))
        evaluation.inside = inside
        return evaluation


def df_residuals(grid: DfGrid, body_points: np.ndarray) -> ResidualProvider:
    """Residual provider for the field objective.

    At pose T, residual i is DF(T p_i); the Jacobian row is the field
    gradient for the three translation columns and gradient . d(R_z p)/dyaw
    for the yaw column. An out-of-volume point gets the field's off-volume
    value from ``query_columns``, the constant ``grid.max_distance`` (no
    smaller than any in-volume value), and a zero gradient, hence a zero
    Jacobian row: it pulls on no parameter, but leaving the grid never
    lowers the cost, so the solver cannot improve its objective by pushing
    points off the map. Since d(R_z p)/dyaw = (-ry, rx, 0)
    with (rx, ry) the rotated point, the yaw column comes straight from
    the already-transformed coordinates. Each call returns a
    ``FieldEvaluation``.
    """
    pts = np.asarray(body_points, dtype=np.float64)
    px = np.ascontiguousarray(pts[:, 0])
    py = np.ascontiguousarray(pts[:, 1])
    pz = np.ascontiguousarray(pts[:, 2])

    def provider(pose: Pose4) -> tuple[np.ndarray, np.ndarray]:
        c, s = math.cos(pose.yaw), math.sin(pose.yaw)
        rx = c * px - s * py
        ry = s * px + c * py
        value, gx, gy, gz, inside = query_columns(grid, rx + pose.tx, ry + pose.ty, pz + pose.tz)
        jac = np.empty((pts.shape[0], 4))
        jac[:, 0] = gx
        jac[:, 1] = gy
        jac[:, 2] = gz
        jac[:, 3] = gy * rx - gx * ry
        return FieldEvaluation(value, jac, inside)

    return provider


def _check_registration_cloud(cloud: PointCloud) -> None:
    if cloud.frame is not Frame.BODY:
        raise FrameError(
            f"registration expects a tilt-compensated body-frame cloud, got '{cloud.frame.value}'"
        )
    if len(cloud) == 0:
        raise ValueError("cannot register an empty cloud")


# Cauchy width and step-tolerance floor of dll_register's coarse pass.
COARSE_CAUCHY_SCALE = 1.0
COARSE_PARAM_TOLERANCE = 1e-2


def dll_register(
    cloud: PointCloud,
    grid: DfGrid,
    guess: Pose4,
    loss: RobustLoss = RobustLoss(),
    opts: SolverOptions = SolverOptions(),
) -> RegistrationResult:
    """Refine ``guess`` by minimizing the robust distance-field objective.

    With a narrow Cauchy kernel the robust cost flattens around guesses
    more than a few kernel widths off, so the refinement is scheduled
    coarse-to-fine: one pass with the kernel width set to
    ``COARSE_CAUCHY_SCALE``, then ``loss``, started from whichever of the
    guess and the coarse result scores better under ``loss``. The returned
    cost therefore never exceeds the cost at the guess. Both passes run
    under ``opts``; the coarse pass only loosens the step tolerance to at
    least ``COARSE_PARAM_TOLERANCE``. Each pose is evaluated once: the
    fine pass starts from the coarse pass's own evaluation.

    Raises UnobservableCloudError when no point lands inside the grid at
    the guess (the pose is unconstrained there), and RegistrationError if
    the solver reports a numerical failure.
    """
    _check_registration_cloud(cloud)
    start = time.perf_counter()
    provider = df_residuals(grid, cloud.points)
    # The coarse pass only has to reach the right basin; a loose step
    # tolerance keeps it cheap, polishing is the fine pass's job.
    coarse_opts = replace(opts, param_tolerance=max(opts.param_tolerance, COARSE_PARAM_TOLERANCE))
    coarse = solve_lm(provider, guess, RobustLoss(COARSE_CAUCHY_SCALE), coarse_opts)
    x0, at_x0 = guess, coarse.initial_evaluation
    # With no point inside, every residual is the same constant and the
    # coarse pass stopped at once.
    if not at_x0.inside.any():
        raise UnobservableCloudError(
            f"all {len(cloud)} points fall outside the distance field at the initial guess"
        )
    if coarse.termination is not Termination.NUMERICAL_FAILURE:
        cost_guess, _ = loss.cost_and_weights(at_x0[0])
        cost_pre, _ = loss.cost_and_weights(coarse.final_evaluation[0])
        if cost_pre < cost_guess:
            x0, at_x0 = coarse.final_params, coarse.final_evaluation
    report = solve_lm(provider, x0, loss, opts, start=at_x0)
    if report.termination is Termination.NUMERICAL_FAILURE:
        raise RegistrationError("solver reported a numerical failure")
    elapsed = time.perf_counter() - start
    used = int(report.final_evaluation.inside.sum())
    return RegistrationResult(report.final_params, report, elapsed, used, len(cloud) - used, coarse)


def align_4dof(source: np.ndarray, target: np.ndarray) -> Pose4:
    """Closed-form least-squares alignment of paired points.

    Returns the pose minimizing sum_i ||R_z(yaw) src_i + t - dst_i||^2:
    yaw from the planar correlation of centered pairs, translation from
    the centroids.
    """
    src = np.asarray(source, dtype=np.float64)
    dst = np.asarray(target, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError("source and target must be matching (N, 3) arrays")
    n = src.shape[0]
    if n == 0:
        raise ValueError("alignment needs at least one point pair")
    # On (N, 3) arrays a product with ones is about ten times faster than mean(axis=0).
    ones = np.ones(n)
    src_c = (ones @ src) / n
    dst_c = (ones @ dst) / n
    sp = src - src_c
    tp = dst - dst_c
    corr = (sp[:, 0] * tp[:, 0] + sp[:, 1] * tp[:, 1]).sum()
    cross = (sp[:, 0] * tp[:, 1] - sp[:, 1] * tp[:, 0]).sum()
    yaw = math.atan2(cross, corr) if (cross != 0.0 or corr != 0.0) else 0.0
    t = dst_c - rotate_z(yaw, src_c)
    return Pose4(t[0], t[1], t[2], yaw)


def icp_register(
    cloud: PointCloud,
    map_index: KdTree3,
    guess: Pose4,
    opts: IcpOptions = IcpOptions(),
) -> RegistrationResult:
    """Iterative-closest-point baseline restricted to [tx, ty, tz, yaw].

    Pairs beyond max_correspondence_distance are discarded; the rest weigh
    equally. Raises NoCorrespondencesError when an iteration is left with
    no pair.
    """
    _check_registration_cloud(cloud)
    start = time.perf_counter()
    pts = cloud.points
    pose = guess
    iterations = 0
    converged = False
    held = None
    for _ in range(opts.max_iterations):
        iterations += 1
        mapped = apply_pose(pose, pts)
        matches, dist, held = nearest_moving(map_index, mapped, held)
        keep = dist <= opts.max_correspondence_distance
        if not keep.any():
            raise NoCorrespondencesError(
                f"no correspondences within {opts.max_correspondence_distance} m at iteration {iterations}"
            )
        src, dst = pts[keep], matches[keep]
        new_pose = align_4dof(src, dst)
        change = np.abs(new_pose.as_array() - pose.as_array())
        change[3] = abs(float(wrap_angle(new_pose.yaw - pose.yaw)))
        pose = new_pose
        if change.max() < opts.convergence_epsilon:
            converged = True
            break
    cost = float(((apply_pose(pose, src) - dst) ** 2).sum(axis=1).sum())
    n_used = len(src)
    elapsed = time.perf_counter() - start
    report = IcpReport(iterations, cost, converged, n_used)
    return RegistrationResult(pose, report, elapsed, n_used, len(cloud) - n_used)
