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
from .nnsearch import KdTree3
from .solver import (
    LossKind,
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
    0.1 m correspondence radius, 1.0 m outlier rejection)."""

    max_iterations: int = 50
    max_correspondence_distance: float = 0.1
    outlier_rejection_threshold: float = 1.0
    convergence_epsilon: float = 1e-9

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        for name in ("max_correspondence_distance", "outlier_rejection_threshold", "convergence_epsilon"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


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
    fine pass and ``coarse_report`` the coarse pass (None when it did not
    run); ICP results carry no coarse report."""

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
    for the yaw column. An out-of-volume point gets the constant residual
    ``grid.max_distance`` (no smaller than any in-volume value) and a zero
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
        if not inside.all():
            zero = ~inside
            value = np.where(zero, grid.max_distance, value)
            gx = np.where(zero, 0.0, gx)
            gy = np.where(zero, 0.0, gy)
            gz = np.where(zero, 0.0, gz)
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


COARSE_CAUCHY_SCALE = 1.0
# The coarse pass starts nearly undamped, whatever SolverOptions says
# (that sets the fine pass), so that its first steps toward the basin are
# long ones.
COARSE_INITIAL_DAMPING = 1e-4


def dll_register(
    cloud: PointCloud,
    grid: DfGrid,
    guess: Pose4,
    loss: RobustLoss = RobustLoss(),
    opts: SolverOptions = SolverOptions(),
    coarse_scale: float = COARSE_CAUCHY_SCALE,
) -> RegistrationResult:
    """Refine ``guess`` by minimizing the robust distance-field objective.

    With a narrow Cauchy kernel the robust cost flattens around guesses
    more than a few kernel widths off, so the refinement is scheduled
    coarse-to-fine: one pass with the kernel widened to ``coarse_scale``,
    then the configured loss, started from whichever of the guess and the
    coarse result scores better under the final loss. The returned cost
    therefore never exceeds the cost at the guess. Each pose is evaluated
    once: the fine pass starts from the coarse pass's own evaluation.

    Raises UnobservableCloudError when no point lands inside the grid at
    the guess (the pose is unconstrained there), and RegistrationError if
    the solver reports a numerical failure.
    """
    _check_registration_cloud(cloud)
    start = time.perf_counter()
    provider = df_residuals(grid, cloud.points)
    coarse = None
    x0, at_x0 = guess, None
    if loss.kind is LossKind.CAUCHY and coarse_scale > loss.scale:
        # The coarse pass only has to reach the right basin; a loose step
        # tolerance and a short iteration budget keep it cheap, polishing
        # is the fine pass's job.
        coarse_opts = replace(
            opts,
            param_tolerance=max(opts.param_tolerance, 1e-2),
            max_iterations=min(opts.max_iterations, 15),
            initial_damping=COARSE_INITIAL_DAMPING,
        )
        coarse = solve_lm(provider, guess, RobustLoss(LossKind.CAUCHY, coarse_scale), coarse_opts)
        at_x0 = coarse.initial_evaluation
        if coarse.termination is not Termination.NUMERICAL_FAILURE:
            cost_guess, _ = loss.cost_and_weights(at_x0[0])
            cost_pre, _ = loss.cost_and_weights(coarse.final_evaluation[0])
            if cost_pre < cost_guess:
                x0, at_x0 = coarse.final_params, coarse.final_evaluation
    report = solve_lm(provider, x0, loss, opts, start=at_x0)
    # Checked after the solves, from their evaluation at the guess: with no
    # point inside, every residual is the same constant and the solves stop
    # at once.
    at_guess = (coarse if coarse is not None else report).initial_evaluation
    if not at_guess.inside.any():
        raise UnobservableCloudError(
            f"all {len(cloud)} points fall outside the distance field at the initial guess"
        )
    if report.termination is Termination.NUMERICAL_FAILURE:
        raise RegistrationError("solver reported a numerical failure")
    elapsed = time.perf_counter() - start
    used = int(report.final_evaluation.inside.sum())
    return RegistrationResult(report.final_params, report, elapsed, used, len(cloud) - used, coarse)


def align_4dof(source: np.ndarray, target: np.ndarray, weights: np.ndarray | None = None) -> Pose4:
    """Closed-form weighted least-squares alignment of paired points.

    Returns the pose minimizing sum_i w_i ||R_z(yaw) src_i + t - dst_i||^2:
    yaw from the planar correlation of centered pairs, translation from
    the weighted centroids.
    """
    src = np.asarray(source, dtype=np.float64)
    dst = np.asarray(target, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError("source and target must be matching (N, 3) arrays")
    if weights is None:
        weights = np.ones(src.shape[0])
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    if not total > 0.0:
        raise ValueError("alignment needs a positive total weight")
    src_c = (w @ src) / total
    dst_c = (w @ dst) / total
    sp = src - src_c
    tp = dst - dst_c
    corr = (w * (sp[:, 0] * tp[:, 0] + sp[:, 1] * tp[:, 1])).sum()
    cross = (w * (sp[:, 0] * tp[:, 1] - sp[:, 1] * tp[:, 0])).sum()
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

    Pairs beyond max_correspondence_distance are discarded; pairs beyond
    outlier_rejection_threshold keep zero weight. Raises
    NoCorrespondencesError when an iteration is left with no usable pair.
    """
    _check_registration_cloud(cloud)
    start = time.perf_counter()
    pts = cloud.points
    pose = guess
    iterations = 0
    converged = False
    cost = math.inf
    n_used = 0
    for _ in range(opts.max_iterations):
        iterations += 1
        mapped = apply_pose(pose, pts)
        matches, dist = map_index.nearest_many(mapped)
        keep = dist <= opts.max_correspondence_distance
        if not keep.any():
            raise NoCorrespondencesError(
                f"no correspondences within {opts.max_correspondence_distance} m at iteration {iterations}"
            )
        w = np.where(dist[keep] <= opts.outlier_rejection_threshold, 1.0, 0.0)
        if not w.any():
            raise NoCorrespondencesError(
                f"all correspondences rejected as outliers at iteration {iterations}"
            )
        new_pose = align_4dof(pts[keep], matches[keep], w)
        residual = apply_pose(new_pose, pts[keep]) - matches[keep]
        cost = float((w * (residual**2).sum(axis=1)).sum())
        n_used = int((w > 0.0).sum())
        change = np.abs(new_pose.as_array() - pose.as_array())
        change[3] = abs(float(wrap_angle(new_pose.yaw - pose.yaw)))
        pose = new_pose
        if change.max() < opts.convergence_epsilon:
            converged = True
            break
    elapsed = time.perf_counter() - start
    report = IcpReport(iterations, cost, converged, n_used)
    return RegistrationResult(pose, report, elapsed, n_used, len(cloud) - n_used)
