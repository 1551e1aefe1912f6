"""Robust damped least-squares over the 4-DOF state [tx, ty, tz, yaw].

Minimizes sum_i rho(r_i(x)^2) by Levenberg-Marquardt on the reweighted
normal equations: each iteration solves

    (J^T W J + lam * diag(J^T W J)) delta = -J^T W r

with w_i = rho'(r_i^2), accepts the step only if the robust cost drops,
and scales the damping down on acceptance / up on rejection. The residual
provider is any callable pose -> (r, J) returning finite residuals (N,)
and Jacobians (N, 4). The report keeps the provider's outputs at the start
and at the result, so a caller never has to evaluate either pose again.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import Pose4

ResidualProvider = Callable[[Pose4], tuple[np.ndarray, np.ndarray]]

# Damping beyond this means no progress is numerically possible.
_MAX_DAMPING = 1e100
# Factors applied to the damping lam after a rejected / an accepted step.
DAMPING_INCREASE = 10.0
DAMPING_DECREASE = 0.5


class Termination(enum.Enum):
    PARAM_TOL = "param_tol"
    COST_TOL = "cost_tol"
    MAX_ITER = "max_iter"
    NUMERICAL_FAILURE = "numerical_failure"


def cauchy_rho(s, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Cauchy robust cost and derivative for squared residual(s) ``s``.

    rho(s) = c^2 * log(1 + s/c^2) with c = scale; rho'(s) = 1/(1 + s/c^2).
    The derivative is the per-residual weight in the reweighted system:
    1 at zero residual, decaying toward 0 as the residual grows, which is
    what suppresses unmapped clutter.
    """
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    s = np.asarray(s, dtype=np.float64)
    c2 = scale * scale
    t = s / c2
    return c2 * np.log1p(t), 1.0 / (1.0 + t)


@dataclass(frozen=True)
class RobustLoss:
    """Cauchy loss of width ``scale`` applied to each squared residual."""

    scale: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"loss scale must be positive and finite, got {self.scale}")

    def cost_and_weights(self, r: np.ndarray) -> tuple[float, np.ndarray]:
        rho, w = cauchy_rho(r * r, self.scale)
        return float(rho.sum()), w


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget, stopping tolerances and starting damping.

    ``param_tolerance`` stops a solve once the largest step component
    falls below it (meters or radians); 1e-4 is far below a field cell and
    the scan noise. ``initial_damping`` is the starting lam: 0.1 damps the
    first step of a solve that starts near its optimum, where an undamped
    Gauss-Newton step tends to overshoot and be rejected; lam is then
    scaled by DAMPING_DECREASE after each accepted step and by
    DAMPING_INCREASE after each rejected one. ``dll_register``
    runs both of its passes under these options; its coarse pass only
    loosens the step tolerance to at least ``COARSE_PARAM_TOLERANCE`` and
    sets the Cauchy width to ``COARSE_CAUCHY_SCALE`` (both in
    ``registration``).
    """

    max_iterations: int = 50
    param_tolerance: float = 1e-4
    cost_tolerance: float = 1e-8
    initial_damping: float = 0.1

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        for name in ("param_tolerance", "cost_tolerance", "initial_damping"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve.

    ``evaluations`` counts the provider calls the solve made: every trial
    step, accepted or rejected, plus the start unless it was handed in.
    ``initial_evaluation`` and ``final_evaluation`` are the provider's
    outputs at ``x0`` and at ``final_params``, as returned. ``converged``
    holds when the solve stopped on a tolerance.
    """

    final_params: Pose4
    initial_cost: float
    final_cost: float
    iterations: int
    termination: Termination
    evaluations: int
    initial_evaluation: tuple | None = field(default=None, repr=False, compare=False)
    final_evaluation: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.termination in (Termination.PARAM_TOL, Termination.COST_TOL)


def _weigh(evaluation, loss: RobustLoss):
    r = np.asarray(evaluation[0], dtype=np.float64)
    jac = np.asarray(evaluation[1], dtype=np.float64)
    cost, w = loss.cost_and_weights(r)
    return r, jac, cost, w


def solve_lm(
    residuals: ResidualProvider,
    x0: Pose4,
    loss: RobustLoss = RobustLoss(),
    opts: SolverOptions = SolverOptions(),
    start: tuple | None = None,
) -> SolveReport:
    """Run the damped iteration from ``x0`` until a tolerance or budget hits.

    ``loss`` is any object with ``cost_and_weights(r) -> (cost, weights)``:
    the total cost of the residuals ``r`` and the per-residual weights
    ``rho'(r^2)`` of the reweighted system. ``start``, when given, is the
    provider's output at ``x0`` (for example an earlier solve's
    ``final_evaluation``); the solve then does not evaluate ``x0`` again.
    Accepted robust costs are strictly decreasing; yaw is re-wrapped after
    every accepted step (Pose4 wraps on construction). Deterministic:
    identical inputs produce a bitwise identical report.
    """
    x = x0.as_array()
    pose = Pose4.from_array(x)
    evaluations = 0
    if start is None:
        start = residuals(pose)
        evaluations = 1
    evaluation = start
    r, jac, cost, w = _weigh(evaluation, loss)
    initial_cost = cost
    if not np.isfinite(cost):
        return SolveReport(pose, initial_cost, cost, 0, Termination.NUMERICAL_FAILURE,
                           evaluations, start, evaluation)

    lam = opts.initial_damping
    iterations = 0
    termination = Termination.MAX_ITER
    for _ in range(opts.max_iterations):
        iterations += 1
        wj = jac * w[:, None]
        normal = wj.T @ jac
        gradient = jac.T @ (w * r)
        if not (np.isfinite(normal).all() and np.isfinite(gradient).all()):
            termination = Termination.NUMERICAL_FAILURE
            break
        damp_scale = np.maximum(np.diag(normal), 1e-12)

        # Set by a rejected step: the next step, shrunk by the raised
        # damping, is tried even if it is below the tolerance, because its
        # size then reflects lam more than the distance to the optimum.
        try_small = False
        while True:
            try:
                delta = np.linalg.solve(normal + lam * np.diag(damp_scale), -gradient)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.isfinite(delta).all():
                small = np.abs(delta).max() < opts.param_tolerance
                if small and not try_small:
                    # The admissible step is below resolution: converged
                    # (this also ends a rejected-step spiral, where lam
                    # blows up and delta shrinks to nothing).
                    termination = Termination.PARAM_TOL
                    break
                pose_new = Pose4.from_array(x + delta)
                trial = residuals(pose_new)
                evaluations += 1
                r_new, jac_new, cost_new, w_new = _weigh(trial, loss)
                if np.isfinite(cost_new) and cost_new < cost:
                    drop = cost - cost_new
                    x = pose_new.as_array()
                    pose, evaluation, r, jac, w = pose_new, trial, r_new, jac_new, w_new
                    cost = cost_new
                    lam = max(lam * DAMPING_DECREASE, 1e-15)
                    if drop < opts.cost_tolerance * max(cost, 1e-300):
                        termination = Termination.COST_TOL
                    break
                try_small = not small
            # A singular, non-finite or rejected step: damp harder.
            lam *= DAMPING_INCREASE
            if lam > _MAX_DAMPING:
                termination = Termination.NUMERICAL_FAILURE
                break

        if termination is not Termination.MAX_ITER:
            break

    return SolveReport(pose, initial_cost, cost, iterations, termination,
                       evaluations, start, evaluation)
