import math
from dataclasses import replace

import numpy as np
import pytest

from dfloc import solver
from dfloc.geometry import Pose4
from dfloc.registration import PARAM_TOLERANCE
from dfloc.solver import (
    RobustLoss,
    Termination,
    solve_lm,
)


class QuadraticLoss:
    """Plain least squares, through the loss contract of ``solve_lm``."""

    def cost_and_weights(self, r):
        s = r * r
        return float(s.sum()), np.ones_like(s)


QUADRATIC = QuadraticLoss()


def quadratic_toy(target=5.0):
    def provider(pose):
        r = np.array([pose.tx - target])
        jac = np.array([[1.0, 0.0, 0.0, 0.0]])
        return r, jac

    return provider


def linear_lsq(a, b):
    """Residuals r = A x - b over the 4-vector state."""

    def provider(pose):
        x = pose.as_array()
        return a @ x - b, a.copy()

    return provider


def test_cauchy_rho_zero():
    rho, drho = RobustLoss(0.1).cost_and_weights(np.array([0.0]))
    assert rho == 0.0 and drho[0] == 1.0


def test_cauchy_rho_large_s_suppressed():
    # A squared residual of 1e6.
    _, drho = RobustLoss(0.1).cost_and_weights(np.array([1e3]))
    assert drho[0] < 1e-7


def test_cauchy_rho_reference_value():
    # A squared residual of 0.01, the square of the scale.
    rho, drho = RobustLoss(0.1).cost_and_weights(np.array([0.1]))
    assert rho == pytest.approx(0.01 * math.log(2.0))
    assert drho[0] == pytest.approx(0.5)


def test_cauchy_requires_positive_scale():
    with pytest.raises(ValueError):
        RobustLoss(0.0)
    with pytest.raises(ValueError):
        RobustLoss(-1.0)
    with pytest.raises(ValueError):
        RobustLoss(math.inf)
    with pytest.raises(ValueError):
        RobustLoss(math.nan)


def test_zero_residual_start_converges_immediately():
    def provider(pose):
        return np.zeros(3), np.zeros((3, 4))

    report = solve_lm(provider, Pose4(1.0, 2.0, 3.0, 0.5), RobustLoss(0.1), PARAM_TOLERANCE)
    assert report.converged
    assert report.iterations <= 1
    assert report.final_params == Pose4(1.0, 2.0, 3.0, 0.5)


def test_quadratic_toy_converges(monkeypatch):
    monkeypatch.setattr(solver, "COST_TOLERANCE", 1e-16)
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 50)
    report = solve_lm(quadratic_toy(), Pose4.identity(), QUADRATIC, 1e-12)
    assert report.converged
    assert report.final_params.tx == pytest.approx(5.0, abs=1e-8)


def test_linear_problem_reaches_closed_form_quickly(monkeypatch):
    rng = np.random.default_rng(20)
    a = rng.normal(size=(12, 4))
    b = rng.normal(size=12)
    x_star, *_ = np.linalg.lstsq(a, b, rcond=None)
    # closed-form comparison needs the wrap-free regime
    x_star[3] = math.remainder(x_star[3], 2 * math.pi)
    # Started nearly undamped, LM is Gauss-Newton and solves a linear
    # problem in one step. The default start (lam = 0.1) converges only
    # linearly; see the next test.
    monkeypatch.setattr(solver, "COST_TOLERANCE", 1e-15)
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 5)
    monkeypatch.setattr(solver, "INITIAL_DAMPING", 1e-4)
    report = solve_lm(linear_lsq(a, b), Pose4.identity(), QUADRATIC, 1e-13)
    assert np.abs(report.final_params.as_array() - x_star).max() < 1e-8
    assert report.iterations <= 5


def test_linear_problem_reaches_closed_form_from_default_damping(monkeypatch):
    rng = np.random.default_rng(20)
    a = rng.normal(size=(12, 4))
    b = rng.normal(size=12)
    x_star, *_ = np.linalg.lstsq(a, b, rcond=None)
    x_star[3] = math.remainder(x_star[3], 2 * math.pi)
    monkeypatch.setattr(solver, "COST_TOLERANCE", 1e-15)
    report = solve_lm(linear_lsq(a, b), Pose4.identity(), QUADRATIC, 1e-13)
    assert report.converged
    assert np.abs(report.final_params.as_array() - x_star).max() < 1e-8
    assert report.iterations <= 12


def test_a_singular_solve_damps_harder_and_still_converges(monkeypatch):
    rng = np.random.default_rng(20)
    a = rng.normal(size=(12, 4))
    b = rng.normal(size=12)
    x_star, *_ = np.linalg.lstsq(a, b, rcond=None)
    x_star[3] = math.remainder(x_star[3], 2 * math.pi)
    real_solve = np.linalg.solve
    systems = []

    def solve_failing_once(m, v):
        systems.append(m.copy())
        if len(systems) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(m, v)

    monkeypatch.setattr(np.linalg, "solve", solve_failing_once)
    monkeypatch.setattr(solver, "COST_TOLERANCE", 1e-15)
    provider, calls = _counting(linear_lsq(a, b))
    report = solve_lm(provider, Pose4.identity(), QUADRATIC, 1e-13)
    assert report.converged
    assert np.abs(report.final_params.as_array() - x_star).max() < 1e-8
    assert report.evaluations == len(calls)
    # The failed system carried lam = 0.1; the retry carries ten times that.
    diag = np.diag(a.T @ a)
    assert np.allclose(np.diag(systems[0]), 1.1 * diag)
    assert np.allclose(np.diag(systems[1]), 2.0 * diag)


def test_accepted_costs_monotone():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(30, 4))
    b = rng.normal(size=30)
    costs = []
    base = linear_lsq(a, b)

    def recording(pose):
        r, jac = base(pose)
        costs.append((r**2).sum())
        return r, jac

    report = solve_lm(recording, Pose4(3.0, -2.0, 1.0, 0.7), QUADRATIC, PARAM_TOLERANCE)
    assert report.final_cost <= report.initial_cost
    # the report's accepted-cost sequence is monotone by construction;
    # check initial/final against the recorded evaluations
    assert report.final_cost == pytest.approx(min(costs), rel=1e-12)


def test_reweighted_gradient_matches_robust_cost_derivative():
    rng = np.random.default_rng(22)
    a = rng.normal(size=(40, 4))
    b = rng.normal(size=40)
    loss = RobustLoss(0.5)
    provider = linear_lsq(a, b)
    x0 = np.array([0.3, -0.2, 0.5, 0.1])

    def robust_cost(x):
        r, _ = provider(Pose4.from_array(x))
        return loss.cost_and_weights(r)[0]

    r, jac = provider(Pose4.from_array(x0))
    _, w = loss.cost_and_weights(r)
    analytic = 2.0 * jac.T @ (w * r)  # d/dx sum rho(r^2)
    h = 1e-6
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        fd = (robust_cost(x0 + e) - robust_cost(x0 - e)) / (2 * h)
        assert analytic[k] == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_determinism_bitwise():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(25, 4))
    b = rng.normal(size=25)
    r1 = solve_lm(linear_lsq(a, b), Pose4(1, 1, 1, 1), RobustLoss(0.3), PARAM_TOLERANCE)
    r2 = solve_lm(linear_lsq(a, b), Pose4(1, 1, 1, 1), RobustLoss(0.3), PARAM_TOLERANCE)
    assert r1.final_params == r2.final_params
    assert r1.final_cost == r2.final_cost
    assert r1.iterations == r2.iterations
    assert r1.termination == r2.termination


def test_non_finite_initial_cost_is_numerical_failure():
    def provider(pose):
        return np.array([math.inf]), np.ones((1, 4))

    report = solve_lm(provider, Pose4.identity(), RobustLoss(0.1), PARAM_TOLERANCE)
    assert report.termination is Termination.NUMERICAL_FAILURE
    assert not report.converged


def test_overflowing_normal_matrix_is_numerical_failure():
    # Row 0's Jacobian squares past the float range: JᵀWJ holds inf while the
    # cost and the gradient stay finite. Damped, that diagonal still gives a
    # finite step, and the solve would "converge" with tx unconstrained.
    def provider(pose):
        return np.array([0.0, pose.ty - 1.0]), np.array([[1e200, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])

    with np.errstate(over="ignore"):
        report = solve_lm(provider, Pose4.identity(), QUADRATIC, PARAM_TOLERANCE)
    assert report.termination is Termination.NUMERICAL_FAILURE
    assert report.evaluations == report.iterations == 1
    assert report.final_params == Pose4.identity()


def test_yaw_wrapped_after_steps():
    def provider(pose):
        # pull yaw toward 4.0 rad (outside the principal range)
        r = np.array([pose.yaw - 4.0 if pose.yaw > 0 else pose.yaw - (4.0 - 2 * math.pi)])
        return r, np.array([[0.0, 0.0, 0.0, 1.0]])

    report = solve_lm(provider, Pose4(0, 0, 0, 3.0), QUADRATIC, PARAM_TOLERANCE)
    assert -math.pi < report.final_params.yaw <= math.pi


def _counting(provider):
    calls = []

    def counted(pose):
        calls.append(pose)
        return provider(pose)

    return counted, calls


def test_report_counts_evaluations_and_keeps_the_end_points():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(30, 4))
    b = rng.normal(size=30)
    provider, calls = _counting(linear_lsq(a, b))
    report = solve_lm(provider, Pose4(1, 1, 1, 1), RobustLoss(0.3), PARAM_TOLERANCE)
    assert report.evaluations == len(calls)
    assert calls[0] == Pose4(1, 1, 1, 1)
    r0, _ = report.initial_evaluation
    r1, _ = report.final_evaluation
    assert np.array_equal(r0, linear_lsq(a, b)(Pose4(1, 1, 1, 1))[0])
    assert np.array_equal(r1, linear_lsq(a, b)(report.final_params)[0])


def test_start_evaluation_is_not_repeated():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(30, 4))
    b = rng.normal(size=30)
    x0 = Pose4(0.5, -0.5, 0.2, 0.1)
    loss = RobustLoss(0.3)
    plain = solve_lm(linear_lsq(a, b), x0, loss, PARAM_TOLERANCE)
    start = linear_lsq(a, b)(x0)
    provider, calls = _counting(linear_lsq(a, b))
    handed = solve_lm(provider, x0, loss, PARAM_TOLERANCE, start=start)
    assert x0 not in calls
    assert handed.evaluations == len(calls) == plain.evaluations - 1
    assert handed.initial_evaluation is start
    assert replace(handed, evaluations=plain.evaluations) == plain


def test_sub_tolerance_step_after_a_rejection_is_tried(monkeypatch):
    # The provider underestimates its slope tenfold, so the first steps
    # overshoot and are rejected. Once the damping has grown enough, the
    # step is below the tolerance while the start is still 5e-5 off: that
    # step is tried (and accepted) instead of ending the solve at x0.
    def provider(pose):
        return np.array([pose.tx - 1.0]), np.array([[0.1, 0.0, 0.0, 0.0]])

    x0 = Pose4(1.0 - 5e-5, 0.0, 0.0, 0.0)
    monkeypatch.setattr(solver, "INITIAL_DAMPING", 0.1)
    report = solve_lm(provider, x0, QUADRATIC, 1e-4)
    assert report.termination is Termination.PARAM_TOL
    # x0, the rejected steps at lam = 0.1 and 1, the accepted one at lam = 10.
    assert report.evaluations == 4
    assert abs(report.final_params.tx - 1.0) < 1e-5


def test_rejected_step_spiral_still_ends(monkeypatch):
    # A Jacobian of the wrong sign makes every step uphill. One step below
    # the tolerance is tried after the rejections; the next one ends the
    # solve, long before the damping limit.
    def provider(pose):
        return np.array([pose.tx - 1.0]), np.array([[-1.0, 0.0, 0.0, 0.0]])

    monkeypatch.setattr(solver, "INITIAL_DAMPING", 1e-4)
    report = solve_lm(provider, Pose4.identity(), QUADRATIC, 1e-4)
    assert report.termination is Termination.PARAM_TOL
    assert report.final_params == Pose4.identity()
    # x0, the 8 rejected steps of 1 / (1 + lam) for lam = 1e-4 ... 1e3,
    # and the one rejected sub-tolerance step at lam = 1e4.
    assert report.evaluations == 10


def test_damping_limit_is_numerical_failure():
    # Every pose but the start has an infinite residual, so every trial is
    # rejected. The steps, 1e120 / (1 + lam), never fall below the
    # tolerance, so only the damping limit ends the solve.
    x0 = Pose4.identity()

    def provider(pose):
        r = np.array([1e120 if pose == x0 else math.inf])
        return r, np.array([[1.0, 0.0, 0.0, 0.0]])

    report = solve_lm(provider, x0, QUADRATIC, PARAM_TOLERANCE)
    assert report.termination is Termination.NUMERICAL_FAILURE
    assert not report.converged
    # x0 and the rejected steps at lam = 0.1, 1, ..., 1e100.
    assert report.evaluations == 102
    assert report.iterations == 1
    assert report.final_params == x0
