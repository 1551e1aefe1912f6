import math

import numpy as np
import pytest

from dfloc.geometry import Pose4
from dfloc.solver import (
    LossKind,
    RobustLoss,
    SolverOptions,
    Termination,
    cauchy_rho,
    solve_lm,
)


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
    rho, drho = cauchy_rho(0.0, 0.1)
    assert rho == 0.0 and drho == 1.0


def test_cauchy_rho_large_s_suppressed():
    _, drho = cauchy_rho(1e6, 0.1)
    assert drho < 1e-7


def test_cauchy_rho_reference_value():
    rho, drho = cauchy_rho(0.01, 0.1)
    assert rho == pytest.approx(0.01 * math.log(2.0))
    assert drho == pytest.approx(0.5)


def test_cauchy_requires_positive_scale():
    with pytest.raises(ValueError):
        cauchy_rho(1.0, 0.0)
    with pytest.raises(ValueError):
        RobustLoss(LossKind.CAUCHY, -1.0)


def test_loss_scale_must_be_positive_for_every_kind():
    with pytest.raises(ValueError):
        RobustLoss(LossKind.NONE, -1.0)


def test_zero_residual_start_converges_immediately():
    def provider(pose):
        return np.zeros(3), np.zeros((3, 4))

    report = solve_lm(provider, Pose4(1.0, 2.0, 3.0, 0.5))
    assert report.converged
    assert report.iterations <= 1
    assert report.final_params == Pose4(1.0, 2.0, 3.0, 0.5)


def test_quadratic_toy_converges():
    opts = SolverOptions(param_tolerance=1e-12, cost_tolerance=1e-16, max_iterations=50)
    report = solve_lm(quadratic_toy(), Pose4.identity(), RobustLoss(LossKind.NONE), opts)
    assert report.converged
    assert report.final_params.tx == pytest.approx(5.0, abs=1e-8)


def test_linear_problem_reaches_closed_form_quickly():
    rng = np.random.default_rng(20)
    a = rng.normal(size=(12, 4))
    b = rng.normal(size=12)
    x_star, *_ = np.linalg.lstsq(a, b, rcond=None)
    # closed-form comparison needs the wrap-free regime
    x_star[3] = math.remainder(x_star[3], 2 * math.pi)
    opts = SolverOptions(param_tolerance=1e-13, cost_tolerance=1e-15, max_iterations=5)
    report = solve_lm(linear_lsq(a, b), Pose4.identity(), RobustLoss(LossKind.NONE), opts)
    assert np.abs(report.final_params.as_array() - x_star).max() < 1e-8
    assert report.iterations <= 5


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

    report = solve_lm(recording, Pose4(3.0, -2.0, 1.0, 0.7), RobustLoss(LossKind.NONE))
    assert report.final_cost <= report.initial_cost
    # the report's accepted-cost sequence is monotone by construction;
    # check initial/final against the recorded evaluations
    assert report.final_cost == pytest.approx(min(costs), rel=1e-12)


def test_reweighted_gradient_matches_robust_cost_derivative():
    rng = np.random.default_rng(22)
    a = rng.normal(size=(40, 4))
    b = rng.normal(size=40)
    loss = RobustLoss(LossKind.CAUCHY, 0.5)
    provider = linear_lsq(a, b)
    x0 = np.array([0.3, -0.2, 0.5, 0.1])

    def robust_cost(x):
        r, _ = provider(Pose4.from_array(x))
        rho, _ = cauchy_rho(r**2, loss.scale)
        return rho.sum()

    r, jac = provider(Pose4.from_array(x0))
    _, w = cauchy_rho(r**2, loss.scale)
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
    r1 = solve_lm(linear_lsq(a, b), Pose4(1, 1, 1, 1), RobustLoss(LossKind.CAUCHY, 0.3))
    r2 = solve_lm(linear_lsq(a, b), Pose4(1, 1, 1, 1), RobustLoss(LossKind.CAUCHY, 0.3))
    assert r1.final_params == r2.final_params
    assert r1.final_cost == r2.final_cost
    assert r1.iterations == r2.iterations
    assert r1.termination == r2.termination


def test_non_finite_initial_cost_is_numerical_failure():
    def provider(pose):
        return np.array([math.inf]), np.ones((1, 4))

    report = solve_lm(provider, Pose4.identity())
    assert report.termination is Termination.NUMERICAL_FAILURE
    assert not report.converged


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)
    with pytest.raises(ValueError):
        SolverOptions(param_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverOptions(damping_decrease=1.5)


def test_yaw_wrapped_after_steps():
    def provider(pose):
        # pull yaw toward 4.0 rad (outside the principal range)
        r = np.array([pose.yaw - 4.0 if pose.yaw > 0 else pose.yaw - (4.0 - 2 * math.pi)])
        return r, np.array([[0.0, 0.0, 0.0, 1.0]])

    report = solve_lm(provider, Pose4(0, 0, 0, 3.0), RobustLoss(LossKind.NONE))
    assert -math.pi < report.final_params.yaw <= math.pi
