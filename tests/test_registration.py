import math

import numpy as np
import pytest

from dfloc import distance_field, registration, solver
from dfloc.distance_field import build_grid, plan_grid, query_many
from dfloc.geometry import (
    Attitude,
    Frame,
    FrameError,
    PointCloud,
    Pose4,
    apply_pose,
    tilt_compensate,
    wrap_angle,
)
from dfloc.nnsearch import build_index
from dfloc.registration import (
    CAUCHY_SCALE,
    COARSE_CAUCHY_SCALE,
    COARSE_PARAM_TOLERANCE,
    PARAM_TOLERANCE,
    IcpReport,
    NoCorrespondencesError,
    UnobservableCloudError,
    align_4dof,
    df_residuals,
    dll_register,
    icp_register,
)
from dfloc.solver import RobustLoss
from dfloc.synth import ScanModel, simulate_scan


def _scan_at(scene, pose, seed, points=800, noise=0.01, outliers=0.0):
    model = ScanModel(max_range=12.0, points=points, noise_sigma=noise, outlier_fraction=outliers)
    scan = simulate_scan(scene, pose, Attitude.level(), model, seed=seed)
    return tilt_compensate(scan, Attitude.level())


def test_dll_from_truth_stays_put(small_scene, small_grid):
    true = Pose4(3.0, 2.5, 1.2, 0.4)
    body = _scan_at(small_scene, true, seed=30, noise=0.0)
    res = dll_register(body, small_grid, true)
    assert res.report.final_cost <= res.report.initial_cost
    assert np.linalg.norm(res.pose.translation - true.translation) < 2e-3
    assert abs(wrap_angle(res.pose.yaw - true.yaw)) < 1e-3
    assert res.points_used + res.points_out_of_map == len(body)
    assert res.elapsed > 0.0


def test_dll_recovers_from_large_perturbation(small_scene, small_grid):
    true = Pose4(3.0, 2.8, 1.4, -0.6)
    body = _scan_at(small_scene, true, seed=31, noise=0.02)
    guess = Pose4(true.tx + 0.5, true.ty - 0.5, true.tz + 0.5, true.yaw + 0.1)
    res = dll_register(body, small_grid, guess)
    assert np.linalg.norm(res.pose.translation - true.translation) < 0.05
    assert abs(wrap_angle(res.pose.yaw - true.yaw)) < 0.01


def test_dll_suppresses_outliers(small_scene, small_grid):
    true = Pose4(3.2, 2.6, 1.4, 0.3)
    body = _scan_at(small_scene, true, seed=32, noise=0.02, outliers=0.2)
    guess = Pose4(true.tx - 0.4, true.ty + 0.4, true.tz - 0.3, true.yaw - 0.08)
    res = dll_register(body, small_grid, guess)
    assert np.linalg.norm(res.pose.translation - true.translation) < 0.08
    assert abs(wrap_angle(res.pose.yaw - true.yaw)) < 0.02


def test_dll_objective_decrease(small_scene, small_grid):
    true = Pose4(2.9, 3.1, 1.1, 0.2)
    body = _scan_at(small_scene, true, seed=33)
    guess = Pose4(true.tx + 0.3, true.ty + 0.2, true.tz - 0.2, true.yaw + 0.05)
    loss = RobustLoss(CAUCHY_SCALE)
    res = dll_register(body, small_grid, guess)
    provider = df_residuals(small_grid, body.points)
    cost_guess = loss.cost_and_weights(provider(guess)[0])[0]
    cost_final = loss.cost_and_weights(provider(res.pose)[0])[0]
    assert cost_final <= cost_guess


def test_dll_rejects_wrong_frame_and_empty(small_grid):
    with pytest.raises(FrameError):
        dll_register(PointCloud(np.zeros((1, 3)), Frame.SENSOR), small_grid, Pose4.identity())
    with pytest.raises(ValueError):
        dll_register(PointCloud(np.empty((0, 3)), Frame.BODY), small_grid, Pose4.identity())


def test_dll_all_points_outside_grid_is_unobservable(monkeypatch, small_scene, small_grid):
    body = _scan_at(small_scene, Pose4(3, 3, 1.5, 0.0), seed=34)
    far = Pose4(500.0, 500.0, 500.0, 0.0)
    solves = []
    real = registration.solve_lm

    def spy(*args, **kwargs):
        solves.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(registration, "solve_lm", spy)
    with pytest.raises(UnobservableCloudError):
        dll_register(body, small_grid, far)
    assert solves == [far], "the fine pass ran after the coarse pass saw no point inside"


def test_dll_half_out_of_grid_registers(small_scene, small_grid):
    true = Pose4(3.0, 3.0, 1.5, 0.0)
    body = _scan_at(small_scene, true, seed=35, noise=0.01)
    pts = body.points.copy()
    pts[: len(pts) // 2] += 100.0  # half the cloud far outside the volume
    mixed = PointCloud(pts, Frame.BODY)
    res = dll_register(mixed, small_grid, Pose4(true.tx + 0.2, true.ty - 0.2, true.tz, true.yaw))
    assert res.points_out_of_map >= len(pts) // 2
    assert np.linalg.norm(res.pose.translation - true.translation) < 0.05


def test_dll_jacobian_matches_finite_differences(small_scene, small_grid):
    rng = np.random.default_rng(36)
    spec = small_grid.spec
    h = 1e-6
    checked_states = 0
    while checked_states < 100:
        pose = Pose4(
            rng.uniform(1.5, 4.5), rng.uniform(1.5, 4.5), rng.uniform(1.0, 2.0),
            rng.uniform(-math.pi, math.pi),
        )
        pts = rng.uniform(-1.5, 1.5, size=(40, 3))
        provider = df_residuals(small_grid, pts)
        r0, jac = provider(pose)
        mapped = apply_pose(pose, pts)
        rel = (mapped - spec.origin) / spec.resolution
        frac = rel - np.floor(rel)
        margin = 5e-4  # clearance so FD probes stay within one cell
        safe = (
            ((frac * spec.resolution > margin) & ((1 - frac) * spec.resolution > margin)).all(axis=1)
            & query_many(small_grid, mapped)[2]
        )
        if safe.sum() < 10:
            continue
        checked_states += 1
        x0 = pose.as_array()
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            rp, _ = provider(Pose4.from_array(x0 + e))
            rm, _ = provider(Pose4.from_array(x0 - e))
            fd = (rp - rm) / (2 * h)
            assert np.abs(jac[safe, k] - fd[safe]).max() < 1e-4


def test_dll_translation_equivariance(small_scene):
    shift = np.array([7.0, -3.0, 2.0])
    true = Pose4(3.0, 3.0, 1.5, 0.3)
    body = _scan_at(small_scene, true, seed=37, noise=0.01)
    spec = plan_grid(small_scene.map, 0.1, margin=1.0)
    grid = build_grid(small_scene.map, spec)
    shifted_cloud = PointCloud(small_scene.map.points + shift, Frame.MAP)
    from dfloc.distance_field import GridSpec

    spec2 = GridSpec(spec.origin + shift, spec.resolution, spec.nx, spec.ny, spec.nz, spec.margin)
    grid2 = build_grid(shifted_cloud, spec2)
    guess = Pose4(true.tx + 0.2, true.ty - 0.1, true.tz + 0.1, true.yaw - 0.05)
    guess2 = Pose4(guess.tx + shift[0], guess.ty + shift[1], guess.tz + shift[2], guess.yaw)
    r1 = dll_register(body, grid, guess)
    r2 = dll_register(body, grid2, guess2)
    assert np.abs(r2.pose.translation - (r1.pose.translation + shift)).max() < 1e-5
    assert abs(wrap_angle(r2.pose.yaw - r1.pose.yaw)) < 1e-6


def test_dll_deterministic(small_scene, small_grid):
    true = Pose4(3.0, 2.5, 1.2, 0.4)
    body = _scan_at(small_scene, true, seed=38)
    guess = Pose4(3.2, 2.4, 1.3, 0.45)
    r1 = dll_register(body, small_grid, guess)
    r2 = dll_register(body, small_grid, guess)
    assert r1.pose == r2.pose
    assert r1.report.final_cost == r2.report.final_cost
    assert r1.points_used == r2.points_used


def test_align_4dof_recovers_known_transform():
    rng = np.random.default_rng(39)
    src = rng.normal(size=(100, 3))
    true = Pose4(0.4, -0.7, 0.2, 0.9)
    dst = apply_pose(true, src)
    est = align_4dof(src, dst)
    assert np.abs(est.as_array() - true.as_array()).max() < 1e-9


def test_align_4dof_rejects_zero_pairs():
    with pytest.raises(ValueError, match="pair"):
        align_4dof(np.empty((0, 3)), np.empty((0, 3)))


def test_icp_identity_on_subsample(small_scene, room_index=None):
    index = build_index(small_scene.map)
    rng = np.random.default_rng(41)
    pick = rng.choice(len(small_scene.map), size=500, replace=False)
    body = PointCloud(small_scene.map.points[pick], Frame.BODY)
    res = icp_register(body, index, Pose4.identity())
    assert res.report.iterations <= 2
    assert np.abs(res.pose.as_array()).max() < 1e-9


def test_icp_small_offset_recovery(small_scene):
    index = build_index(small_scene.map)
    true = Pose4(3.0, 2.5, 1.4, 0.2)
    body = _scan_at(small_scene, true, seed=42, noise=0.0)
    guess = Pose4(true.tx + 0.05, true.ty - 0.03, true.tz + 0.04, true.yaw)
    res = icp_register(body, index, guess)
    assert np.linalg.norm(res.pose.translation - true.translation) < 1e-3


def test_icp_large_offset_fails_or_diverges(small_scene):
    # 0.5 m offset with a 0.1 m correspondence radius: the classic failure mode
    index = build_index(small_scene.map)
    true = Pose4(3.0, 2.5, 1.4, 0.2)
    body = _scan_at(small_scene, true, seed=43, noise=0.0)
    guess = Pose4(true.tx + 0.5, true.ty + 0.5, true.tz, true.yaw)
    try:
        res = icp_register(body, index, guess)
        err = np.linalg.norm(res.pose.translation - true.translation)
        assert err > 0.1  # did not recover
    except NoCorrespondencesError:
        pass  # also an accepted outcome


def test_icp_matches_known_correspondence_alignment(monkeypatch, small_scene):
    # with generous thresholds on outlier-free data, one ICP iteration from
    # exact correspondences equals the closed-form alignment
    index = build_index(small_scene.map)
    rng = np.random.default_rng(44)
    pick = rng.choice(len(small_scene.map), size=400, replace=False)
    map_pts = small_scene.map.points[pick]
    true = Pose4(0.02, -0.015, 0.01, 0.004)
    body_pts = apply_pose(true.inverse(), map_pts)
    body = PointCloud(body_pts, Frame.BODY)
    monkeypatch.setattr(registration, "ICP_MAX_ITERATIONS", 50)
    monkeypatch.setattr(registration, "ICP_CONVERGENCE_EPSILON", 1e-12)
    monkeypatch.setattr(registration, "ICP_MAX_CORRESPONDENCE_DISTANCE", 1e9)
    res = icp_register(body, index, Pose4.identity())
    # compare against the closed form on the true pairs
    direct = align_4dof(body_pts, map_pts)
    assert np.abs(res.pose.as_array() - direct.as_array()).max() < 1e-9


def test_icp_reads_its_stopping_rules_at_call_time(monkeypatch, small_scene):
    # The tests above set the stopping rules by monkeypatching the constants.
    index = build_index(small_scene.map)
    body = _scan_at(small_scene, Pose4(3.0, 2.5, 1.4, 0.2), seed=46, noise=0.02)
    guess = Pose4(3.1, 2.45, 1.45, 0.25)
    monkeypatch.setattr(registration, "ICP_MAX_ITERATIONS", 1)
    assert icp_register(body, index, guess).report.iterations == 1
    monkeypatch.setattr(registration, "ICP_MAX_ITERATIONS", 50)
    monkeypatch.setattr(registration, "ICP_CONVERGENCE_EPSILON", 1.0)
    report = icp_register(body, index, guess).report
    assert report.converged and report.iterations == 1


def test_registration_reads_its_kernel_width_and_radius_at_call_time(monkeypatch, small_scene, small_grid):
    # The tests above set both by monkeypatching the constants.
    body = _scan_at(small_scene, Pose4(3.0, 2.5, 1.4, 0.2), seed=46, noise=0.02)
    guess = Pose4(3.1, 2.45, 1.45, 0.25)
    fine = []
    real = registration.solve_lm

    def spy(provider, x0, loss, param_tolerance, **kwargs):
        fine.append(loss)
        return real(provider, x0, loss, param_tolerance, **kwargs)

    monkeypatch.setattr(registration, "solve_lm", spy)
    monkeypatch.setattr(registration, "CAUCHY_SCALE", 0.3)
    dll_register(body, small_grid, guess)
    assert fine[-1] == RobustLoss(0.3)
    index = build_index(small_scene.map)
    monkeypatch.setattr(registration, "ICP_MAX_CORRESPONDENCE_DISTANCE", 1e-12)
    with pytest.raises(NoCorrespondencesError, match="within 1e-12 m"):
        icp_register(body, index, guess)


def test_icp_no_correspondences_error(small_scene):
    index = build_index(small_scene.map)
    body = PointCloud(np.zeros((10, 3)), Frame.BODY)
    far = Pose4(1000.0, 1000.0, 1000.0, 0.0)
    with pytest.raises(NoCorrespondencesError):
        icp_register(body, index, far)


def test_icp_counts_add_up(small_scene):
    index = build_index(small_scene.map)
    true = Pose4(3.0, 2.5, 1.4, 0.0)
    body = _scan_at(small_scene, true, seed=45, noise=0.0)
    res = icp_register(body, index, true)
    assert res.points_used + res.points_out_of_map == len(body)


def _icp_every_point_every_iteration(cloud, index, guess):
    """ICP as first written: every point queried, and the cost taken, on every iteration."""
    pts, pose = cloud.points, guess
    for iterations in range(1, registration.ICP_MAX_ITERATIONS + 1):
        won, dist = index.nearest_many(apply_pose(pose, pts))
        matches = index.points[won]
        keep = dist <= registration.ICP_MAX_CORRESPONDENCE_DISTANCE
        if not keep.any():
            raise NoCorrespondencesError(iterations)
        src, dst = pts[keep], matches[keep]
        new_pose = align_4dof(src, dst)
        cost = float(((apply_pose(new_pose, src) - dst) ** 2).sum(axis=1).sum())
        change = np.abs(new_pose.as_array() - pose.as_array())
        change[3] = abs(float(wrap_angle(new_pose.yaw - pose.yaw)))
        pose = new_pose
        if change.max() < registration.ICP_CONVERGENCE_EPSILON:
            return pose, IcpReport(iterations, cost, True, len(src))
    return pose, IcpReport(iterations, cost, False, len(src))


@pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0, 0.0), (0.05, -0.03, 0.04, 0.01), (0.3, 0.0, 0.0, 0.05),
                                    (-0.2, 0.2, 0.1, -0.05)])
def test_icp_results_are_those_of_querying_every_point(small_scene, offset):
    index = build_index(small_scene.map)
    true = Pose4(3.0, 2.5, 1.4, 0.2)
    body = _scan_at(small_scene, true, seed=46, points=2000, noise=0.02)
    guess = Pose4(*(true.as_array() + offset))
    pose, report = _icp_every_point_every_iteration(body, index, guess)
    res = icp_register(body, index, guess)
    assert res.pose.as_array().tobytes() == pose.as_array().tobytes()
    assert np.float64(res.report.final_cost).tobytes() == np.float64(report.final_cost).tobytes()
    assert res.report == report
    assert res.points_used == report.correspondences


def test_icp_sends_fewer_rows_to_the_tree_than_it_has_points(tree_rows, small_scene):
    index = build_index(small_scene.map)
    true = Pose4(3.0, 2.5, 1.4, 0.2)
    body = _scan_at(small_scene, true, seed=47, points=2000, noise=0.02)
    res = icp_register(body, index, Pose4(true.tx + 0.05, true.ty - 0.03, true.tz, true.yaw + 0.01))
    assert res.report.iterations > 3
    assert sum(n for n, _ in tree_rows) < res.report.iterations * len(body)


def _forbid_query_many(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dll_register called query_many")

    monkeypatch.setattr(registration, "query_many", forbidden)
    monkeypatch.setattr(distance_field, "query_many", forbidden)


def _record_query_columns(monkeypatch) -> list:
    calls = []
    real = registration.query_columns

    def spy(grid, qx, qy, qz):
        calls.append(b"".join(np.ascontiguousarray(q).tobytes() for q in (qx, qy, qz)))
        return real(grid, qx, qy, qz)

    monkeypatch.setattr(registration, "query_columns", spy)
    return calls


@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_dll_evaluates_each_pose_once(monkeypatch, small_scene, small_grid, offset):
    true = Pose4(3.0, 2.5, 1.2, 0.4)
    body = _scan_at(small_scene, true, seed=46, noise=0.02)
    guess = Pose4(true.tx + offset, true.ty - offset, true.tz + offset / 2, true.yaw + offset / 5)
    _forbid_query_many(monkeypatch)
    calls = _record_query_columns(monkeypatch)
    res = dll_register(body, small_grid, guess)
    assert res.coarse_report is not None
    assert len(calls) == res.coarse_report.evaluations + res.report.evaluations
    assert len(set(calls)) == len(calls), "a pose was evaluated twice"


@pytest.mark.parametrize("scale", [0.1, 2.0])
def test_dll_always_runs_the_coarse_pass(monkeypatch, small_scene, small_grid, scale):
    # Also with a fine kernel wider than the coarse one.
    true = Pose4(3.0, 2.5, 1.2, 0.4)
    body = _scan_at(small_scene, true, seed=47, noise=0.01)
    _forbid_query_many(monkeypatch)
    calls = _record_query_columns(monkeypatch)
    monkeypatch.setattr(registration, "CAUCHY_SCALE", scale)
    res = dll_register(body, small_grid, Pose4(3.05, 2.45, 1.2, 0.41))
    assert res.coarse_report is not None
    assert len(calls) == res.coarse_report.evaluations + res.report.evaluations


def test_dll_points_used_matches_field_query_at_result(small_scene, small_grid):
    true = Pose4(3.0, 3.0, 1.5, 0.0)
    body = _scan_at(small_scene, true, seed=48, noise=0.01)
    pts = body.points.copy()
    pts[::3] += 100.0
    res = dll_register(PointCloud(pts, Frame.BODY), small_grid, Pose4(3.1, 2.9, 1.5, 0.02))
    _, _, inside = query_many(small_grid, apply_pose(res.pose, pts))
    assert res.points_used == int(inside.sum())
    assert res.points_out_of_map == len(pts) - res.points_used


def test_dll_result_exposes_both_passes(small_scene, small_grid):
    true = Pose4(3.0, 2.8, 1.4, -0.6)
    body = _scan_at(small_scene, true, seed=49, noise=0.02)
    res = dll_register(body, small_grid, Pose4(3.4, 2.4, 1.7, -0.5))
    for report in (res.coarse_report, res.report):
        assert report.iterations >= 1
        assert report.evaluations >= 1
    # The fine pass starts from one of the coarse pass's evaluations.
    coarse = res.coarse_report
    assert any(res.report.initial_evaluation is e for e in (coarse.initial_evaluation, coarse.final_evaluation))


@pytest.mark.parametrize("max_iterations", [5, 50])
@pytest.mark.parametrize("damping", [1e-4, 0.1, 10.0])
def test_coarse_pass_takes_the_caller_options_with_a_loose_stop(
    monkeypatch, small_scene, small_grid, damping, max_iterations
):
    # Both passes run under the solver's damping and iteration budget; the
    # coarse pass has the wide kernel and the loose step tolerance, the fine
    # pass the CAUCHY_SCALE kernel and PARAM_TOLERANCE.
    true = Pose4(3.0, 2.5, 1.2, 0.4)
    body = _scan_at(small_scene, true, seed=50)
    seen = []
    real = registration.solve_lm

    def spy(provider, x0, loss, param_tolerance, **kwargs):
        report = real(provider, x0, loss, param_tolerance, **kwargs)
        seen.append((loss, param_tolerance, solver.INITIAL_DAMPING, solver.MAX_ITERATIONS, report.iterations))
        return report

    monkeypatch.setattr(registration, "solve_lm", spy)
    monkeypatch.setattr(solver, "INITIAL_DAMPING", damping)
    monkeypatch.setattr(solver, "MAX_ITERATIONS", max_iterations)
    monkeypatch.setattr(registration, "CAUCHY_SCALE", 0.2)
    dll_register(body, small_grid, Pose4(3.2, 2.4, 1.3, 0.45))
    assert [s[:4] for s in seen] == [
        (RobustLoss(COARSE_CAUCHY_SCALE), COARSE_PARAM_TOLERANCE, damping, max_iterations),
        (RobustLoss(0.2), PARAM_TOLERANCE, damping, max_iterations),
    ]
    assert all(1 <= s[4] <= max_iterations for s in seen)


def test_off_volume_points_get_the_largest_node_distance(small_scene, small_grid):
    assert small_grid.max_distance == small_grid.node_distances.max()
    true = Pose4(3.0, 3.0, 1.5, 0.0)
    body = _scan_at(small_scene, true, seed=51, noise=0.01)
    pts = body.points.copy()
    pts[::2] += 100.0
    r, jac = df_residuals(small_grid, pts)(true)
    value, _, inside = query_many(small_grid, apply_pose(true, pts))
    assert not inside[::2].any()
    assert (r[~inside] == small_grid.max_distance).all()
    assert (jac[~inside] == 0.0).all()
    assert np.array_equal(r, value)


def test_leaving_the_map_never_lowers_the_cost(small_scene, small_grid):
    true = Pose4(3.0, 3.0, 1.5, 0.0)
    body = _scan_at(small_scene, true, seed=52, noise=0.02)
    provider = df_residuals(small_grid, body.points)
    loss = RobustLoss(CAUCHY_SCALE)
    cost_true = loss.cost_and_weights(provider(true)[0])[0]
    for dz in (-1.5, -3.0, 3.0, 100.0):
        off = Pose4(true.tx, true.ty, true.tz + dz, true.yaw)
        assert loss.cost_and_weights(provider(off)[0])[0] > cost_true


def test_default_tolerance_lands_near_a_tight_solve(monkeypatch, room_scene, room_grid):
    # Criterion-4 style trials: stopping the fine pass at a 1e-4 step must
    # leave every pose component within 2e-4 (m or rad) of where a 1e-10
    # tolerance stops. Like PARAM_TOLERANCE, this is per component.
    model = ScanModel(max_range=15.0, points=2000, noise_sigma=0.02)
    worst_t = worst_yaw = 0.0
    for ss in np.random.SeedSequence(1234).spawn(100):
        rng = np.random.default_rng(ss)
        pose = Pose4(rng.uniform(2, 8), rng.uniform(2, 8), rng.uniform(1.5, 3.5),
                     rng.uniform(-math.pi, math.pi))
        scan = simulate_scan(room_scene, pose, Attitude.level(), model, seed=int(ss.generate_state(1)[0]))
        body = tilt_compensate(scan, Attitude.level())
        pert = rng.normal(0.0, [0.5, 0.5, 0.5, 0.1])
        guess = Pose4(pose.tx + pert[0], pose.ty + pert[1], pose.tz + pert[2], pose.yaw + pert[3])
        a = dll_register(body, room_grid, guess)
        with monkeypatch.context() as patch:
            patch.setattr(registration, "PARAM_TOLERANCE", 1e-10)
            b = dll_register(body, room_grid, guess)
        worst_t = max(worst_t, float(np.abs(a.pose.translation - b.pose.translation).max()))
        worst_yaw = max(worst_yaw, abs(float(wrap_angle(a.pose.yaw - b.pose.yaw))))
    assert worst_t <= 2e-4
    assert worst_yaw <= 2e-4
