import numpy as np
import pytest

from dfloc import bench, tracker
from dfloc.distance_field import DfGrid
from dfloc.formats import RunConfig
from dfloc.geometry import Attitude, Frame, PointCloud, Pose4, compose, tilt_compensate
from dfloc.nnsearch import build_index
from dfloc.registration import icp_register
from dfloc.synth import NoiseSetup, ScanModel, make_scenario
from dfloc.tracker import ScanFrame, TrackStepError, advance, init_tracker, track_step


def test_init_tracker_stores_pose():
    pose = Pose4(1.0, -2.0, 0.5, 0.3)
    state = init_tracker(pose)
    assert state.current_pose == pose
    assert state.step_index == 0
    assert state.last_result is None


def test_reinit_resets_step_index(small_scene, small_grid):
    scenario = make_scenario(small_scene, 3, 0.15, ScanModel(max_range=10, points=300), NoiseSetup(), seed=50)
    state = init_tracker(scenario.ground_truth[0])
    for frame in scenario.frames:
        state = track_step(state, frame, small_grid)
    assert state.step_index == 3
    assert init_tracker(state.current_pose).step_index == 0


def test_stationary_robot_holds_pose(small_scene, small_grid):
    scenario = make_scenario(small_scene, 2, 0.15, ScanModel(max_range=10, points=500, noise_sigma=0.0),
                             NoiseSetup(), seed=51)
    pose = scenario.ground_truth[0]
    frame = ScanFrame(scenario.frames[0].cloud, scenario.frames[0].attitude, Pose4.identity(), 0.0)
    state = track_step(init_tracker(pose), frame, small_grid)
    assert np.linalg.norm(state.current_pose.translation - pose.translation) < 5e-3


def test_tracking_with_exact_odometry(small_scene, small_grid):
    scenario = make_scenario(small_scene, 40, 0.15, ScanModel(max_range=10, points=600, noise_sigma=0.01),
                             NoiseSetup(), seed=52)
    state = init_tracker(scenario.ground_truth[0])
    for k, frame in enumerate(scenario.frames):
        state = track_step(state, frame, small_grid)
        err = np.linalg.norm(state.current_pose.translation - scenario.ground_truth[k].translation)
        assert err < 0.05


def test_tracking_with_midnoise_survives(small_scene, small_grid):
    scenario = make_scenario(small_scene, 40, 0.15, ScanModel(max_range=10, points=600, noise_sigma=0.01),
                             NoiseSetup(0.25, 0.05), seed=53)
    state = init_tracker(scenario.ground_truth[0])
    for k, frame in enumerate(scenario.frames):
        state = track_step(state, frame, small_grid)
        err = np.linalg.norm(state.current_pose.translation - scenario.ground_truth[k].translation)
        assert err < 0.5
    assert state.step_index == 40


def test_perfect_odometry_no_worse_than_noodom(small_scene, small_grid):
    scenario = make_scenario(small_scene, 25, 0.15, ScanModel(max_range=10, points=600, noise_sigma=0.01),
                             NoiseSetup(), seed=54)
    costs = {True: [], False: []}
    for use_odom in (True, False):
        state = init_tracker(scenario.ground_truth[0])
        for frame in scenario.frames:
            if not use_odom:
                frame = ScanFrame(frame.cloud, frame.attitude, None, frame.timestamp)
            state = track_step(state, frame, small_grid)
            costs[use_odom].append(state.last_result.report.final_cost)
    # Per-step final costs with exact odometry never meaningfully exceed
    # noodom. Both runs converge to the same optimum, so the comparison
    # carries solver-termination noise of order 1e-6 relative; the slack
    # still exposes any systematic degradation.
    a = np.array(costs[True])
    b = np.array(costs[False])
    assert (a <= b * (1 + 1e-4) + 1e-9).all()


def test_replay_determinism(small_scene, small_grid):
    scenario = make_scenario(small_scene, 15, 0.15, ScanModel(max_range=10, points=400, noise_sigma=0.01),
                             NoiseSetup(0.1, 0.02), seed=55)

    def run():
        state = init_tracker(scenario.ground_truth[0])
        out = []
        for frame in scenario.frames:
            state = track_step(state, frame, small_grid)
            out.append(state.current_pose.as_array())
        return np.array(out)

    assert np.array_equal(run(), run())


def test_failure_surfaces_step_index(small_grid):
    # a cloud entirely outside the grid -> registration error -> TrackStepError
    cloud = PointCloud(np.zeros((20, 3)), Frame.SENSOR)
    frame = ScanFrame(cloud, Attitude.level(), Pose4.identity(), 0.0)
    state = init_tracker(Pose4(1000.0, 1000.0, 1000.0, 0.0))
    with pytest.raises(TrackStepError) as err:
        track_step(state, frame, small_grid)
    assert err.value.step_index == 0
    assert state.step_index == 0 and state.current_pose == Pose4(1000.0, 1000.0, 1000.0, 0.0)


def test_pose_continuity_under_bounded_noise(small_scene, small_grid):
    sigma_t, sigma_yaw = 0.1, 0.02
    scenario = make_scenario(small_scene, 30, 0.15, ScanModel(max_range=10, points=600, noise_sigma=0.01),
                             NoiseSetup(sigma_t, sigma_yaw), seed=56)
    state = init_tracker(scenario.ground_truth[0])
    prev = state.current_pose
    per_step_tol = 0.05
    for k, frame in enumerate(scenario.frames):
        state = track_step(state, frame, small_grid)
        jump = np.linalg.norm(state.current_pose.translation - prev.translation)
        # odometry delta + noise bound + 3x per-step error tolerance
        odom_norm = np.linalg.norm(frame.odom.translation)
        assert jump <= odom_norm + 4 * sigma_t + 3 * per_step_tol
        prev = state.current_pose


def test_advance_with_icp_registrar_matches_manual_step(small_scene):
    scenario = make_scenario(small_scene, 4, 0.15, ScanModel(max_range=10, points=300, noise_sigma=0.01),
                             NoiseSetup(0.02, 0.005), seed=57)
    index = build_index(small_scene.map)
    state = init_tracker(scenario.ground_truth[0])
    pose = state.current_pose
    for frame in scenario.frames:
        state = advance(state, frame, lambda body, guess: icp_register(body, index, guess))
        body = tilt_compensate(frame.cloud, frame.attitude)
        pose = icp_register(body, index, compose(pose, frame.odom)).pose
        assert state.current_pose == pose
    assert state.step_index == 4


def test_track_step_resolves_dll_register_per_call(monkeypatch, small_scene, small_grid):
    # Wrappers installed as tracker.dll_register (e.g. tracing) must see every step.
    scenario = make_scenario(small_scene, 2, 0.15, ScanModel(max_range=10, points=300), NoiseSetup(), seed=58)
    guesses = []
    real = tracker.dll_register

    def spy(body, grid, guess, *rest):
        guesses.append(guess)
        return real(body, grid, guess, *rest)

    monkeypatch.setattr(tracker, "dll_register", spy)
    start = scenario.ground_truth[0]
    frame = scenario.frames[1]
    track_step(init_tracker(start), frame, small_grid)
    assert guesses == [compose(start, frame.odom)]


@pytest.fixture(scope="module")
def largenoise_scenario(small_scene):
    return make_scenario(small_scene, 60, 0.15, ScanModel(15.0, 2000, 0.02), NoiseSetup(0.02, 0.005), seed=1)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_largenoise_tracking_keeps_the_scan_on_the_map(small_grid, largenoise_scenario, seed):
    # If off-volume points cost nothing, the solver can lower the cost by
    # pushing the scan out of the grid. On this scenario that made seed 1
    # diverge at step 39 (a fine solve "converged" at tz = -1.26 m, below
    # the grid) and left seeds 2-5 at rmse_t 0.13-0.26 m instead of 0.0016 m.
    run = bench.run_tracking(
        largenoise_scenario, "dll", "largenoise", grid=small_grid, cfg=RunConfig(seed=seed)
    )
    row = bench.bench_row(run, largenoise_scenario)
    assert not run.diverged, f"diverged at step {run.divergence_step}"
    assert row.rmse_t < 0.005


def test_dll_tracking_stays_within_an_evaluation_budget(monkeypatch, small_grid, largenoise_scenario):
    # Mean coarse-plus-fine field evaluations per scan over all four odometry
    # modes: 18.78 while the coarse pass ran under solver options of its own
    # (start damping pinned at 1e-4, at most 15 iterations), 15.75 since it
    # takes the caller's options with only the step tolerance loosened.
    evaluations = []
    real = bench.dll_register

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        evaluations.append(res.coarse_report.evaluations + res.report.evaluations)
        return res

    monkeypatch.setattr(bench, "dll_register", spy)
    for mode in bench.MODES:
        run = bench.run_tracking(largenoise_scenario, "dll", mode, grid=small_grid, cfg=RunConfig(seed=0))
        assert not run.diverged, f"{mode} diverged at step {run.divergence_step}"
    assert np.mean(evaluations) <= 17.0, f"{np.mean(evaluations):.2f} evaluations per scan"


def test_dll_tracking_fits_the_table_before_timing(monkeypatch, small_grid, largenoise_scenario):
    # A grid fits its band of coefficient rows on first use. Fitted inside the
    # first timed registration, the fit counted as per-scan cost, and
    # criterion 7 read DLL/ICP at 4.0-4.5x instead of 9.6-10.4x. Tracking
    # never asks for the whole table, which is 64 bytes per cell.
    grid = DfGrid(small_grid.spec, small_grid.node_distances)
    fitted = []
    real = bench.dll_register

    def spy(body, grid_arg, *args, **kwargs):
        fitted.append("band" in grid_arg.__dict__)
        return real(body, grid_arg, *args, **kwargs)

    monkeypatch.setattr(bench, "dll_register", spy)
    bench.run_tracking(largenoise_scenario, "dll", "baseline", grid=grid, cfg=RunConfig(seed=0))
    assert fitted and all(fitted)
    assert "coeffs" not in grid.__dict__
