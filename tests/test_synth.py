import math

import numpy as np
import pytest

from dfloc.geometry import Attitude, OdomDelta, Pose4, apply_pose, attitude_matrix, compose
from dfloc.nnsearch import brute_force_distances
from dfloc.synth import (
    NoiseSetup,
    ScanModel,
    corrupt_odometry,
    make_scenario,
    make_scene,
    make_trajectory,
    simulate_scan,
    true_odometry,
)


def test_box_room_point_count_matches_area():
    extent, density = 10.0, 100.0
    scene = make_scene("box_room", extent, density, seed=1)
    area = 2 * extent * extent + 4 * extent * (extent / 2)  # floor+ceiling+walls
    assert len(scene.map) == pytest.approx(area * density, rel=0.05)


def test_box_room_points_on_planes():
    extent = 8.0
    scene = make_scene("box_room", extent, 40.0, seed=2)
    pts = scene.map.points
    lo, hi = scene.bounds
    d_planes = np.minimum.reduce([
        np.abs(pts[:, 0] - lo[0]), np.abs(pts[:, 0] - hi[0]),
        np.abs(pts[:, 1] - lo[1]), np.abs(pts[:, 1] - hi[1]),
        np.abs(pts[:, 2] - lo[2]), np.abs(pts[:, 2] - hi[2]),
    ])
    assert d_planes.max() < 1e-9


def test_scene_determinism_and_seed_sensitivity():
    a = make_scene("box_room", 6.0, 30.0, seed=5)
    b = make_scene("box_room", 6.0, 30.0, seed=5)
    c = make_scene("box_room", 6.0, 30.0, seed=6)
    assert np.array_equal(a.map.points, b.map.points)
    assert not np.array_equal(a.map.points, c.map.points)


def test_building_yard_within_bounds():
    scene = make_scene("building_yard", 20.0, 20.0, seed=7)
    lo, hi = scene.bounds
    assert (scene.map.points >= lo - 1e-9).all() and (scene.map.points <= hi + 1e-9).all()


def test_unknown_scene_kind():
    with pytest.raises(ValueError):
        make_scene("sphere_world", 5.0, 10.0)


def test_trajectory_two_steps():
    scene = make_scene("box_room", 8.0, 30.0, seed=8)
    poses = make_trajectory(scene, 2, 0.2, seed=1)
    assert len(poses) == 2


def test_trajectory_step_norms_within_band():
    scene = make_scene("box_room", 10.0, 30.0, seed=9)
    poses = make_trajectory(scene, 60, 0.2, seed=2)
    t = np.array([p.translation for p in poses])
    norms = np.linalg.norm(np.diff(t, axis=0), axis=1)
    assert (norms >= 0.2 * 0.8).all() and (norms <= 0.2 * 1.2).all()


def test_trajectory_clearance_via_brute_force():
    scene = make_scene("box_room", 10.0, 30.0, seed=10)
    poses = make_trajectory(scene, 60, 0.2, seed=3)
    t = np.array([p.translation for p in poses])
    d = brute_force_distances(scene.map, t)
    assert d.min() >= 0.5


def test_trajectory_bounded_yaw_rate():
    scene = make_scene("box_room", 10.0, 30.0, seed=10)
    poses = make_trajectory(scene, 80, 0.2, seed=4)
    yaws = np.array([p.yaw for p in poses])
    dyaw = np.abs(np.angle(np.exp(1j * np.diff(yaws))))
    assert dyaw.max() <= 0.25


def test_noise_and_scan_sigmas_reject_nan():
    for bad in (lambda: NoiseSetup(math.nan), lambda: NoiseSetup(0.0, math.nan),
                lambda: ScanModel(noise_sigma=math.nan)):
        with pytest.raises(ValueError):
            bad()


def test_trajectory_scene_too_small():
    scene = make_scene("box_room", 1.5, 50.0, seed=11)
    with pytest.raises(ValueError):
        make_trajectory(scene, 10, 0.2, seed=0)


def test_true_odometry_recomposes_exactly():
    scene = make_scene("box_room", 8.0, 30.0, seed=12)
    poses = make_trajectory(scene, 40, 0.2, seed=5)
    deltas = true_odometry(poses)
    pose = poses[0]
    for k in range(1, len(poses)):
        pose = compose(pose, deltas[k])
        assert np.abs(pose.as_array() - poses[k].as_array()).max() < 1e-12


def test_scan_round_trip_noiseless():
    scene = make_scene("box_room", 8.0, 60.0, seed=13)
    pose = Pose4(4.0, 4.0, 2.0, 0.8)
    model = ScanModel(max_range=12.0, points=500, noise_sigma=0.0, outlier_fraction=0.0)
    scan = simulate_scan(scene, pose, Attitude.level(), model, seed=6)
    assert scan.frame.value == "sensor"
    mapped = apply_pose(pose, scan.points)
    d = brute_force_distances(scene.map, mapped)
    assert d.max() < 1e-9


def test_scan_round_trip_with_attitude():
    scene = make_scene("box_room", 8.0, 60.0, seed=13)
    pose = Pose4(4.0, 4.0, 2.0, -0.4)
    att = Attitude(0.1, -0.2)
    model = ScanModel(max_range=12.0, points=300, noise_sigma=0.0)
    scan = simulate_scan(scene, pose, att, model, seed=7)
    body = scan.points @ attitude_matrix(att).T
    mapped = apply_pose(pose, body)
    assert brute_force_distances(scene.map, mapped).max() < 1e-9


def test_scan_outlier_count_exact():
    scene = make_scene("box_room", 8.0, 60.0, seed=14)
    model = ScanModel(max_range=12.0, points=1000, noise_sigma=0.0, outlier_fraction=0.2)
    scan = simulate_scan(scene, Pose4(4, 4, 2, 0), Attitude.level(), model, seed=8)
    mapped = apply_pose(Pose4(4, 4, 2, 0), scan.points)
    d = brute_force_distances(scene.map, mapped)
    # exactly floor(0.2 * 1000) points replaced by clutter
    assert (d > 1e-6).sum() == 200


def test_scan_noise_mean_matches_chi_distribution():
    # low density so the nearest map point stays the generating point
    scene = make_scene("box_room", 10.0, 30.0, seed=15)
    sigma = 0.02
    model = ScanModel(max_range=16.0, points=10_000, noise_sigma=sigma)
    scan = simulate_scan(scene, Pose4(5, 5, 2.5, 0.3), Attitude.level(), model, seed=9)
    mapped = apply_pose(Pose4(5, 5, 2.5, 0.3), scan.points)
    d = brute_force_distances(scene.map, mapped)
    expected = sigma * math.sqrt(8.0 / math.pi)
    assert d.mean() == pytest.approx(expected, rel=0.10)


def test_scan_requires_points_in_range():
    scene = make_scene("box_room", 8.0, 30.0, seed=16)
    model = ScanModel(max_range=0.05, points=100)
    with pytest.raises(ValueError):
        simulate_scan(scene, Pose4(4, 4, 2, 0), Attitude.level(), model, seed=0)


def test_corrupt_odometry_zero_sigma_identity():
    deltas = [OdomDelta(0.1, 0.0, -0.05, 0.02), OdomDelta(0.0, 0.2, 0.0, -0.1)]
    out = corrupt_odometry(deltas, NoiseSetup(0.0, 0.0, seed=1))
    assert out == deltas


def test_corrupt_odometry_statistics():
    deltas = [OdomDelta.zero()] * 4000
    setup = NoiseSetup(0.25, 0.05, seed=2)
    out = corrupt_odometry(deltas, setup)
    dt = np.array([[d.dtx, d.dty, d.dtz] for d in out])
    dy = np.array([d.dyaw for d in out])
    assert dt.std() == pytest.approx(0.25, rel=0.05)
    assert dy.std() == pytest.approx(0.05, rel=0.08)


def test_corrupt_odometry_deterministic():
    deltas = [OdomDelta(0.1, 0.05, 0.0, 0.01)] * 10
    a = corrupt_odometry(deltas, NoiseSetup(0.5, 0.1, seed=3))
    b = corrupt_odometry(deltas, NoiseSetup(0.5, 0.1, seed=3))
    assert a == b


def test_scenario_structure_and_determinism():
    scene = make_scene("box_room", 8.0, 40.0, seed=17)
    model = ScanModel(max_range=12.0, points=200, noise_sigma=0.01)
    a = make_scenario(scene, 12, 0.2, model, NoiseSetup(0.1, 0.02), seed=4)
    b = make_scenario(scene, 12, 0.2, model, NoiseSetup(0.1, 0.02), seed=4)
    assert len(a.ground_truth) == len(a.frames) == 12
    clean = make_scenario(scene, 12, 0.2, model, NoiseSetup(), seed=4)
    assert clean.frames[0].odom == OdomDelta.zero()
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.cloud.points, fb.cloud.points)
        assert fa.odom == fb.odom and fa.attitude == fb.attitude
    # timestamps strictly increasing
    ts = [f.timestamp for f in a.frames]
    assert all(t1 < t2 for t1, t2 in zip(ts, ts[1:]))
