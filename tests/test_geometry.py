import math

import numpy as np
import pytest

from dfloc.geometry import (
    Attitude,
    Frame,
    FrameError,
    PointCloud,
    Pose4,
    apply_pose,
    attitude_matrix,
    compose,
    pose_delta,
    rotate_z,
    tilt_compensate,
    wrap_angle,
)


def test_rotate_z_identity():
    assert np.allclose(rotate_z(0.0, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_rotate_z_quarter_turn():
    assert np.allclose(rotate_z(math.pi / 2, [1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


def test_rotate_z_matches_direct_matrix():
    yaw, p = 0.3, np.array([0.2, -0.1, 0.5])
    c, s = math.cos(yaw), math.sin(yaw)
    expected = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ p
    assert np.allclose(rotate_z(yaw, p), expected, atol=1e-15)


def test_rotate_z_norm_preserving():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(200, 3))
    for yaw in rng.uniform(-math.pi, math.pi, size=10):
        out = rotate_z(yaw, pts)
        assert np.abs(np.linalg.norm(out, axis=1) - np.linalg.norm(pts, axis=1)).max() < 1e-12


def test_apply_pose_identity_and_translation():
    assert np.allclose(apply_pose(Pose4.identity(), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    assert np.allclose(apply_pose(Pose4(1.0, 2.0, 3.0), [0.0, 0.0, 0.0]), [1.0, 2.0, 3.0])


def test_apply_pose_inverse_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        pose = Pose4(*rng.normal(scale=2.0, size=3), rng.uniform(-math.pi, math.pi))
        p = rng.normal(scale=5.0, size=3)
        back = apply_pose(pose_delta(pose, Pose4.identity()), apply_pose(pose, p))
        assert np.abs(back - p).max() < 1e-12


def test_compose_identity_neutral():
    pose = Pose4(1.0, -2.0, 0.5, 0.7)
    out = compose(pose, Pose4.identity())
    assert out == pose


def test_compose_rotates_delta_into_parent_frame():
    out = compose(Pose4(0.0, 0.0, 0.0, math.pi / 2), Pose4(1.0, 0.0, 0.0, 0.0))
    assert np.allclose([out.tx, out.ty, out.tz], [0.0, 1.0, 0.0], atol=1e-15)
    assert out.yaw == pytest.approx(math.pi / 2)


def test_compose_wraps_yaw():
    out = compose(Pose4(0.0, 0.0, 0.0, 3.0), Pose4(0.0, 0.0, 0.0, 0.5))
    assert out.yaw == pytest.approx(3.5 - 2 * math.pi)


def test_compose_associative_with_pose_delta():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = Pose4(*rng.normal(size=3), rng.uniform(-3, 3))
        b = Pose4(*rng.normal(size=3), rng.uniform(-3, 3))
        d = pose_delta(a, b)
        c = compose(a, d)
        assert np.abs(c.as_array() - b.as_array()).max() < 1e-12


def test_wrap_angle_range_and_convention():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3.5) == pytest.approx(3.5 - 2 * math.pi)
    vals = wrap_angle(np.linspace(-20, 20, 1001))
    assert (vals > -math.pi).all() and (vals <= math.pi).all()


def test_pose_wraps_on_construction():
    assert Pose4(0, 0, 0, 7.0).yaw == pytest.approx(7.0 - 2 * math.pi)
    with pytest.raises(ValueError):
        Pose4(math.nan, 0, 0, 0)


def test_cloud_rejects_non_finite_and_bad_shape():
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, 0.0, math.inf]]), Frame.MAP)
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 2)), Frame.MAP)


def test_cloud_is_read_only():
    cloud = PointCloud(np.zeros((3, 3)), Frame.MAP)
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


def test_attitude_regime():
    with pytest.raises(ValueError):
        Attitude(math.pi / 2, 0.0)
    Attitude(0.3, -0.4)


def test_tilt_compensate_zero_attitude_unchanged():
    cloud = PointCloud(np.random.default_rng(5).normal(size=(50, 3)), Frame.SENSOR)
    out = tilt_compensate(cloud, Attitude.level())
    assert out.frame is Frame.BODY
    assert np.allclose(out.points, cloud.points)


def test_tilt_compensate_pitch_quarter_turn():
    # R_y(pi/2 - eps) behavior documented against exact pi/2 case.
    cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]), Frame.SENSOR)
    att = Attitude(0.0, math.pi / 2 - 1e-12)
    out = tilt_compensate(cloud, att)
    assert np.allclose(out.points[0], [0.0, 0.0, -1.0], atol=1e-9)


def test_tilt_compensate_round_trip_and_distances():
    rng = np.random.default_rng(6)
    cloud = PointCloud(rng.normal(size=(100, 3)), Frame.SENSOR)
    att = Attitude(0.2, -0.35)
    out = tilt_compensate(cloud, att)
    assert len(out) == len(cloud)
    # pairwise distances preserved
    d_in = np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=-1)
    d_out = np.linalg.norm(out.points[:, None] - out.points[None, :], axis=-1)
    assert np.abs(d_in - d_out).max() < 1e-12
    # inverse rotation recovers the input
    back = out.points @ attitude_matrix(att)
    assert np.abs(back - cloud.points).max() < 1e-12


def test_tilt_compensate_rejects_wrong_frame():
    cloud = PointCloud(np.zeros((1, 3)), Frame.BODY)
    with pytest.raises(FrameError):
        tilt_compensate(cloud, Attitude.level())
