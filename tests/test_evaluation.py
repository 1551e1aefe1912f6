import math

import numpy as np
import pytest

from dfloc.bench import BenchRow, trajectory_rmse
from dfloc.formats import TrajectoryRow, write_report
from dfloc.geometry import Pose4


def _row(t, tx=0.0, ty=0.0, tz=0.0, yaw=0.0):
    return TrajectoryRow(t, Pose4(tx, ty, tz, yaw))


def test_rmse_zero_for_identical():
    est = [_row(k * 0.1, tx=k) for k in range(10)]
    gt = [_row(k * 0.1, tx=k) for k in range(10)]
    assert trajectory_rmse(est, gt) == (0.0, 0.0, 0.0, 0.0)


def test_rmse_constant_offset():
    est = [_row(k * 0.1, tx=k + 0.1) for k in range(20)]
    gt = [_row(k * 0.1, tx=k) for k in range(20)]
    rmse, dev, _, _ = trajectory_rmse(est, gt)
    assert rmse == pytest.approx(0.1)
    assert dev == pytest.approx(0.0, abs=1e-12)


def test_rmse_matches_direct_recomputation():
    rng = np.random.default_rng(80)
    errs = rng.normal(scale=0.05, size=(50, 3))
    gt = [_row(k * 0.1, tx=1.0 * k, ty=-0.5 * k, tz=0.2) for k in range(50)]
    est = [
        _row(k * 0.1, tx=1.0 * k + errs[k, 0], ty=-0.5 * k + errs[k, 1], tz=0.2 + errs[k, 2])
        for k in range(50)
    ]
    rmse, dev, _, _ = trajectory_rmse(est, gt)
    norms = np.linalg.norm(errs, axis=1)
    assert rmse == pytest.approx(math.sqrt((norms**2).mean()))
    assert dev == pytest.approx(norms.std())


def test_yaw_rmse_wraps():
    gt = [_row(0.0, yaw=math.pi - 0.01)]
    est = [_row(0.0, yaw=-math.pi + 0.01)]
    _, _, rmse, dev = trajectory_rmse(est, gt)
    assert rmse == pytest.approx(0.02)
    assert dev == pytest.approx(0.0, abs=1e-12)


def test_yaw_rmse_constant_offset():
    gt = [_row(k * 1.0, yaw=0.3) for k in range(10)]
    est = [_row(k * 1.0, yaw=0.35) for k in range(10)]
    _, _, rmse, _ = trajectory_rmse(est, gt)
    assert rmse == pytest.approx(0.05)


def test_rmse_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        trajectory_rmse([_row(0.0)], [_row(0.0), _row(0.1)])


def test_rmse_timestamp_mismatch():
    with pytest.raises(ValueError, match="timestamps"):
        trajectory_rmse([_row(0.0)], [_row(0.5)])


def test_rmse_of_empty_trajectories_is_refused():
    with pytest.raises(ValueError, match="empty"):
        trajectory_rmse([], [])


def test_bench_row_invariants():
    with pytest.raises(ValueError):
        BenchRow("dll", "baseline", 0.1, 0.1, 0.1, 0.1, 0.01, 0.001, diverged=True)
    with pytest.raises(ValueError):
        BenchRow("dll", "baseline", None, None, None, None, 0.01, 0.001, diverged=False)
    BenchRow("icp", "largenoise", None, None, None, None, 0.5, 0.1, diverged=True)


def test_write_report_leaves_diverged_cells_empty(tmp_path):
    rows = [
        BenchRow("dll", "baseline", 0.01, 0.005, 0.002, 0.001, 0.008, 0.002, False),
        BenchRow("icp", "largenoise", None, None, None, None, None, None, True),
    ]
    path = tmp_path / "report.csv"
    write_report(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,mode,rmse_t,rmse_t_dev,rmse_a,rmse_a_dev,diverged"
    assert lines[2] == "icp,largenoise,,,,,true"
