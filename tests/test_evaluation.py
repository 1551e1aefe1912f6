import math

import numpy as np
import pytest

from dfloc.evaluation import BenchRow, rmse_translation, rmse_yaw, write_report
from dfloc.formats import TrajectoryRow
from dfloc.geometry import Pose4


def _row(t, tx=0.0, ty=0.0, tz=0.0, yaw=0.0):
    return TrajectoryRow(t, Pose4(tx, ty, tz, yaw))


def test_rmse_zero_for_identical():
    est = [_row(k * 0.1, tx=k) for k in range(10)]
    gt = [_row(k * 0.1, tx=k) for k in range(10)]
    assert rmse_translation(est, gt) == (0.0, 0.0)
    assert rmse_yaw(est, gt) == (0.0, 0.0)


def test_rmse_constant_offset():
    est = [_row(k * 0.1, tx=k + 0.1) for k in range(20)]
    gt = [_row(k * 0.1, tx=k) for k in range(20)]
    rmse, dev = rmse_translation(est, gt)
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
    rmse, dev = rmse_translation(est, gt)
    norms = np.linalg.norm(errs, axis=1)
    assert rmse == pytest.approx(math.sqrt((norms**2).mean()))
    assert dev == pytest.approx(norms.std())


def test_rmse_yaw_wraps():
    gt = [_row(0.0, yaw=math.pi - 0.01)]
    est = [_row(0.0, yaw=-math.pi + 0.01)]
    rmse, dev = rmse_yaw(est, gt)
    assert rmse == pytest.approx(0.02)
    assert dev == pytest.approx(0.0, abs=1e-12)


def test_rmse_yaw_constant_offset():
    gt = [_row(k * 1.0, yaw=0.3) for k in range(10)]
    est = [_row(k * 1.0, yaw=0.35) for k in range(10)]
    rmse, _ = rmse_yaw(est, gt)
    assert rmse == pytest.approx(0.05)


def test_rmse_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        rmse_translation([_row(0.0)], [_row(0.0), _row(0.1)])


def test_rmse_timestamp_mismatch():
    with pytest.raises(ValueError, match="timestamps"):
        rmse_translation([_row(0.0)], [_row(0.5)])


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
