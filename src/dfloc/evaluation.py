"""Trajectory error metrics and benchmark report rows.

RMSE is reported separately for translation (meters) and yaw (radians,
wrap-corrected), each with the standard deviation of the per-step errors,
matching the layout of the localization benchmark tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formats import write_csv
from .geometry import wrap_angle


def _paired_arrays(est, gt) -> tuple[np.ndarray, np.ndarray]:
    if len(est) != len(gt):
        raise ValueError(f"trajectory length mismatch: {len(est)} estimates vs {len(gt)} references")
    if len(est) == 0:
        raise ValueError("cannot evaluate empty trajectories")
    e = np.array([[r.timestamp, *r.pose.as_array()] for r in est])
    g = np.array([[r.timestamp, *r.pose.as_array()] for r in gt])
    if np.abs(e[:, 0] - g[:, 0]).max() > 1e-9:
        raise ValueError("trajectory timestamps do not match")
    return e, g


def rmse_translation(est, gt) -> tuple[float, float]:
    """RMSE and per-step deviation of the Euclidean translation error."""
    e, g = _paired_arrays(est, gt)
    err = np.sqrt(((e[:, 1:4] - g[:, 1:4]) ** 2).sum(axis=1))
    return float(np.sqrt((err**2).mean())), float(err.std())


def rmse_yaw(est, gt) -> tuple[float, float]:
    """RMSE and per-step deviation of the wrap-corrected yaw error."""
    e, g = _paired_arrays(est, gt)
    err = np.abs(wrap_angle(e[:, 4] - g[:, 4]))
    return float(np.sqrt((err**2).mean())), float(err.std())


@dataclass(frozen=True)
class BenchRow:
    """One benchmark table entry. The four rmse fields are None when the run
    diverged (the report CSV leaves those cells empty); the timing fields
    still summarize the steps that ran, and are None only when none did."""

    method: str
    mode: str
    rmse_t: float | None
    rmse_t_dev: float | None
    rmse_a: float | None
    rmse_a_dev: float | None
    dt_mean: float | None
    dt_dev: float | None
    diverged: bool

    def __post_init__(self):
        metrics = (self.rmse_t, self.rmse_t_dev, self.rmse_a, self.rmse_a_dev)
        if self.diverged:
            if any(v is not None for v in metrics):
                raise ValueError("diverged rows must not carry rmse values")
        else:
            if any(v is None or v < 0.0 or not math.isfinite(v) for v in metrics):
                raise ValueError("completed rows need finite non-negative rmse values")


REPORT_HEADER = "method,mode,rmse_t,rmse_t_dev,rmse_a,rmse_a_dev,diverged"
TIMING_HEADER = "method,mode,dt_mean,dt_dev"


def _cell(v: float | None) -> str:
    return "" if v is None else f"{v:.9g}"


def write_report(rows, path) -> None:
    """Write the deterministic benchmark report (no wall-clock columns).

    Timing is deliberately kept out of this file so that two runs with
    the same seed produce byte-identical output; use write_timing for the
    measured per-scan times.
    """
    write_csv(path, REPORT_HEADER, (
        [r.method, r.mode, _cell(r.rmse_t), _cell(r.rmse_t_dev), _cell(r.rmse_a), _cell(r.rmse_a_dev),
         str(r.diverged).lower()]
        for r in rows
    ))


def write_timing(rows, path) -> None:
    """Write the per-scan timing companion table (wall-clock, not reproducible)."""
    write_csv(path, TIMING_HEADER, ([r.method, r.mode, _cell(r.dt_mean), _cell(r.dt_dev)] for r in rows))
