"""Command-line entry points.

Commands: build-df, simulate, localize, benchmark, eval. Each validates
its inputs up front and exits nonzero with a diagnostic naming the
failing stage. Only simulate reads a run configuration (--config);
localize and benchmark take --seed, which seeds their noisy odometry
modes, with the config seed key's default and constraint. All randomness
is governed by the seed. Set DFLOC_LOG=debug|info|warning for log
verbosity.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import bench, formats
from .distance_field import build_grid, load_grid, plan_grid, save_grid
from .geometry import Frame
from .nnsearch import build_index
from .synth import make_scenario, make_scene

log = logging.getLogger("dfloc")


class StageError(RuntimeError):
    """Command failure attributed to a named stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _load_config(path, seed) -> formats.RunConfig:
    """The configuration at ``path`` (the defaults when None), its seed replaced by ``seed`` unless None."""
    cfg = formats.RunConfig() if path is None else _stage("load-config", formats.load_config, path)
    return cfg if seed is None else _stage("load-config", replace, cfg, seed=seed)


def _read_grid(path, scenario):
    """Load a .df grid, warning when it does not cover the scenario's map."""
    grid = _stage("read-grid", load_grid, path)
    spec = grid.spec
    pts = scenario.map.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    if (lo < spec.origin - 1e-9).any() or (hi > spec.upper + 1e-9).any():
        log.warning(
            "scenario map [%s, %s] is not fully covered by the grid [%s, %s]",
            lo, hi, spec.origin, spec.upper,
        )
    return grid


def cmd_build_df(args) -> int:
    cloud = _stage("read-map", formats.read_cloud, args.map, Frame.MAP)
    spec = _stage("plan-grid", plan_grid, cloud, args.resolution, args.margin)
    log.info(
        "building %dx%dx%d grid at %.3g m over %d map points",
        spec.nx, spec.ny, spec.nz, spec.resolution, len(cloud),
    )
    started = time.perf_counter()
    grid = _stage("build-grid", build_grid, cloud, spec)
    _stage("write-grid", save_grid, grid, args.out)
    print(
        f"wrote {args.out}: {spec.nx}x{spec.ny}x{spec.nz} cells, "
        f"resolution {spec.resolution:g} m, built in {time.perf_counter() - started:.1f} s"
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, args.seed)
    scene = _stage("make-scene", make_scene, cfg.scene_kind, cfg.extent, cfg.density, cfg.seed)
    scenario = _stage(
        "make-scenario", make_scenario, scene, cfg.steps, cfg.step_length, cfg.scan, cfg.noise, cfg.seed
    )
    _stage("write-scenario", formats.save_scenario, scenario, args.out)
    print(f"wrote scenario with {len(scenario.frames)} frames to {args.out}")
    return 0


def cmd_localize(args) -> int:
    seed = _load_config(None, args.seed).seed
    scenario = _stage("read-scenario", formats.load_scenario, args.scenario)
    grid = map_index = None
    if args.method == "icp":
        map_index = _stage("build-map-index", build_index, scenario.map)
    elif args.grid is not None:
        grid = _read_grid(args.grid, scenario)
    run = _stage("track", bench.run_tracking, scenario, args.method, args.mode, grid, map_index, seed=seed)
    _stage("write-trajectory", formats.write_trajectory, run.rows, args.out)
    if args.timing_out:
        _stage("write-timing", formats.write_step_times, run.step_times, args.timing_out)
    if run.diverged:
        print(f"warning: {args.method}/{args.mode} diverged at step {run.divergence_step}", file=sys.stderr)
    print(f"wrote {len(run.rows)} estimates to {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    seed = _load_config(None, args.seed).seed
    scenario = _stage("read-scenario", formats.load_scenario, args.scenario)
    grid = _read_grid(args.grid, scenario)
    map_index = _stage("build-map-index", build_index, scenario.map)
    rows = _stage("benchmark", bench.run_benchmark, scenario, grid, map_index, seed)
    _stage("write-report", formats.write_report, rows, args.out)
    timing_out = args.timing_out or (str(Path(args.out).with_suffix("")) + "_timing.csv")
    _stage("write-timing", formats.write_timing, rows, timing_out)
    for r in rows:
        if r.diverged:
            print(f"{r.method:4s} {r.mode:11s} diverged")
        else:
            print(
                f"{r.method:4s} {r.mode:11s} rmse_t={r.rmse_t:.4f} ({r.rmse_t_dev:.4f})  "
                f"rmse_a={r.rmse_a:.4f} ({r.rmse_a_dev:.4f})  dt={r.dt_mean:.4f} ({r.dt_dev:.4f})"
            )
    print(f"wrote {args.out} and {timing_out}")
    return 0


def cmd_eval(args) -> int:
    est = _stage("read-estimates", formats.read_trajectory, args.est)
    gt = _stage("read-ground-truth", formats.read_trajectory, args.gt)
    rt, rt_dev, ra, ra_dev = _stage("evaluate", bench.trajectory_rmse, est, gt)
    print(f"rmse_t = {rt:.6f} m (dev {rt_dev:.6f})")
    print(f"rmse_a = {ra:.6f} rad (dev {ra_dev:.6f})")
    if args.timing:
        times = _stage("read-timing", formats.read_step_times, args.timing)
        if times.size:
            print(f"dt = {times.mean():.6f} s (dev {times.std():.6f}, n={times.size})")
    return 0


SEED_HELP = f"seed of the noisy odometry modes (default {formats.RunConfig.seed})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dfloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-df", help="precompute a distance-field grid from a map cloud")
    p.add_argument("--map", required=True, help="map point cloud (xyz text or binary)")
    plan = inspect.signature(plan_grid).parameters
    p.add_argument("--resolution", type=float, default=plan["resolution"].default, help="cell edge in meters")
    p.add_argument(
        "--margin", type=float, default=plan["margin"].default, help="padding beyond the map bounding box"
    )
    p.add_argument("--out", required=True, help="output .df path")
    p.set_defaults(fn=cmd_build_df)

    p = sub.add_parser("simulate", help="generate a synthetic tracking scenario")
    p.add_argument("--config", help="key=value run configuration")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output scenario directory")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("localize", help="run the tracker over a scenario")
    p.add_argument("--grid", help=".df grid built from the scenario map (needed for --method dll)")
    p.add_argument("--scenario", required=True, help="scenario directory")
    p.add_argument("--method", choices=bench.METHODS, default="dll")
    p.add_argument("--mode", choices=bench.MODES, default="baseline")
    p.add_argument("--seed", type=int, help=SEED_HELP)
    p.add_argument("--out", required=True, help="output trajectory CSV")
    p.add_argument("--timing-out", help="optional per-step timing CSV")
    p.set_defaults(fn=cmd_localize)

    p = sub.add_parser("benchmark", help="run all methods x modes and write report CSVs")
    p.add_argument("--grid", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, help=SEED_HELP)
    p.add_argument("--out", required=True, help="output report CSV (deterministic)")
    p.add_argument("--timing-out", help="timing CSV (defaults to <out>_timing.csv)")
    p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("eval", help="compare an estimate CSV against ground truth")
    p.add_argument("--est", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--timing", help="per-step timing CSV from localize")
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    # A name that is no level, even a module attribute such as BASIC_FORMAT, gets "Level NAME" back.
    level = logging.getLevelName(os.environ.get("DFLOC_LOG", "warning").upper())
    level = level if isinstance(level, int) else logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
