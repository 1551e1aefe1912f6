"""dfloc benchmark: build, track and icp workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload track --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

One workload runs per process. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The lines before it print the same run under
the names used in the metric definitions, with sample counts, and a stamp
of the machine and software. Each result, and the spans of traced passes,
are written under perfbench/out/.

End-to-end metrics, per workload (``fail_frac`` is ``failed / attempted``):

* ``setup_s``: median of at least 3 set-ups, repeated for 1 s in all and
  interleaved with the timed passes. Scene and scenario generation; for
  track also the grid build and save, which run in a separate process.
* ``wall_s``: fastest timed pass. ``build_s`` on build (plan + build +
  save); ``localize_s`` on track (load_grid, then 4 trajectories x 25
  scans under each of 4 odometry modes) and on icp (build_index, then 4
  trajectories x 50 scans).
* ``op_ms_p50``, ``op_ms_p95``: latency of one operation, each timed in
  every pass and taken at its fastest. A scan on track (around track_step)
  and icp (around compose + compensate + register), i.e. ``scan_ms_p50``
  and ``scan_ms_p95``; a whole build on build.
* ``peak_rss_mb``: peak RSS of this process, which runs the timed passes;
  the track grid is built in another process.
* Printed only: ``fail_frac``, and on track and icp ``rmse_t_m`` and
  ``rmse_yaw_rad`` over every scan that returned a pose. A single scan
  that settles in a wrong basin dominates an RMS, so they are too unsteady
  from seed to seed to bound; ``failed`` counts such scans instead.

save_grid and load_grid timings reflect the page cache, not the disk.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("build", "track", "icp")

if __name__ == "__main__" and not (SRC / "dfloc" / "__init__.py").is_file():
    sys.exit(f"dfloc sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def stamp(seed: int) -> dict:
    """Where and with what a result was measured."""

    def cpuinfo(key):
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    return {
        "seed": seed,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpuinfo("model name"),
        "l3": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "io": "save_grid/load_grid timings reflect the page cache, not the disk",
    }


def end_to_end(outcome: workloads.Outcome) -> dict[str, float]:
    wall, ops = workloads.best_of(outcome.untraced)
    return {
        "setup_s": float(np.median(outcome.setup_s)),
        "wall_s": wall,
        "op_ms_p50": float(np.percentile(ops, 50)) * 1e3,
        "op_ms_p95": float(np.percentile(ops, 95)) * 1e3,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def report_lines(outcome: workloads.Outcome, e2e: dict) -> list[str]:
    """The run under the metric definitions' own names, with sample counts."""
    tally = outcome.tally
    passes = len(outcome.untraced)
    n_ops = len(outcome.untraced[0].op_times)
    lines = [f"setup_s        {e2e['setup_s']:.4f} s   (median of {len(outcome.setup_s)} set-ups)"]
    if outcome.workload == "build":
        lines.append(f"build_s        {e2e['wall_s']:.4f} s   (fastest of {passes} builds)")
    else:
        def rms(values):
            return float(np.sqrt(np.mean(np.square(values)))) if values else float("nan")

        lines += [
            f"localize_s     {e2e['wall_s']:.4f} s   (fastest of {passes} passes)",
            f"scan_ms_p50    {e2e['op_ms_p50']:.4f} ms  ({n_ops} scans, each the fastest of {passes})",
            f"scan_ms_p95    {e2e['op_ms_p95']:.4f} ms  ({n_ops - int(np.ceil(0.95 * n_ops))} scans beyond it)",
            f"rmse_t_m       {rms(tally.err_t):.6g} m   ({len(tally.err_t)} poses)",
            f"rmse_yaw_rad   {rms(tally.err_yaw):.6g} rad",
        ]
    lines += [
        f"fail_frac      {tally.failed / tally.attempted:.6g} ratio  ({tally.failed} of {tally.attempted})",
        f"peak_rss_mb    {e2e['peak_rss_mb']:.1f} MB",
    ]
    return lines


def traced_metrics(outcome: workloads.Outcome) -> dict[str, float]:
    """Per-layer numbers of the traced passes, plus tracing overhead and accounting."""
    traced = outcome.traced
    metrics = tracing.layer_metrics(outcome.tracer, len(traced), len(traced[0].op_times))
    wall_u, ops_u = workloads.best_of(outcome.untraced)
    wall_t, ops_t = workloads.best_of(traced)
    scans = outcome.workload != "build"
    metrics["trace.overhead_s"] = wall_t - wall_u
    metrics["trace.scan_ms_p50.untraced"] = float(np.median(ops_u)) * 1e3 if scans else 0.0
    metrics["trace.scan_ms_p50.traced"] = float(np.median(ops_t)) * 1e3 if scans else 0.0
    return metrics


def run_one(args) -> int:
    bench = load_json(ROOT / "BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL, OUT)
    info = stamp(args.seed)
    print(f"workload {args.workload}  trace {args.trace}  {json.dumps(info)}")
    if args.trace:
        metrics = traced_metrics(outcome)
        computed = {n for n, link in load_json(HERE / "layers.json")["links"].items() if link.get("computed")}
        lines = [
            f"{n:46s} {v:.6g} {units[n]}{' (computed)' if n in computed else ''}"
            for n, v in metrics.items()
        ]
        if outcome.tracer.scans:
            lines.append("self time per scan, by layer (mean over traced scans):")
            lines += [f"  {n:44s} {v:.4f} ms" for n, v in tracing.scan_self_ms(outcome.tracer).items()]
            overhead = metrics["trace.scan_ms_p50.traced"] - metrics["trace.scan_ms_p50.untraced"]
            lines.append(
                f"accounting: layers sum to {metrics['trace.layers_ms_p50']:.4f} ms at p50; untraced "
                f"scan_ms_p50 {metrics['trace.scan_ms_p50.untraced']:.4f} ms; tracing overhead "
                f"{overhead:.4f} ms per scan"
            )
        outcome.tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        names = [m["name"] for m in bench["per_layer"]]
    else:
        metrics = end_to_end(outcome)
        lines = report_lines(outcome, metrics)
        names = [m["name"] for m in bench["end_to_end"]]
    for line in lines:
        print("  " + line)
    tally = outcome.tally
    result = {
        "correct": outcome.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": info, **result}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    if not outcome.exact:
        print("bit-exactness check failed", file=sys.stderr)
        return 1
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            status = subprocess.run(cmd).returncode or status
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="one workload (default: all, each in its own process)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="time measured per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_json(ROOT / "BENCHMARK.json")["run_seconds"]
    OUT.mkdir(exist_ok=True)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
