"""The three dfloc benchmark workloads: set-up, timed pass and output checks.

* ``build``: the offline cost. plan_grid -> build_grid -> save_grid on a
  100 pts/m^2 room at 0.075 m (160x160x94 cells). Checked bitwise against
  the brute-force oracle on sampled nodes and by a save/load round trip.
* ``track``: the online product path. load_grid, then init_tracker /
  track_step over 4 trajectories of 25 scans under all four odometry
  modes, on a 0.1 m grid built and saved during set-up by a separate
  process.
* ``icp``: the baseline on the dense 400 pts/m^2 map. build_index, then
  compose + tilt_compensate + icp_register for 4 trajectories of 50 scans,
  baseline odometry only (the noisier modes diverge by design).

Every workload is a closed loop with one sequential caller. The benchmark
calls dfloc through module attributes so that tracing.Tracer can wrap
them. Run as a script, this module builds the track grid for set-up.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from dfloc import bench, distance_field, geometry, nnsearch, registration, synth, tracker
from dfloc.geometry import wrap_angle

import tracing

# Criterion 4's per-scan tolerance: a scan outside it counts as failed.
TOL_T = 0.05
TOL_YAW = 0.01
# Criterion 4 accepts 95 of 100 registrations within that tolerance.
MAX_MISS_FRAC = 0.05
# Set-up runs in SETUP_REPEATS rounds and for at least SETUP_MIN_S in all,
# so that a set-up of a few milliseconds still gives a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
# Timed passes per untraced run; each operation's time is its fastest pass.
MIN_PASSES = 2
# Odometry noise of the stored increments, as in acceptance criterion 7.
ODOM_NOISE = (0.03, 0.008)


@dataclass(frozen=True)
class Size:
    """Input sizes; FULL is the benchmark, TOY keeps the self-test fast."""

    extent: float = 10.0
    density: float = 100.0
    dense_density: float = 400.0
    build_resolution: float = 0.075
    track_resolution: float = 0.1
    margin: float = 1.0
    # Several short trajectories rather than one long one: how hard the
    # scans are depends on where in the room a trajectory runs, and more
    # places per run keep that from moving the run's latency percentiles.
    # icp gets 200 scans, so that p95 has 10 samples beyond it.
    trajectories: int = 4
    track_steps: int = 25
    icp_steps: int = 50
    step_length: float = 0.15
    scan_points: int = 2000
    oracle_nodes: int = 1000


FULL = Size()
TOY = Size(extent=6.0, density=40.0, dense_density=60.0, build_resolution=0.3,
           track_resolution=0.25, trajectories=2, track_steps=8, icp_steps=8, scan_points=400,
           oracle_nodes=50)


def _seed(seed: int, *key: int) -> int:
    """Independent child seed of the run seed: (0) map, (1, i) trajectory i, (2) odometry modes."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def make_map(seed: int, extent: float, density: float) -> synth.Scene:
    return synth.make_scene("box_room", extent, density, seed=_seed(seed, 0))


def make_scenarios(seed: int, scene: synth.Scene, size: Size, steps: int) -> list[synth.ScenarioRun]:
    model = synth.ScanModel(max_range=15.0, points=size.scan_points, noise_sigma=0.02)
    return [
        synth.make_scenario(scene, steps, size.step_length, model, synth.NoiseSetup(*ODOM_NOISE),
                            seed=_seed(seed, 1, i))
        for i in range(size.trajectories)
    ]


@dataclass
class Tally:
    """Scan outcomes against ground truth; fail_frac = failed / attempted."""

    attempted: int = 0
    failed: int = 0
    diverged: int = 0
    err_t: list = field(default_factory=list)
    err_yaw: list = field(default_factory=list)

    def scan(self, pose, truth) -> bool:
        """Record one scan; False when it raised or diverged, ending its run."""
        self.attempted += 1
        if pose is None:
            self.failed += 1
            self.diverged += 1
            return False
        dt = float(np.linalg.norm(pose.translation - truth.translation))
        dyaw = abs(float(wrap_angle(pose.yaw - truth.yaw)))
        self.err_t.append(dt)
        self.err_yaw.append(dyaw)
        if dt > bench.DIVERGENCE_RADIUS:
            self.failed += 1
            self.diverged += 1
            return False
        if dt > TOL_T or dyaw > TOL_YAW:
            self.failed += 1
        return True

    def abandon(self, remaining: int) -> None:
        """Scans left after a divergence count as attempted and failed."""
        self.attempted += remaining
        self.failed += remaining

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.diverged += other.diverged
        self.err_t += other.err_t
        self.err_yaw += other.err_yaw


@dataclass
class Pass:
    """One timed pass: wall time, per-operation times, scan outcomes."""

    wall: float
    op_times: list
    tally: Tally
    grid: object = None


# ---- build -------------------------------------------------------------


@dataclass(frozen=True)
class BuildInputs:
    scene: synth.Scene
    size: Size
    path: Path
    seed: int


def setup_build(seed: int, size: Size, workdir: Path) -> BuildInputs:
    return BuildInputs(make_map(seed, size.extent, size.density), size, workdir / f"build-{seed}.df", seed)


def pass_build(inp: BuildInputs, tracer) -> Pass:
    start = perf_counter()
    spec = distance_field.plan_grid(inp.scene.map, inp.size.build_resolution, inp.size.margin)
    grid = distance_field.build_grid(inp.scene.map, spec)
    distance_field.save_grid(grid, inp.path)
    wall = perf_counter() - start
    return Pass(wall, [wall], Tally(), grid)


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.view(np.uint64) == b.view(np.uint64)


def check_build(inp: BuildInputs, grid: distance_field.DfGrid) -> Tally:
    """Each sampled node is one operation, failed unless its stored distance
    equals nnsearch.brute_force_distances bit for bit; the save/load round
    trip of ``grid`` through ``inp.path`` is one more."""
    tally = Tally()
    rng = np.random.default_rng(inp.seed)
    nodes = grid.node_distances.ravel()
    pick = rng.choice(nodes.size, size=inp.size.oracle_nodes, replace=False)
    oracle = nnsearch.brute_force_distances(inp.scene.map, grid.spec.node_coordinates()[pick])
    tally.attempted += pick.size + 1
    tally.failed += int((~_same_bits(oracle, nodes[pick])).sum())
    if not _round_trip_exact(grid, inp.path):
        tally.failed += 1
    return tally


def _round_trip_exact(grid: distance_field.DfGrid, path: Path) -> bool:
    """True when the file at ``path`` loads back to ``grid`` bit for bit."""
    try:
        loaded = distance_field.load_grid(path)
    except distance_field.GridFileError:
        return False
    a, b = grid.spec, loaded.spec
    header = (
        _same_bits(a.origin, b.origin).all()
        and (a.nx, a.ny, a.nz) == (b.nx, b.ny, b.nz)
        and _same_bits(np.array([a.resolution, a.margin]), np.array([b.resolution, b.margin])).all()
    )
    return bool(
        header
        and _same_bits(grid.node_distances, loaded.node_distances).all()
        and _same_bits(grid.coeffs, loaded.coeffs).all()
    )


# ---- track and icp -----------------------------------------------------


@dataclass(frozen=True)
class ScanRun:
    """One tracking run: frames fed in order, starting from truth[0]."""

    truth: tuple
    frames: tuple


def _scan_loop(runs, tracer, start, step, errors) -> tuple[list, Tally]:
    """Time ``step(state, frame) -> (state, pose)`` around every scan and
    judge each pose against ground truth."""
    tally = Tally()
    times = []
    for run in runs:
        state = start(run.truth[0])
        for k, frame in enumerate(run.frames):
            with tracer.scan():
                t0 = perf_counter()
                try:
                    state, pose = step(state, frame)
                except errors:
                    pose = None
                times.append(perf_counter() - t0)
            if not tally.scan(pose, run.truth[k]):
                tally.abandon(len(run.frames) - k - 1)
                break
    return times, tally


@dataclass(frozen=True)
class TrackInputs:
    runs: tuple  # one ScanRun per odometry mode and trajectory
    grid_path: Path


def build_track_grid(seed: int, extent: float, density: float, resolution: float, margin: float, path) -> None:
    scene = make_map(seed, extent, density)
    spec = distance_field.plan_grid(scene.map, resolution, margin)
    distance_field.save_grid(distance_field.build_grid(scene.map, spec), path)


def setup_track(seed: int, size: Size, workdir: Path) -> TrackInputs:
    scene = make_map(seed, size.extent, size.density)
    runs = tuple(
        ScanRun(scenario.ground_truth, bench.mode_frames(scenario, mode, _seed(seed, 2)))
        for mode in bench.MODES
        for scenario in make_scenarios(seed, scene, size, size.track_steps)
    )
    path = workdir / f"track-{seed}.df"
    # A separate process builds the grid, so that the build's memory stays
    # out of this process's peak RSS, which measures the timed phase.
    src = Path(distance_field.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, __file__, str(seed), str(size.extent), str(size.density),
         str(size.track_resolution), str(size.margin), str(path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    return TrackInputs(runs, path)


def pass_track(inp: TrackInputs, tracer) -> Pass:
    start = perf_counter()
    grid = distance_field.load_grid(inp.grid_path)

    def step(state, frame):
        state = tracker.track_step(state, frame, grid)
        return state, state.current_pose

    times, tally = _scan_loop(inp.runs, tracer, tracker.init_tracker, step, tracker.TrackStepError)
    return Pass(perf_counter() - start, times, tally)


@dataclass(frozen=True)
class IcpInputs:
    scene: synth.Scene
    runs: tuple  # one ScanRun per trajectory, baseline odometry


def setup_icp(seed: int, size: Size, workdir: Path) -> IcpInputs:
    scene = make_map(seed, size.extent, size.dense_density)
    runs = tuple(
        ScanRun(scenario.ground_truth, bench.mode_frames(scenario, "baseline", _seed(seed, 2)))
        for scenario in make_scenarios(seed, scene, size, size.icp_steps)
    )
    return IcpInputs(scene, runs)


def pass_icp(inp: IcpInputs, tracer) -> Pass:
    start = perf_counter()
    index = nnsearch.build_index(inp.scene.map)

    def step(pose, frame):
        guess = geometry.compose(pose, frame.odom) if frame.odom is not None else pose
        body = geometry.tilt_compensate(frame.cloud, frame.attitude)
        pose = registration.icp_register(body, index, guess).pose
        return pose, pose

    times, tally = _scan_loop(inp.runs, tracer, lambda pose: pose, step,
                              (registration.RegistrationError, ValueError))
    return Pass(perf_counter() - start, times, tally)


# ---- runner ------------------------------------------------------------

WORKLOADS = {
    "build": (setup_build, pass_build),
    "track": (setup_track, pass_track),
    "icp": (setup_icp, pass_icp),
}


def best_of(passes: list) -> tuple[float, np.ndarray]:
    """Fastest pass wall time, and each operation's fastest time over passes.

    Every pass repeats the same deterministic operations. Other tenants of
    a shared machine only ever slow a pass down (on a 2-vCPU Xeon virtual
    machine, by up to 60 % for seconds at a time), so the fastest
    repetition is the steadiest estimate of what the code itself costs.
    """
    n = min(len(p.op_times) for p in passes)
    ops = np.array([p.op_times[:n] for p in passes]).min(axis=0)
    return min(p.wall for p in passes), ops


@dataclass
class Outcome:
    """Everything one run measured, before formatting."""

    workload: str
    setup_s: list
    untraced: list
    traced: list
    tally: Tally
    peak_rss_mb: float
    tracer: tracing.Tracer | None = None

    @property
    def exact(self) -> bool:
        """False when a bit-exactness check (build only) failed."""
        return self.workload != "build" or self.tally.failed == 0

    @property
    def correct(self) -> bool:
        """Outputs meet dfloc's acceptance criteria: every bit-exactness
        check holds, no scan raised or diverged (criterion 6), and at least
        95 % of scans are within tolerance (criterion 4). Every miss still
        counts in ``failed``."""
        t = self.tally
        if self.workload == "build":
            return t.failed == 0
        return t.diverged == 0 and t.failed <= MAX_MISS_FRAC * t.attempted


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, size: Size, workdir: Path) -> Outcome:
    """Set up and run timed passes, interleaved, until ``seconds`` of passes.

    Set-up runs in SETUP_REPEATS rounds, each repeating it for at least
    SETUP_MIN_S / SETUP_REPEATS seconds, with a timed pass after each of
    the first rounds; the repetitions of every operation thus spread over
    the whole run, and the fastest of them is the steadier for it.
    Untraced runs make at least MIN_PASSES passes. Traced runs alternate
    untraced and traced passes, at least one of each, so that their
    difference is the tracing overhead.
    """
    setup, one_pass = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    setup_s = []
    rounds = 0
    tracer = tracing.Tracer() if trace else None
    untraced: list[Pass] = []
    traced: list[Pass] = []
    tally = Tally()
    last_grid = None
    try:
        while True:
            if rounds < SETUP_REPEATS:
                spent = 0.0
                while spent == 0.0 or spent < SETUP_MIN_S / SETUP_REPEATS:
                    t0 = perf_counter()
                    inputs = setup(seed, size, workdir)
                    setup_s.append(perf_counter() - t0)
                    spent += setup_s[-1]
                rounds += 1
            measured = sum(p.wall for p in untraced + traced)
            done = traced if tracer is not None else len(untraced) >= MIN_PASSES
            if rounds == SETUP_REPEATS and measured >= seconds and done:
                break
            if tracer is not None and len(traced) < len(untraced):
                with tracer.installed():
                    p = one_pass(inputs, tracer)
                traced.append(p)
            else:
                p = one_pass(inputs, tracing.NullTracer())
                untraced.append(p)
            tally.merge(p.tally)
            last_grid, p.grid = p.grid, None
        outcome = Outcome(name, setup_s, untraced, traced, tally, peak_rss_mb(), tracer)
        if name == "build":
            tally.merge(check_build(inputs, last_grid))
    finally:
        for path in workdir.glob(f"{name}-{seed}.df"):
            path.unlink()
    return outcome


if __name__ == "__main__":
    # Set-up helper for the track workload: seed extent density resolution margin out.
    seed_arg, *numbers, out = sys.argv[1:]
    build_track_grid(int(seed_arg), *map(float, numbers), out)
