"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive scenes and
fields come from session fixtures (see conftest) or module-level caches, so
the whole module stays within its stated runtime budgets.
"""

import functools
import math
import struct
import time

import numpy as np
import pytest

from dfloc import bench
from dfloc.cli import main as cli_main
from dfloc.distance_field import (
    GRID_MAGIC,
    GridDimensionError,
    GridMagicError,
    GridTruncatedError,
    GridVersionError,
    build_grid,
    load_grid,
    plan_grid,
    query_many,
    save_grid,
)
from dfloc.formats import (
    CloudParseError,
    CloudValueError,
    ConfigError,
    EmptyCloudError,
    RunConfig,
    TrajectoryFormatError,
    TrajectoryRow,
    config_from_dict,
    read_cloud,
    read_trajectory,
    write_cloud,
    write_trajectory,
)
from dfloc.geometry import (
    Attitude,
    Frame,
    PointCloud,
    Pose4,
    apply_pose,
    tilt_compensate,
    wrap_angle,
)
from dfloc.nnsearch import brute_force_distances, build_index
from dfloc.registration import UnobservableCloudError, df_residuals, dll_register
from dfloc.synth import NoiseSetup, ScanModel, make_scenario, make_scene, simulate_scan

# Near-tie comparability slack for the mode-ordering chain: converged runs
# differ only by solver-termination noise, real degradations are 10-100x.
ORDER_SLACK = 0.002


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL  {title}")
                raise
            print(f"[criterion {number:2d}] PASS  {title}" + (f"  ({detail})" if detail else ""))

        return wrapper

    return deco


@pytest.fixture(scope="module")
def random_field():
    """10k-point random scene with its field and the build wall time."""
    rng = np.random.default_rng(100)
    cloud = PointCloud(rng.uniform(0.0, 10.0, size=(10_000, 3)), Frame.MAP)
    started = time.perf_counter()
    spec = plan_grid(cloud, 0.25, margin=1.0)
    grid = build_grid(cloud, spec)
    return cloud, spec, grid, time.perf_counter() - started


@pytest.fixture(scope="module")
def tracking_scenario(room_scene):
    model = ScanModel(max_range=15.0, points=2000, noise_sigma=0.02)
    return make_scenario(room_scene, steps=100, step_length=0.15, model=model,
                         noise=NoiseSetup(), seed=42)


@criterion(1, "DF node exactness on a 10k-point random scene (1e-9, < 60 s)")
def test_criterion_1_node_exactness(random_field):
    cloud, spec, grid, build_time = random_field
    started = time.perf_counter()
    oracle = brute_force_distances(cloud, spec.node_coordinates())
    err = np.abs(grid.node_distances.ravel() - oracle).max()
    elapsed = build_time + (time.perf_counter() - started)
    assert err <= 1e-9
    assert elapsed < 60.0
    return f"max err {err:.2e}, {grid.node_distances.size} nodes, {elapsed:.1f} s"


@criterion(2, "DF interpolation bound at 10k random interior points")
def test_criterion_2_interpolation_bound(random_field):
    cloud, spec, grid, _ = random_field
    rng = np.random.default_rng(101)
    pts = rng.uniform(spec.origin, spec.upper, size=(10_000, 3))
    vals, _, inside = query_many(grid, pts)
    assert inside.all()
    truth = brute_force_distances(cloud, pts)
    err = np.abs(vals - truth)
    assert err.max() <= spec.resolution * math.sqrt(3.0)
    assert np.median(err) <= spec.resolution / 2.0
    return f"max {err.max():.4f} <= {spec.resolution * math.sqrt(3.0):.4f}, median {np.median(err):.4f}"


@criterion(3, "analytic gradients vs finite differences (field and residual Jacobian)")
def test_criterion_3_gradient_checks(random_field):
    cloud, spec, grid, _ = random_field
    rng = np.random.default_rng(102)
    h = 1e-6

    # (a) field gradient at 1000 interior points clear of cell faces
    checked = 0
    worst_a = 0.0
    while checked < 1000:
        p = rng.uniform(spec.origin + 0.05, spec.upper - 0.05)
        frac = (p - spec.origin) / spec.resolution
        frac -= np.floor(frac)
        if (frac * spec.resolution < 1e-4).any() or ((1 - frac) * spec.resolution < 1e-4).any():
            continue
        checked += 1
        _, grad, _ = query_many(grid, p)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            fd = (query_many(grid, p + e)[0] - query_many(grid, p - e)[0]) / (2 * h)
            worst_a = max(worst_a, abs(grad[axis] - fd))
    assert worst_a <= 1e-5

    # (b) 4-DOF residual Jacobian at 100 random registration states
    states = 0
    worst_b = 0.0
    while states < 100:
        pose = Pose4(rng.uniform(2, 8), rng.uniform(2, 8), rng.uniform(2, 8),
                     rng.uniform(-math.pi, math.pi))
        pts = rng.uniform(-2.0, 2.0, size=(40, 3))
        provider = df_residuals(grid, pts)
        _, jac = provider(pose)
        mapped = apply_pose(pose, pts)
        frac = (mapped - spec.origin) / spec.resolution
        frac -= np.floor(frac)
        safe = (
            ((frac * spec.resolution > 5e-4) & ((1 - frac) * spec.resolution > 5e-4)).all(axis=1)
            & query_many(grid, mapped)[2]
        )
        if safe.sum() < 10:
            continue
        states += 1
        x0 = pose.as_array()
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            rp, _ = provider(Pose4.from_array(x0 + e))
            rm, _ = provider(Pose4.from_array(x0 - e))
            fd = (rp - rm) / (2 * h)
            worst_b = max(worst_b, np.abs(jac[safe, k] - fd[safe]).max())
    assert worst_b <= 1e-4
    return f"field grad max err {worst_a:.2e}, Jacobian max err {worst_b:.2e}"


def _recovery_trials(scene, grid, outlier_fraction, tol_t, tol_yaw, seed=1234):
    model = ScanModel(max_range=15.0, points=2000, noise_sigma=0.02,
                      outlier_fraction=outlier_fraction)
    successes = 0
    for ss in np.random.SeedSequence(seed).spawn(100):
        rng = np.random.default_rng(ss)
        pose = Pose4(rng.uniform(2, 8), rng.uniform(2, 8), rng.uniform(1.5, 3.5),
                     rng.uniform(-math.pi, math.pi))
        scan = simulate_scan(scene, pose, Attitude.level(), model, seed=int(ss.generate_state(1)[0]))
        body = tilt_compensate(scan, Attitude.level())
        pert = rng.normal(0.0, [0.5, 0.5, 0.5, 0.1])
        guess = Pose4(pose.tx + pert[0], pose.ty + pert[1], pose.tz + pert[2], pose.yaw + pert[3])
        result = dll_register(body, grid, guess)
        err_t = float(np.linalg.norm(result.pose.translation - pose.translation))
        err_yaw = abs(float(wrap_angle(result.pose.yaw - pose.yaw)))
        if err_t <= tol_t and err_yaw <= tol_yaw:
            successes += 1
    return successes


@criterion(4, "pose recovery from sigma (0.5 m, 0.1 rad) perturbations: >= 95/100, < 5 min")
def test_criterion_4_pose_recovery(room_scene, room_grid):
    started = time.perf_counter()
    successes = _recovery_trials(room_scene, room_grid, 0.0, 0.05, 0.01)
    elapsed = time.perf_counter() - started
    assert successes >= 95
    assert elapsed < 300.0
    return f"{successes}/100 in {elapsed:.1f} s"


@criterion(5, "outlier robustness at 20% clutter: >= 90/100 within (0.08 m, 0.02 rad)")
def test_criterion_5_outlier_robustness(room_scene, room_grid):
    successes = _recovery_trials(room_scene, room_grid, 0.2, 0.08, 0.02)
    assert successes >= 90
    return f"{successes}/100"


@criterion(6, "tracking robustness across odometry modes (100 steps)")
def test_criterion_6_tracking_modes(room_scene, room_grid, room_index, tracking_scenario):
    rows = {}
    for mode in bench.MODES:
        run = bench.run_tracking(tracking_scenario, "dll", mode, grid=room_grid, cfg=RunConfig(seed=42))
        row = bench.bench_row(run, tracking_scenario)
        assert not row.diverged, f"dll diverged under {mode}"
        rows[mode] = row
    r = {m: rows[m].rmse_t for m in bench.MODES}
    assert r["baseline"] <= r["noodom"] + ORDER_SLACK
    assert r["noodom"] <= r["midnoise"] + ORDER_SLACK
    assert r["midnoise"] <= r["largenoise"] + ORDER_SLACK
    assert r["largenoise"] < 0.3

    # The ICP baseline is permitted (expected) to diverge under the noisy
    # modes; record what happened without asserting it.
    icp_outcomes = {}
    for mode in ("midnoise", "largenoise"):
        run = bench.run_tracking(tracking_scenario, "icp", mode, map_index=room_index, cfg=RunConfig(seed=42))
        icp_outcomes[mode] = "diverged" if run.diverged else "survived"
    detail = ", ".join(f"{m}={r[m]:.4f}" for m in bench.MODES)
    return f"rmse_t {detail}; icp {icp_outcomes}"


@criterion(7, "relative speed: field registration >= 3x faster than ICP per scan")
def test_criterion_7_relative_speed(room_scene):
    # Map sampled at the benchmark map-resolution scale (0.05 m spacing =
    # 400 pts/m^2) so nearest-neighbor cost is realistic for the baseline.
    scene = make_scene("box_room", 10.0, 400.0, seed=11)
    grid = build_grid(scene.map, plan_grid(scene.map, 0.075, margin=1.0))
    index = build_index(scene.map)
    model = ScanModel(max_range=15.0, points=2000, noise_sigma=0.02)
    scenario = make_scenario(scene, steps=40, step_length=0.15, model=model,
                             noise=NoiseSetup(0.03, 0.008), seed=9)
    run_dll = bench.run_tracking(scenario, "dll", "baseline", grid=grid, cfg=RunConfig(seed=9))
    run_icp = bench.run_tracking(scenario, "icp", "baseline", map_index=index, cfg=RunConfig(seed=9))
    assert not run_dll.diverged and not run_icp.diverged
    dll_mean = run_dll.step_times.mean()
    icp_mean = run_icp.step_times.mean()
    assert dll_mean <= icp_mean / 3.0
    return f"dll {dll_mean * 1e3:.1f} ms vs icp {icp_mean * 1e3:.1f} ms ({icp_mean / dll_mean:.1f}x)"


@criterion(8, "benchmark determinism: same seed -> byte-identical report CSV")
def test_criterion_8_benchmark_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scene.extent = 6.0\nscene.density = 40\ntrajectory.steps = 6\n"
        "trajectory.step_length = 0.2\nscan.points = 300\nscan.max_range = 8\n"
        "seed = 7\n"
    )
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "scn")]) == 0
    assert cli_main([
        "build-df", "--map", str(tmp_path / "scn" / "map.cld"),
        "--resolution", "0.2", "--margin", "1.0", "--out", str(tmp_path / "g.df"),
    ]) == 0
    reports = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli_main([
            "benchmark", "--grid", str(tmp_path / "g.df"), "--scenario", str(tmp_path / "scn"),
            "--config", str(cfg), "--seed", "5", "--out", str(out),
        ]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    return f"{len(reports[0])} bytes identical"


@criterion(9, "round trips are lossless and malformed inputs raise the documented errors")
def test_criterion_9_round_trips_and_errors(tmp_path, small_grid):
    # grid: bit-exact round trip
    gpath = tmp_path / "g.df"
    save_grid(small_grid, gpath)
    loaded = load_grid(gpath)
    assert np.array_equal(loaded.node_distances, small_grid.node_distances)
    assert np.array_equal(loaded.coeffs, small_grid.coeffs)
    assert np.array_equal(loaded.spec.origin, small_grid.spec.origin)

    # grid: the four malformed classes
    bad = tmp_path / "bad.df"
    bad.write_bytes(b"WRONGMAG" + b"\0" * 80)
    with pytest.raises(GridMagicError):
        load_grid(bad)
    raw = bytearray(gpath.read_bytes())
    struct.pack_into("<I", raw, len(GRID_MAGIC), 99)
    bad.write_bytes(bytes(raw))
    with pytest.raises(GridVersionError):
        load_grid(bad)
    bad.write_bytes(gpath.read_bytes()[:-8])
    with pytest.raises(GridTruncatedError):
        load_grid(bad)
    raw = bytearray(gpath.read_bytes())
    struct.pack_into("<3Q", raw, len(GRID_MAGIC) + struct.calcsize("<I3ddd"), 1 << 40, 4, 4)
    bad.write_bytes(bytes(raw))
    with pytest.raises(GridDimensionError):
        load_grid(bad)

    # clouds: text and binary round trips at stated precision
    rng = np.random.default_rng(103)
    cloud = PointCloud(rng.normal(scale=8.0, size=(300, 3)), Frame.MAP)
    tpath = tmp_path / "c.xyz"
    write_cloud(cloud, tpath)
    assert np.abs(read_cloud(tpath).points - cloud.points).max() < 1e-6
    bpath = tmp_path / "c.cld"
    write_cloud(cloud, bpath, binary=True)
    assert np.array_equal(
        read_cloud(bpath).points, cloud.points.astype(np.float32).astype(np.float64)
    )

    # clouds: the documented error classes
    (tmp_path / "m.xyz").write_text("1 2\n")
    with pytest.raises(CloudParseError):
        read_cloud(tmp_path / "m.xyz")
    (tmp_path / "n.xyz").write_text("1 2 inf\n")
    with pytest.raises(CloudValueError):
        read_cloud(tmp_path / "n.xyz")
    (tmp_path / "e.xyz").write_text("# empty\n")
    with pytest.raises(EmptyCloudError):
        read_cloud(tmp_path / "e.xyz")

    # trajectory: 1e-9 round trip plus error classes
    rows = [
        TrajectoryRow(k * 0.1, Pose4(*rng.uniform(-20, 20, 3), rng.uniform(-math.pi, math.pi)))
        for k in range(500)
    ]
    csv = tmp_path / "t.csv"
    write_trajectory(rows, csv)
    back = read_trajectory(csv)
    worst = max(
        max(abs(a.timestamp - b.timestamp), abs(a.pose.tx - b.pose.tx), abs(a.pose.ty - b.pose.ty),
            abs(a.pose.tz - b.pose.tz), abs(a.pose.yaw - b.pose.yaw))
        for a, b in zip(rows, back)
    )
    assert worst < 1e-9
    (tmp_path / "h.csv").write_text("nope\n")
    with pytest.raises(TrajectoryFormatError):
        read_trajectory(tmp_path / "h.csv")
    (tmp_path / "cols.csv").write_text("t,tx,ty,tz,yaw\n1,2\n")
    with pytest.raises(TrajectoryFormatError):
        read_trajectory(tmp_path / "cols.csv")
    (tmp_path / "old.csv").write_text("t,tx,ty,tz,roll,pitch,yaw,source\n0,0,0,0,0,0,0,estimate\n")
    with pytest.raises(TrajectoryFormatError):
        read_trajectory(tmp_path / "old.csv")

    # config: the documented error classes
    with pytest.raises(ConfigError):
        config_from_dict({"no.such.key": "1"})
    with pytest.raises(ConfigError, match="key 'scene.extent': bad value"):
        config_from_dict({"scene.extent": "fast"})
    with pytest.raises(ConfigError, match="key 'scene.extent': bad value"):
        config_from_dict({"scene.extent": "-0.1"})
    return f"trajectory round trip max err {worst:.1e}"


@criterion(10, "out-of-map semantics: partial clouds register, fully-outside clouds error")
def test_criterion_10_out_of_map(room_scene, room_grid):
    true = Pose4(5.0, 5.0, 2.5, 0.7)
    model = ScanModel(max_range=15.0, points=2000, noise_sigma=0.01)
    scan = simulate_scan(room_scene, true, Attitude.level(), model, seed=104)
    body = tilt_compensate(scan, Attitude.level())

    pts = body.points.copy()
    half = len(pts) // 2
    pts[:half] += 200.0  # push half the cloud far outside the field volume
    mixed = PointCloud(pts, Frame.BODY)
    guess = Pose4(true.tx + 0.2, true.ty - 0.2, true.tz + 0.1, true.yaw - 0.05)
    result = dll_register(mixed, room_grid, guess)
    assert result.points_out_of_map >= half
    err_t = float(np.linalg.norm(result.pose.translation - true.translation))
    assert err_t <= 0.05

    outside = PointCloud(body.points + 300.0, Frame.BODY)
    with pytest.raises(UnobservableCloudError):
        dll_register(outside, room_grid, guess)
    return f"half-out recovered to {err_t:.4f} m; fully-out raised"
