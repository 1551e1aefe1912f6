import enum
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dfloc.formats import (
    CLOUD_MAGIC,
    CONFIG_KEYS,
    CloudFormatError,
    CloudParseError,
    CloudValueError,
    ConfigError,
    EmptyCloudError,
    ScenarioFormatError,
    TrajectoryFormatError,
    TrajectoryRow,
    TrajectorySource,
    config_from_dict,
    load_config,
    load_scenario,
    parse_keyvalues,
    read_cloud,
    read_trajectory,
    save_scenario,
    write_cloud,
    write_trajectory,
)
from dfloc.geometry import Frame, PointCloud
from dfloc.synth import NoiseSetup, ScanModel, make_scenario, make_scene


def test_read_text_cloud(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("0 0 0\n1 0 0\n# comment\n 2 0 0  # trailing\n\n")
    cloud = read_cloud(path)
    assert len(cloud) == 3
    assert np.allclose(cloud.points[2], [2, 0, 0])


def test_read_text_cloud_malformed_line(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("a b c\n")
    with pytest.raises(CloudParseError, match="line 1"):
        read_cloud(path)
    path.write_text("1 2\n")
    with pytest.raises(CloudParseError, match="line 1"):
        read_cloud(path)


def test_read_text_cloud_non_finite(tmp_path):
    path = tmp_path / "nan.xyz"
    path.write_text("0 0 0\n1 nan 0\n")
    with pytest.raises(CloudValueError, match="line 2"):
        read_cloud(path)


def test_read_empty_cloud(tmp_path):
    path = tmp_path / "empty.xyz"
    path.write_text("# nothing here\n")
    with pytest.raises(EmptyCloudError):
        read_cloud(path)


def test_cloud_text_round_trip(tmp_path):
    rng = np.random.default_rng(60)
    cloud = PointCloud(rng.normal(scale=10, size=(200, 3)), Frame.MAP)
    path = tmp_path / "rt.xyz"
    write_cloud(cloud, path)
    back = read_cloud(path)
    assert np.abs(back.points - cloud.points).max() < 1e-6


def test_cloud_binary_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    cloud = PointCloud(rng.normal(scale=10, size=(500, 3)), Frame.MAP)
    path = tmp_path / "rt.cld"
    write_cloud(cloud, path, binary=True)
    back = read_cloud(path)
    # lossless at f32 precision
    assert np.array_equal(back.points, cloud.points.astype(np.float32).astype(np.float64))


def test_cloud_binary_truncated(tmp_path):
    rng = np.random.default_rng(62)
    cloud = PointCloud(rng.normal(size=(10, 3)), Frame.MAP)
    path = tmp_path / "t.cld"
    write_cloud(cloud, path, binary=True)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(CloudFormatError):
        read_cloud(path)


def test_read_cloud_reads_no_more_than_the_header_implies(tmp_path):
    path = tmp_path / "trailing.cld"
    write_cloud(PointCloud(np.zeros((10, 3)), Frame.MAP), path, binary=True)
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size + (64 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(CloudFormatError, match="header implies"):
            read_cloud(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_read_cloud_refuses_a_count_beyond_the_file(tmp_path):
    path = tmp_path / "huge.cld"
    path.write_bytes(CLOUD_MAGIC + struct.pack("<Q", 1 << 40) + b"\0" * 4)
    with pytest.raises(CloudFormatError, match="header implies"):
        read_cloud(path)


def test_trajectory_round_trip(tmp_path):
    rng = np.random.default_rng(63)
    rows = [
        TrajectoryRow(
            float(k) * 0.1,
            *rng.uniform(-50, 50, size=3),
            *rng.uniform(-1.5, 1.5, size=2),
            rng.uniform(-math.pi, math.pi),
            TrajectorySource.ESTIMATE,
        )
        for k in range(1000)
    ]
    path = tmp_path / "traj.csv"
    write_trajectory(rows, path)
    back = read_trajectory(path)
    assert len(back) == 1000
    for a, b in zip(rows, back):
        assert abs(a.timestamp - b.timestamp) < 1e-9
        assert abs(a.tx - b.tx) < 1e-9
        assert abs(a.ty - b.ty) < 1e-9
        assert abs(a.tz - b.tz) < 1e-9
        assert abs(a.roll - b.roll) < 1e-9
        assert abs(a.pitch - b.pitch) < 1e-9
        assert abs(a.yaw - b.yaw) < 1e-9
        assert a.source == b.source


def test_trajectory_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    write_trajectory([], path)
    assert path.read_text().strip() == "t,tx,ty,tz,roll,pitch,yaw,source"
    assert read_trajectory(path) == []


def test_trajectory_header_mismatch(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("time,x,y\n")
    with pytest.raises(TrajectoryFormatError, match="header"):
        read_trajectory(path)


def test_trajectory_column_count(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("t,tx,ty,tz,roll,pitch,yaw,source\n0,1,2,3\n")
    with pytest.raises(TrajectoryFormatError, match="8 columns"):
        read_trajectory(path)


def test_trajectory_unknown_source(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,tx,ty,tz,roll,pitch,yaw,source\n0,1,2,3,0,0,0,guess\n")
    with pytest.raises(TrajectoryFormatError, match="unknown source"):
        read_trajectory(path)


def test_config_defaults_from_empty():
    cfg = config_from_dict({})
    assert cfg.sim.extent == 10.0  # desk-scale scene default
    assert cfg.loss.scale == 0.1  # robust kernel default
    assert cfg.icp.max_iterations == 50
    assert cfg.icp.max_correspondence_distance == 0.1
    assert cfg.solver.max_iterations == 50


def test_config_override():
    cfg = config_from_dict({"scene.extent": "12.5"})
    assert cfg.sim.extent == 12.5


@pytest.mark.parametrize("key", ["map", "grid.resolution", "grid.margin", "icp.outlier_rejection_threshold"])
def test_config_rejects_keys_no_command_reads(key):
    # Grid settings are build-df flags; no command reads a map path from the config.
    # ICP keeps no outlier threshold: its correspondence radius is the only gate.
    with pytest.raises(ConfigError, match=re.escape(f"unknown key '{key}'")):
        config_from_dict({key: "1"})


def test_config_unknown_key():
    with pytest.raises(ConfigError, match="grid.size"):
        config_from_dict({"grid.size": "5"})


def test_config_unparsable_value():
    with pytest.raises(ConfigError, match="solver.max_iterations"):
        config_from_dict({"solver.max_iterations": "many"})


def test_config_constraint_violation():
    with pytest.raises(ConfigError, match="solver.max_iterations"):
        config_from_dict({"solver.max_iterations": "0"})
    with pytest.raises(ConfigError, match="scan.outlier_fraction"):
        config_from_dict({"scan.outlier_fraction": "1.5"})


# One violating value per constraint of the documented config keys (FORMATS.md),
# plus NaN and inf for every float key: NaN fails every comparison, so a check
# written as `x < 0` would let it through, and inf passes `x > 0`.
CONSTRAINT_VIOLATIONS = {
    "loss.kind": ["huber"],
    "loss.scale": ["0", "nan", "inf"],
    "solver.max_iterations": ["0"],
    "solver.param_tolerance": ["0", "nan", "inf"],
    "solver.cost_tolerance": ["-1e-8", "nan", "inf"],
    "solver.initial_damping": ["0", "nan", "inf"],
    "solver.damping_increase": ["1", "nan", "inf"],
    "solver.damping_decrease": ["0", "1", "nan", "inf"],
    "icp.max_iterations": ["0"],
    "icp.max_correspondence_distance": ["0", "nan", "inf"],
    "icp.convergence_epsilon": ["0", "nan", "inf"],
    "noise.sigma_t": ["-0.1", "nan", "inf"],
    "noise.sigma_yaw": ["-0.1", "nan", "inf"],
    "scene.kind": ["forest"],
    "scene.extent": ["0", "nan", "inf"],
    "scene.density": ["-1", "nan", "inf"],
    "trajectory.steps": ["1"],
    "trajectory.step_length": ["0", "nan", "inf"],
    "trajectory.frame_dt": ["0", "nan", "inf"],
    "scan.points": ["0"],
    "scan.max_range": ["0", "nan", "inf"],
    "scan.noise_sigma": ["-0.01", "nan", "inf"],
    "scan.outlier_fraction": ["-0.1", "1.5", "nan", "inf"],
    "seed": ["1.5", "-1"],
}


@pytest.mark.parametrize(
    "key,value", [(k, v) for k, values in CONSTRAINT_VIOLATIONS.items() for v in values]
)
def test_config_constraint_table(key, value):
    with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
        config_from_dict({key: value})


def test_config_loss_scale_checked_without_cauchy():
    with pytest.raises(ConfigError, match="loss.scale"):
        config_from_dict({"loss.kind": "none", "loss.scale": "-1"})


def _formats_md_config_table() -> dict[str, str]:
    text = (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text(encoding="utf-8")
    section = text.split("## Run configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", section, flags=re.MULTILINE)
    return dict(rows)


def test_formats_md_config_table_matches_defaults():
    table = _formats_md_config_table()
    assert set(table) == set(CONFIG_KEYS)
    defaults = config_from_dict({})
    for key, documented in table.items():
        value = defaults
        for name in CONFIG_KEYS[key].split("."):
            value = getattr(value, name)
        if isinstance(value, enum.Enum):
            assert documented == value.value, key
        elif isinstance(value, str):
            assert documented == value, key
        else:
            assert float(documented) == value, key


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nscene.extent = 20.0\nseed = 9\n\nloss.kind = none\n")
    cfg = load_config(path)
    assert cfg.sim.extent == 20.0
    assert cfg.seed == 9
    assert cfg.loss.kind.value == "none"


def test_keyvalue_syntax_error(tmp_path):
    with pytest.raises(ConfigError, match="line 1"):
        parse_keyvalues("this is not a pair", "<test>")


def test_keyvalue_repeated_key_is_refused():
    with pytest.raises(ConfigError, match="line 3: key 'loss.scale'"):
        parse_keyvalues("loss.scale = 0.1\n# again\nloss.scale = 5\n", "<test>")


def test_scenario_bundle_round_trip(tmp_path):
    scene = make_scene("box_room", 6.0, 40.0, seed=70)
    scenario = make_scenario(
        scene, 6, 0.2, ScanModel(max_range=10, points=150, noise_sigma=0.01),
        NoiseSetup(0.05, 0.01), seed=71,
    )
    out = tmp_path / "scn"
    save_scenario(scenario, out)
    back = load_scenario(out)
    assert len(back.frames) == len(scenario.frames)
    assert back.noise.sigma_t == pytest.approx(scenario.noise.sigma_t)
    assert np.allclose(back.scene.bounds, scenario.scene.bounds)
    for fa, fb in zip(scenario.frames, back.frames):
        assert fb.timestamp == pytest.approx(fa.timestamp, abs=1e-9)
        assert fb.odom.dtx == pytest.approx(fa.odom.dtx, abs=1e-9)
        assert fb.odom.dyaw == pytest.approx(fa.odom.dyaw, abs=1e-9)
        assert fb.attitude.roll == pytest.approx(fa.attitude.roll, abs=1e-9)
        # clouds survive at f32 precision
        assert np.abs(fb.cloud.points - fa.cloud.points).max() < 1e-5
    for pa, pb in zip(scenario.ground_truth, back.ground_truth):
        assert np.abs(pa.as_array() - pb.as_array()).max() < 1e-9


def test_scenario_missing_meta(tmp_path):
    with pytest.raises(ScenarioFormatError):
        load_scenario(tmp_path)


@pytest.fixture
def bundle(tmp_path):
    scene = make_scene("box_room", 4.0, 10.0, seed=72)
    model = ScanModel(max_range=6.0, points=20, noise_sigma=0.01)
    out = tmp_path / "scn"
    save_scenario(make_scenario(scene, 3, 0.2, model, NoiseSetup(0.01, 0.01), seed=73), out)
    return out


def _replace_line(path, lineno, edit):
    lines = path.read_text().splitlines()
    lines[lineno] = edit(lines[lineno])
    path.write_text("\n".join(lines) + "\n")


def _set_field(column, value):
    return lambda line: ",".join(value if i == column else v for i, v in enumerate(line.split(",")))


@pytest.mark.parametrize(
    "member, spoil",
    [
        ("scenario.txt", lambda d: (d / "scenario.txt").write_text("seed 3\n")),
        ("scenario.txt", lambda d: _replace_line(d / "scenario.txt", 4, lambda _: "bounds.min = 0 0 0 0")),
        ("scenario.txt", lambda d: _replace_line(d / "scenario.txt", 5, lambda _: "bounds.max = 9 9 nan")),
        ("scenario.txt", lambda d: _replace_line(d / "scenario.txt", 1, lambda _: "noise.sigma_t = inf")),
        ("scenario.txt", lambda d: _replace_line(d / "scenario.txt", 1, lambda _: "seed = 4")),
        ("frames.csv", lambda d: _replace_line(d / "frames.csv", 2, _set_field(5, "nan"))),
        ("frames.csv", lambda d: _replace_line(d / "frames.csv", 3, _set_field(0, "0"))),
        ("map.cld", lambda d: (d / "map.cld").unlink()),
        ("scans/000001.cld", lambda d: (d / "scans" / "000001.cld").unlink()),
    ],
    ids=["meta-line-without-equals", "bounds-with-4-numbers", "nan-bound", "inf-sigma", "repeated-key", "nan-roll",
         "non-increasing-times", "missing-map", "missing-scan"],
)
def test_malformed_bundle_member_is_scenario_format_error(bundle, member, spoil):
    spoil(bundle)
    with pytest.raises(ScenarioFormatError, match=re.escape(member)) as info:
        load_scenario(bundle)
    assert info.value.__cause__ is not None


@pytest.mark.parametrize("scan", ["absolute", "../outside.cld", "scans/../../outside.cld"])
def test_load_scenario_refuses_scan_paths_outside_the_bundle(bundle, scan):
    outside = bundle.parent / "outside.cld"
    write_cloud(PointCloud(np.ones((20, 3)), Frame.SENSOR), outside, binary=True)
    scan = str(outside) if scan == "absolute" else scan
    _replace_line(bundle / "frames.csv", 1, _set_field(7, scan))
    with pytest.raises(ScenarioFormatError, match="line 2: scan path"):
        load_scenario(bundle)


def test_load_scenario_refuses_another_frames_scan(bundle):
    # Row k must name its own scan: frame 2 may not load frame 0's cloud.
    _replace_line(bundle / "frames.csv", 3, _set_field(7, "scans/000000.cld"))
    with pytest.raises(ScenarioFormatError, match=re.escape("line 4: scan path 'scans/000000.cld'")):
        load_scenario(bundle)
