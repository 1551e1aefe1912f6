import dataclasses
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
    FRAMES_HEADER,
    REPORT_HEADER,
    STEP_TIMES_HEADER,
    TIMING_HEADER,
    TRAJECTORY_HEADER,
    CloudFormatError,
    CloudParseError,
    CloudValueError,
    ConfigError,
    EmptyCloudError,
    RunConfig,
    ScenarioFormatError,
    TrajectoryFormatError,
    TrajectoryRow,
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
from dfloc.distance_field import _HEADER_FMT, GRID_MAGIC, GRID_VERSION, build_grid, plan_grid, save_grid
from dfloc.geometry import Frame, PointCloud, Pose4
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
        TrajectoryRow(float(k) * 0.1, Pose4(*rng.uniform(-50, 50, size=3), rng.uniform(-math.pi, math.pi)))
        for k in range(1000)
    ]
    path = tmp_path / "traj.csv"
    write_trajectory(rows, path)
    back = read_trajectory(path)
    assert len(back) == 1000
    for a, b in zip(rows, back):
        assert abs(a.timestamp - b.timestamp) < 1e-9
        assert abs(a.pose.tx - b.pose.tx) < 1e-9
        assert abs(a.pose.ty - b.pose.ty) < 1e-9
        assert abs(a.pose.tz - b.pose.tz) < 1e-9
        assert abs(a.pose.yaw - b.pose.yaw) < 1e-9


def test_trajectory_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    write_trajectory([], path)
    assert path.read_text().strip() == "t,tx,ty,tz,yaw"
    assert read_trajectory(path) == []


def test_trajectory_header_mismatch(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("time,x,y\n")
    with pytest.raises(TrajectoryFormatError, match="header"):
        read_trajectory(path)


def test_trajectory_column_count(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("t,tx,ty,tz,yaw\n0,1,2,3\n")
    with pytest.raises(TrajectoryFormatError, match="5 columns"):
        read_trajectory(path)


OLD_TRAJECTORY_HEADER = "t,tx,ty,tz,roll,pitch,yaw,source"


def test_trajectory_refuses_the_old_layout(tmp_path):
    # Older files also held roll, pitch and a source tag, which nothing read.
    path = tmp_path / "old.csv"
    path.write_text(f"{OLD_TRAJECTORY_HEADER}\n0,1,2,3,0.01,-0.02,0.5,estimate\n")
    with pytest.raises(TrajectoryFormatError, match=re.escape(f"{path}: bad header '{OLD_TRAJECTORY_HEADER}'")):
        read_trajectory(path)


def test_config_defaults_from_empty():
    cfg = config_from_dict({})
    assert cfg.extent == 10.0  # desk-scale scene default
    assert cfg.seed == 0


def test_config_override():
    cfg = config_from_dict({"scene.extent": "12.5"})
    assert cfg.extent == 12.5


@pytest.mark.parametrize("key", ["map", "grid.resolution", "grid.margin", "icp.outlier_rejection_threshold",
                                 "solver.damping_increase", "solver.damping_decrease", "trajectory.frame_dt"])
def test_config_rejects_keys_no_command_reads(key):
    # Grid settings are build-df flags; no command reads a map path from the config.
    # ICP keeps no outlier threshold: its correspondence radius is the only gate.
    # The damping factors and the frame spacing are constants of solver and synth.
    with pytest.raises(ConfigError, match=re.escape(f"unknown key '{key}'")):
        config_from_dict({key: "1"})


def test_config_unknown_key():
    with pytest.raises(ConfigError, match="grid.size"):
        config_from_dict({"grid.size": "5"})


def test_config_unparsable_value():
    with pytest.raises(ConfigError, match=re.escape("key 'scan.points': bad value 'many'")):
        config_from_dict({"scan.points": "many"})


def test_config_constraint_violation():
    with pytest.raises(ConfigError, match=re.escape("key 'scan.points': bad value '0'")):
        config_from_dict({"scan.points": "0"})
    with pytest.raises(ConfigError, match="scan.outlier_fraction"):
        config_from_dict({"scan.outlier_fraction": "1.5"})


# One violating value per constraint of the documented config keys (FORMATS.md),
# plus NaN and inf for every float key: NaN fails every comparison, so a check
# written as `x < 0` would let it through, and inf passes `x > 0`.
CONSTRAINT_VIOLATIONS = {
    "noise.sigma_t": ["-0.1", "nan", "inf"],
    "noise.sigma_yaw": ["-0.1", "nan", "inf"],
    "scene.kind": ["forest"],
    "scene.extent": ["0", "nan", "inf"],
    "scene.density": ["-1", "nan", "inf"],
    "trajectory.steps": ["1"],
    "trajectory.step_length": ["0", "nan", "inf"],
    "scan.points": ["0"],
    "scan.max_range": ["0", "nan", "inf"],
    "scan.noise_sigma": ["-0.01", "nan", "inf"],
    "scan.outlier_fraction": ["-0.1", "1.5", "nan", "inf"],
    "seed": ["1.5", "-1"],
}

# Keys that were once config keys: the damping factors, the frame spacing,
# the stopping rules of the solver and of ICP, the Cauchy width and ICP's
# correspondence radius are now constants of solver, synth and registration,
# and the loss is always Cauchy. The values they used to take (the default
# comes last) or refuse must all be refused now, as unknown keys.
RETIRED_KEY_VIOLATIONS = {
    "loss.kind": ["cauchy", "none", "huber"],
    "loss.scale": ["0", "nan", "inf", "0.1"],
    "icp.max_correspondence_distance": ["0", "nan", "inf", "0.1"],
    "solver.damping_increase": ["1", "nan", "inf"],
    "solver.damping_decrease": ["0", "1", "nan", "inf"],
    "trajectory.frame_dt": ["0", "nan", "inf"],
    "solver.max_iterations": ["0", "50"],
    "solver.param_tolerance": ["0", "nan", "inf", "1e-4"],
    "solver.cost_tolerance": ["-1e-8", "nan", "inf", "1e-8"],
    "solver.initial_damping": ["0", "nan", "inf", "0.1"],
    "icp.max_iterations": ["0", "50"],
    "icp.convergence_epsilon": ["0", "nan", "inf", "1e-9"],
}


@pytest.mark.parametrize(
    "key,value",
    [(k, v) for table in (CONSTRAINT_VIOLATIONS, RETIRED_KEY_VIOLATIONS) for k, values in table.items() for v in values],
)
def test_config_constraint_table(key, value):
    expected = f"unknown key '{key}'" if key in RETIRED_KEY_VIOLATIONS else f"'{key}'"
    with pytest.raises(ConfigError, match=re.escape(expected)):
        config_from_dict({key: value})


def _leaf_paths(obj, prefix=""):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_paths(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def test_config_keys_set_every_option_field_and_nothing_else():
    # Each field of RunConfig and of the option dataclasses it holds has a
    # key that sets it, and each key sets a field.
    targets = list(CONFIG_KEYS.values())
    assert len(set(targets)) == len(targets)
    assert set(targets) == set(_leaf_paths(RunConfig()))


def _formats_md() -> str:
    return (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "header",
    [TRAJECTORY_HEADER, FRAMES_HEADER, STEP_TIMES_HEADER, REPORT_HEADER, TIMING_HEADER],
    ids=["TRAJECTORY_HEADER", "FRAMES_HEADER", "STEP_TIMES_HEADER", "REPORT_HEADER", "TIMING_HEADER"],
)
def test_formats_md_names_each_csv_header(header):
    assert f"`{header}`" in _formats_md()


def _formats_md_config_table() -> dict[str, str]:
    section = _formats_md().split("## Run configuration", 1)[1].split("\n## ", 1)[0]
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
        if isinstance(value, str):
            assert documented == value, key
        else:
            assert float(documented) == value, key


def test_formats_md_names_every_retired_key():
    section = _formats_md().split("## Run configuration", 1)[1].split("\n## ", 1)[0]
    missing = [key for key in RETIRED_KEY_VIOLATIONS if f"`{key}`" not in section]
    assert not missing, f"FORMATS.md's run configuration does not name {missing}"


def _formats_md_grid_table() -> list[tuple[str, str, str]]:
    """(offset, size, field) of each row of FORMATS.md's ``.df`` layout table."""
    section = _formats_md().split("## Distance-field grid (`.df`)", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| ([^|]+?) \| ([^|]+?) \| ([^|]+?) \|$", section, flags=re.MULTILINE)
    return [row for row in rows if row[0] not in ("offset", "---")]


def _grid_bytes(expression: str, spec) -> int:
    """A FORMATS.md offset or size, such as ``76 + 8·(nx+1)(ny+1)(nz+1)``, for ``spec``."""
    python = expression.replace("·", "*").replace(")(", ")*(")
    return eval(python, {"__builtins__": {}}, {"nx": spec.nx, "ny": spec.ny, "nz": spec.nz})


def test_formats_md_grid_table_matches_the_writer(tmp_path):
    # The header rows are the magic and the fields of _HEADER_FMT in order; the
    # rows tile the file with no gap, and end where a saved grid ends.
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [0.9, 0.5, 0.3]]), Frame.MAP)
    spec = plan_grid(cloud, 0.1, margin=0.05)
    assert len({spec.nx, spec.ny, spec.nz}) == 3
    path = tmp_path / "g.df"
    save_grid(build_grid(cloud, spec), path)
    codes = re.findall(r"\d*[A-Za-z]", _HEADER_FMT.lstrip("<"))
    header = [len(GRID_MAGIC)] + [struct.calcsize("<" + code) for code in codes]
    rows = _formats_md_grid_table()
    assert f"currently {GRID_VERSION}" in rows[1][2]
    assert rows[-2][2].startswith("node distances") and rows[-1][2].startswith("CRC-32")
    sizes = [_grid_bytes(size, spec) for _, size, _ in rows]
    assert sizes == header + [8 * (spec.nx + 1) * (spec.ny + 1) * (spec.nz + 1), 4]
    offset = 0
    for (start, _, field), size in zip(rows, sizes):
        assert _grid_bytes(start, spec) == offset, field
        offset += size
    assert offset == path.stat().st_size


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nscene.extent = 20.0\nseed = 9\n\nnoise.sigma_t = 0.25\n")
    cfg = load_config(path)
    assert cfg.extent == 20.0
    assert cfg.seed == 9
    assert cfg.noise.sigma_t == 0.25


def test_keyvalue_syntax_error(tmp_path):
    with pytest.raises(ConfigError, match="line 1"):
        parse_keyvalues("this is not a pair", "<test>")


def test_keyvalue_repeated_key_is_refused():
    with pytest.raises(ConfigError, match="line 3: key 'scene.extent'"):
        parse_keyvalues("scene.extent = 0.1\n# again\nscene.extent = 5\n", "<test>")


@pytest.mark.parametrize(
    "name, text, read, error",
    [
        ("run.cfg", "seed = 1\n", lambda p: load_config(p).seed, ConfigError),
        ("traj.csv", "t,tx,ty,tz,yaw\n0,1,2,3,0.5\n", lambda p: read_trajectory(p)[0].pose.tx, TrajectoryFormatError),
        ("cloud.xyz", "1 2 3\n", lambda p: read_cloud(p).points[0, 0], CloudParseError),
    ],
    ids=["config", "trajectory", "text-cloud"],
)
def test_one_leading_byte_order_mark_is_ignored(tmp_path, name, text, read, error):
    plain, marked, twice = (tmp_path / f"{prefix}{name}" for prefix in ("", "bom-", "bom2-"))
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    twice.write_text("\ufeff\ufeff" + text, encoding="utf-8")
    assert read(marked) == read(plain) == 1
    with pytest.raises(error):
        read(twice)


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
    assert np.abs(back.map.points - scenario.map.points).max() < 1e-5  # f32 on disk
    for fa, fb in zip(scenario.frames, back.frames):
        assert fb.timestamp == pytest.approx(fa.timestamp, abs=1e-9)
        assert fb.odom.tx == pytest.approx(fa.odom.tx, abs=1e-9)
        assert fb.odom.yaw == pytest.approx(fa.odom.yaw, abs=1e-9)
        assert fb.attitude.roll == pytest.approx(fa.attitude.roll, abs=1e-9)
        # clouds survive at f32 precision
        assert np.abs(fb.cloud.points - fa.cloud.points).max() < 1e-5
    for pa, pb in zip(scenario.ground_truth, back.ground_truth):
        assert np.abs(pa.as_array() - pb.as_array()).max() < 1e-9


def _formats_md_bundle_section() -> str:
    return _formats_md().split("## Scenario bundle", 1)[1].split("\n## ", 1)[0]


def test_formats_md_bundle_section_matches_the_bundle_layout(bundle):
    section = _formats_md_bundle_section()
    assert FRAMES_HEADER in section
    block = section.split("```", 2)[1]
    documented = {line.split()[0] for line in block.splitlines() if line[:1].strip()}
    written = {re.sub(r"\d{6}", "NNNNNN", p.relative_to(bundle).as_posix()) for p in bundle.rglob("*") if p.is_file()}
    assert documented == written


def test_scenario_missing_map_cld(tmp_path):
    with pytest.raises(ScenarioFormatError, match="map.cld"):
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


def _keep_lines(path, count):
    path.write_text("\n".join(path.read_text().splitlines()[:count]) + "\n")


def _set_field(column, value):
    return lambda line: ",".join(value if i == column else v for i, v in enumerate(line.split(",")))


@pytest.mark.parametrize(
    "member, spoil",
    [
        ("frames.csv", lambda d: _replace_line(d / "frames.csv", 2, _set_field(4, "nan"))),
        ("ground_truth.csv: frame times t must be strictly increasing",
         lambda d: _replace_line(d / "ground_truth.csv", 3, _set_field(0, "0"))),
        ("frames.csv: 2 rows, but ground_truth.csv has 3", lambda d: _keep_lines(d / "frames.csv", 3)),
        ("frames.csv: 3 rows, but ground_truth.csv has 2", lambda d: _keep_lines(d / "ground_truth.csv", 3)),
        ("frames.csv: a scenario needs at least one frame",
         lambda d: (_keep_lines(d / "ground_truth.csv", 1), _keep_lines(d / "frames.csv", 1))),
        ("map.cld", lambda d: (d / "map.cld").unlink()),
        ("scans/000001.cld", lambda d: (d / "scans" / "000001.cld").unlink()),
    ],
    ids=["nan-roll", "non-increasing-times", "fewer-frames", "fewer-truth-rows", "no-frames", "missing-map",
         "missing-scan"],
)
def test_malformed_bundle_member_is_scenario_format_error(bundle, member, spoil):
    spoil(bundle)
    with pytest.raises(ScenarioFormatError, match=re.escape(member)) as info:
        load_scenario(bundle)
    assert info.value.__cause__ is not None


def test_load_scenario_ignores_the_old_scenario_txt(bundle):
    # Older bundles also held the scene volume's corners in scenario.txt; no member that is read changed.
    (bundle / "scenario.txt").write_text("not key = value metadata\n")
    assert len(load_scenario(bundle).frames) == 3


def test_load_scenario_refuses_a_bundle_with_the_old_scan_column(bundle):
    # Older bundles named each row's scan in an eighth column; they are simulated again, not read.
    write_cloud(PointCloud(np.ones((20, 3)), Frame.SENSOR), bundle.parent / "outside.cld", binary=True)
    frames = bundle / "frames.csv"
    lines = frames.read_text().splitlines()
    old = [lines[0] + ",scan"] + [line + ",../outside.cld" for line in lines[1:]]
    frames.write_text("\n".join(old) + "\n")
    with pytest.raises(ScenarioFormatError, match="frames.csv: bad header"):
        load_scenario(bundle)


def test_load_scenario_refuses_frames_with_the_old_time_column(bundle):
    # Older bundles repeated each frame's time in frames.csv; it is the t of the same row of ground_truth.csv.
    frames = bundle / "frames.csv"
    times = [row.split(",")[0] for row in (bundle / "ground_truth.csv").read_text().splitlines()]
    lines = frames.read_text().splitlines()
    frames.write_text("\n".join(f"{t},{line}" for t, line in zip(times, lines)) + "\n")
    old = "t," + FRAMES_HEADER
    with pytest.raises(ScenarioFormatError, match=re.escape(f"{frames}: bad header '{old}'")):
        load_scenario(bundle)


def test_load_scenario_refuses_ground_truth_in_the_old_layout(bundle):
    # Older bundles copied each frame's roll and pitch into ground_truth.csv, with a source tag.
    truth = bundle / "ground_truth.csv"
    frames = (bundle / "frames.csv").read_text().splitlines()[1:]
    lines = truth.read_text().splitlines()[1:]
    old = [OLD_TRAJECTORY_HEADER] + [
        ",".join([*row.split(",")[:4], *frame.split(",")[4:6], row.split(",")[4], "ground_truth"])
        for row, frame in zip(lines, frames)
    ]
    truth.write_text("\n".join(old) + "\n")
    with pytest.raises(ScenarioFormatError, match=re.escape(f"{truth}: bad header '{OLD_TRAJECTORY_HEADER}'")):
        load_scenario(bundle)
