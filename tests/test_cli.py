import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dfloc
from dfloc import registration
from dfloc.cli import build_parser, main
from dfloc.distance_field import load_grid
from dfloc.formats import FRAMES_HEADER, TRAJECTORY_HEADER, load_config, read_trajectory

TINY_CFG = """
scene.extent = 6.0
scene.density = 40
trajectory.steps = 6
trajectory.step_length = 0.2
scan.points = 300
scan.max_range = 8
scan.noise_sigma = 0.01
seed = 7
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CFG)
    assert main(["simulate", "--config", str(cfg), "--out", str(root / "scn")]) == 0
    assert main([
        "build-df", "--map", str(root / "scn" / "map.cld"),
        "--resolution", "0.2", "--margin", "1.0", "--out", str(root / "g.df"),
    ]) == 0
    return root


def test_build_df_output_loads(workspace):
    root = workspace
    grid = load_grid(root / "g.df")
    assert grid.spec.resolution == 0.2


def test_localize_writes_trajectory(workspace):
    root = workspace
    out = root / "est.csv"
    code = main([
        "localize", "--grid", str(root / "g.df"), "--scenario", str(root / "scn"),
        "--method", "dll", "--mode", "baseline", "--seed", "7",
        "--out", str(out), "--timing-out", str(root / "times.csv"),
    ])
    assert code == 0
    rows = read_trajectory(out)
    assert len(rows) == 6
    assert (root / "times.csv").read_text().startswith("dt\n")


def test_localize_icp_needs_no_grid(workspace, tmp_path):
    root = workspace
    common = ["--scenario", str(root / "scn"), "--method", "icp", "--mode", "baseline", "--seed", "7"]
    assert main(["localize", *common, "--out", str(tmp_path / "bare.csv")]) == 0
    assert main(["localize", "--grid", str(root / "g.df"), *common,
                 "--out", str(tmp_path / "with_grid.csv")]) == 0
    assert len(read_trajectory(tmp_path / "bare.csv")) == 6
    assert (tmp_path / "bare.csv").read_bytes() == (tmp_path / "with_grid.csv").read_bytes()


def test_localize_dll_without_grid_is_stage_error(workspace, tmp_path, capsys):
    root = workspace
    code = main([
        "localize", "--scenario", str(root / "scn"), "--method", "dll", "--mode", "baseline",
        "--seed", "7", "--out", str(tmp_path / "est.csv"),
    ])
    assert code == 2
    assert "error: track: the field method needs a distance-field grid" in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


def test_eval_reports_zero_for_ground_truth(workspace, capsys):
    root = workspace
    gt = root / "scn" / "ground_truth.csv"
    assert main(["eval", "--est", str(gt), "--gt", str(gt)]) == 0
    out = capsys.readouterr().out
    assert "rmse_t = 0.000000" in out
    assert "rmse_a = 0.000000" in out


def test_eval_on_estimates(workspace, capsys):
    root = workspace
    assert main(["eval", "--est", str(root / "est.csv"), "--gt", str(root / "scn" / "ground_truth.csv")]) == 0
    out = capsys.readouterr().out
    assert "rmse_t" in out and "rmse_a" in out


@pytest.mark.parametrize(
    "content",
    [None, "", "t,dt\n0,0.1\n", "dt\nfast\n", "dt\n0.1,0.2\n", "dt\nnan\n", "step,dt\n0,0.1\n"],
    ids=["missing", "empty", "bad-header", "non-numeric", "extra-column", "non-finite", "old-step-column"],
)
def test_eval_bad_timing_is_stage_error(workspace, tmp_path, capsys, content):
    root = workspace
    gt = root / "scn" / "ground_truth.csv"
    timing = tmp_path / "times.csv"
    if content is not None:
        timing.write_text(content)
    assert main(["eval", "--est", str(gt), "--gt", str(gt), "--timing", str(timing)]) == 2
    assert "read-timing" in capsys.readouterr().err


def test_eval_of_header_only_trajectories_fails_in_evaluate(tmp_path, capsys):
    est, gt = tmp_path / "est.csv", tmp_path / "gt.csv"
    for path in (est, gt):
        path.write_text("t,tx,ty,tz,yaw\n")
    assert main(["eval", "--est", str(est), "--gt", str(gt)]) == 2
    assert "evaluate: cannot evaluate empty trajectories" in capsys.readouterr().err


def test_eval_reads_timing(workspace, tmp_path, capsys):
    root = workspace
    gt = root / "scn" / "ground_truth.csv"
    timing = tmp_path / "times.csv"
    timing.write_text("dt\n0.1\n\n0.3\n")
    assert main(["eval", "--est", str(gt), "--gt", str(gt), "--timing", str(timing)]) == 0
    assert "dt = 0.200000 s (dev 0.100000, n=2)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["localize", "benchmark"])
def test_bundle_without_frames_fails_in_read_scenario(workspace, tmp_path, capsys, command):
    root = workspace
    bundle = tmp_path / "scn"
    shutil.copytree(root / "scn", bundle)
    (bundle / "ground_truth.csv").write_text(TRAJECTORY_HEADER + "\n")
    (bundle / "frames.csv").write_text(FRAMES_HEADER + "\n")
    code = main([
        command, "--grid", str(root / "g.df"), "--scenario", str(bundle),
        "--seed", "7", "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: read-scenario: {bundle / 'frames.csv'}: a scenario needs at least one frame" in err
    assert not (tmp_path / "out.csv").exists()


def test_benchmark_deterministic_bytes(workspace):
    root = workspace
    a, b = root / "rep_a.csv", root / "rep_b.csv"
    for out in (a, b):
        code = main([
            "benchmark", "--grid", str(root / "g.df"), "--scenario", str(root / "scn"),
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("method,mode")
    assert len(lines) == 1 + 8  # 2 methods x 4 modes


def test_diverged_icp_runs_are_reported(workspace, tmp_path, capsys, monkeypatch):
    # No map point lies within 1e-12 m of a scan point, so ICP fails at step 0.
    monkeypatch.setattr(registration, "ICP_MAX_CORRESPONDENCE_DISTANCE", 1e-12)
    root = workspace
    common = ["--grid", str(root / "g.df"), "--scenario", str(root / "scn"), "--seed", "7"]
    assert main(["benchmark", *common, "--out", str(tmp_path / "rep.csv")]) == 0
    out = capsys.readouterr().out
    report = (tmp_path / "rep.csv").read_text().splitlines()
    for mode in ("baseline", "noodom", "midnoise", "largenoise"):
        assert f"icp  {mode:11s} diverged\n" in out
        assert f"icp,{mode},,,,,true" in report
    assert main(["localize", *common, "--method", "icp", "--out", str(tmp_path / "est.csv")]) == 0
    captured = capsys.readouterr()
    assert "warning: icp/baseline diverged at step 0" in captured.err
    assert "wrote 0 estimates" in captured.out


def test_missing_file_is_stage_error(tmp_path, capsys):
    code = main(["build-df", "--map", str(tmp_path / "nope.xyz"), "--out", str(tmp_path / "g.df")])
    assert code == 2
    assert "read-map" in capsys.readouterr().err


def test_bad_config_is_stage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scan.points = 0\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert "load-config" in err
    assert "key 'scan.points': bad value '0'" in err


def test_negative_seed_is_refused_at_load_config(workspace, tmp_path, capsys):
    root = workspace
    code = main([
        "localize", "--grid", str(root / "g.df"), "--scenario", str(root / "scn"),
        "--mode", "midnoise", "--seed", "-1", "--out", str(tmp_path / "est.csv"),
    ])
    assert code == 2
    assert "error: load-config: " in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


def test_shipped_example_config_end_to_end(tmp_path):
    # build-df then localize round trip on the shipped example config,
    # scaled down via overrides that keep the file authoritative otherwise
    import pathlib

    shipped = pathlib.Path(__file__).resolve().parents[1] / "configs" / "example.cfg"
    cfg = tmp_path / "example.cfg"
    overrides = {
        "trajectory.steps": "5",
        "scan.points": "300",
        "scene.density": "40.0",
    }
    lines = []
    for line in shipped.read_text().splitlines():
        key = line.split("=")[0].strip()
        lines.append(f"{key} = {overrides[key]}" if key in overrides else line)
    cfg.write_text("\n".join(lines))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "scn")]) == 0
    assert main([
        "build-df", "--map", str(tmp_path / "scn" / "map.cld"),
        "--resolution", "0.2", "--margin", "1.0", "--out", str(tmp_path / "g.df"),
    ]) == 0
    assert main([
        "localize", "--grid", str(tmp_path / "g.df"), "--scenario", str(tmp_path / "scn"),
        "--method", "dll", "--mode", "baseline", "--seed", str(load_config(cfg).seed),
        "--out", str(tmp_path / "est.csv"),
    ]) == 0
    assert len(read_trajectory(tmp_path / "est.csv")) == 5


def test_volume_mismatch_warns(workspace, tmp_path, caplog):
    import logging

    root = workspace
    # grid built over a clipped sub-volume of the scenario's map
    sub = tmp_path / "small.df"
    from dfloc.formats import read_cloud, write_cloud
    from dfloc.geometry import PointCloud

    cloud = read_cloud(root / "scn" / "map.cld")
    clipped = PointCloud(cloud.points[cloud.points[:, 0] < 3.0], cloud.frame)
    write_cloud(clipped, tmp_path / "clip.cld", binary=True)
    assert main([
        "build-df", "--map", str(tmp_path / "clip.cld"),
        "--resolution", "0.5", "--margin", "0.2", "--out", str(sub),
    ]) == 0
    with caplog.at_level(logging.WARNING, logger="dfloc"):
        main([
            "localize", "--grid", str(sub), "--scenario", str(root / "scn"),
            "--method", "dll", "--mode", "baseline", "--seed", "7",
            "--out", str(tmp_path / "est.csv"),
        ])
    assert any("not fully covered" in r.message for r in caplog.records)


def test_grid_built_from_the_scenario_map_does_not_warn(tmp_path, caplog):
    # The building_yard flight volume reaches extent/2, above its tallest roof;
    # a grid over the map alone still covers every point that DLL registers against.
    import logging

    cfg = tmp_path / "yard.cfg"
    cfg.write_text(
        "scene.kind = building_yard\nscene.extent = 12\nscene.density = 30\n"
        "trajectory.steps = 5\nscan.points = 300\nseed = 3\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "scn")]) == 0
    assert main([
        "build-df", "--map", str(tmp_path / "scn" / "map.cld"),
        "--resolution", "0.2", "--out", str(tmp_path / "g.df"),
    ]) == 0
    with caplog.at_level(logging.WARNING, logger="dfloc"):
        assert main([
            "localize", "--grid", str(tmp_path / "g.df"), "--scenario", str(tmp_path / "scn"),
            "--seed", "3", "--out", str(tmp_path / "est.csv"),
        ]) == 0
    assert not any("not fully covered" in r.message for r in caplog.records)


@pytest.mark.parametrize("name", ["basic_format", "no_such_level"])
def test_log_variable_that_names_no_level_falls_back_to_warning(workspace, name):
    # logging.BASIC_FORMAT is a module attribute but a format string, not a
    # level. Run in a subprocess: under pytest the root logger already has
    # handlers, so basicConfig would never check the level.
    root = workspace
    gt = root / "scn" / "ground_truth.csv"
    src = str(Path(dfloc.__file__).resolve().parents[1])
    env = {**os.environ, "DFLOC_LOG": name,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "dfloc.cli", "eval", "--est", str(gt), "--gt", str(gt)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "rmse_t = 0.000000" in proc.stdout


def _readme_commands() -> list[list[str]]:
    """The arguments of each ``dfloc`` command in README's bash blocks, continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["dfloc"]:
                commands.append(words[1:])
    return commands


def test_readme_command_lines_parse():
    commands = _readme_commands()
    assert sorted(c[0] for c in commands) == ["benchmark", "build-df", "eval", "localize", "simulate"]
    parser = build_parser()
    for words in commands:
        try:
            parser.parse_args(words)
        except SystemExit:
            pytest.fail(f"README's 'dfloc {shlex.join(words)}' does not parse")
