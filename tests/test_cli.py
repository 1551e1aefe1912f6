import pytest

from dfloc.cli import main
from dfloc.distance_field import load_grid
from dfloc.formats import read_trajectory

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
    return root, cfg


def test_build_df_output_loads(workspace):
    root, _ = workspace
    grid = load_grid(root / "g.df")
    assert grid.spec.resolution == 0.2


def test_localize_writes_trajectory(workspace):
    root, cfg = workspace
    out = root / "est.csv"
    code = main([
        "localize", "--grid", str(root / "g.df"), "--scenario", str(root / "scn"),
        "--method", "dll", "--mode", "baseline", "--config", str(cfg),
        "--out", str(out), "--timing-out", str(root / "times.csv"),
    ])
    assert code == 0
    rows = read_trajectory(out)
    assert len(rows) == 6
    assert (root / "times.csv").read_text().startswith("step,dt")


def test_localize_icp_needs_no_grid(workspace, tmp_path):
    root, cfg = workspace
    common = ["--scenario", str(root / "scn"), "--method", "icp", "--mode", "baseline",
              "--config", str(cfg)]
    assert main(["localize", *common, "--out", str(tmp_path / "bare.csv")]) == 0
    assert main(["localize", "--grid", str(root / "g.df"), *common,
                 "--out", str(tmp_path / "with_grid.csv")]) == 0
    assert len(read_trajectory(tmp_path / "bare.csv")) == 6
    assert (tmp_path / "bare.csv").read_bytes() == (tmp_path / "with_grid.csv").read_bytes()


def test_localize_dll_without_grid_is_stage_error(workspace, tmp_path, capsys):
    root, cfg = workspace
    code = main([
        "localize", "--scenario", str(root / "scn"), "--method", "dll", "--mode", "baseline",
        "--config", str(cfg), "--out", str(tmp_path / "est.csv"),
    ])
    assert code == 2
    assert "error: track: the field method needs a distance-field grid" in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


def test_eval_reports_zero_for_ground_truth(workspace, capsys):
    root, _ = workspace
    gt = root / "scn" / "ground_truth.csv"
    assert main(["eval", "--est", str(gt), "--gt", str(gt)]) == 0
    out = capsys.readouterr().out
    assert "rmse_t = 0.000000" in out
    assert "rmse_a = 0.000000" in out


def test_eval_on_estimates(workspace, capsys):
    root, _ = workspace
    assert main(["eval", "--est", str(root / "est.csv"), "--gt", str(root / "scn" / "ground_truth.csv")]) == 0
    out = capsys.readouterr().out
    assert "rmse_t" in out and "rmse_a" in out


@pytest.mark.parametrize(
    "content",
    [None, "", "t,dt\n0,0.1\n", "step,dt\n0,fast\n", "step,dt\n0\n", "step,dt\n0,nan\n", "step,dt\nabc,0.5\n"],
    ids=["missing", "empty", "bad-header", "non-numeric", "short-row", "non-finite", "non-integer-step"],
)
def test_eval_bad_timing_is_stage_error(workspace, tmp_path, capsys, content):
    root, _ = workspace
    gt = root / "scn" / "ground_truth.csv"
    timing = tmp_path / "times.csv"
    if content is not None:
        timing.write_text(content)
    assert main(["eval", "--est", str(gt), "--gt", str(gt), "--timing", str(timing)]) == 2
    assert "read-timing" in capsys.readouterr().err


def test_eval_reads_timing(workspace, tmp_path, capsys):
    root, _ = workspace
    gt = root / "scn" / "ground_truth.csv"
    timing = tmp_path / "times.csv"
    timing.write_text("step,dt\n0,0.1\n\n1,0.3\n")
    assert main(["eval", "--est", str(gt), "--gt", str(gt), "--timing", str(timing)]) == 0
    assert "dt = 0.200000 s (dev 0.100000, n=2)" in capsys.readouterr().out


def test_benchmark_deterministic_bytes(workspace):
    root, cfg = workspace
    a, b = root / "rep_a.csv", root / "rep_b.csv"
    for out in (a, b):
        code = main([
            "benchmark", "--grid", str(root / "g.df"), "--scenario", str(root / "scn"),
            "--config", str(cfg), "--seed", "3", "--out", str(out),
        ])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("method,mode")
    assert len(lines) == 1 + 8  # 2 methods x 4 modes


def test_missing_file_is_stage_error(tmp_path, capsys):
    code = main(["build-df", "--map", str(tmp_path / "nope.xyz"), "--out", str(tmp_path / "g.df")])
    assert code == 2
    assert "read-map" in capsys.readouterr().err


def test_bad_config_is_stage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("solver.max_iterations = 0\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "load-config" in capsys.readouterr().err


def test_negative_seed_is_refused_at_load_config(workspace, tmp_path, capsys):
    root, cfg = workspace
    code = main([
        "localize", "--grid", str(root / "g.df"), "--scenario", str(root / "scn"),
        "--mode", "midnoise", "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path / "est.csv"),
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
        "--method", "dll", "--mode", "baseline", "--config", str(cfg),
        "--out", str(tmp_path / "est.csv"),
    ]) == 0
    assert len(read_trajectory(tmp_path / "est.csv")) == 5


def test_volume_mismatch_warns(workspace, tmp_path, caplog):
    import logging

    root, cfg = workspace
    # grid built over a tiny sub-volume of the scenario
    sub = tmp_path / "small.df"
    assert main([
        "build-df", "--map", str(root / "scn" / "map.cld"),
        "--resolution", "0.5", "--margin", "0.0", "--out", str(sub),
    ]) == 0
    # shrink: build from a clipped cloud instead
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
            "--method", "dll", "--mode", "baseline", "--config", str(cfg),
            "--out", str(tmp_path / "est.csv"),
        ])
    assert any("not fully covered" in r.message for r in caplog.records)
