"""Self-test of the benchmark at toy size.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads
from dfloc import bench, distance_field, geometry, registration, tracker

BENCHMARK = run.load_json(run.ROOT / "BENCHMARK.json")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_emitted_with_its_unit(name, workdir):
    plain = workloads.run(name, 3, 0.0, False, workloads.TOY, workdir)
    traced = workloads.run(name, 3, 0.0, True, workloads.TOY, workdir)
    for outcome in (plain, traced):
        assert outcome.correct and outcome.exact
        assert outcome.tally.attempted > 0 and outcome.tally.failed == 0
    e2e = run.end_to_end(plain)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(e2e)
    assert all(np.isfinite(v) and v > 0 for v in e2e.values())
    layers = run.traced_metrics(traced)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(layers)
    assert all(np.isfinite(v) for v in layers.values())
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert m["unit"]
    lines = run.report_lines(plain, e2e)
    names = {"build": ["build_s"], "track": ["localize_s", "scan_ms_p50"], "icp": ["localize_s", "scan_ms_p95"]}
    for metric in ["setup_s", "fail_frac", "peak_rss_mb", *names[name]]:
        assert any(line.startswith(metric + " ") for line in lines)


def test_layers_move_only_their_own_workload(workdir):
    """The trace sees each layer only on the workloads layers.json says it serves."""
    links = run.load_json(run.HERE / "layers.json")["links"]
    assert list(links) == [m["name"] for m in BENCHMARK["per_layer"]]
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]} | {"fail_frac"}
    for link in links.values():
        assert set(link["moves"]) <= e2e
        assert set(link["on"]) | set(link["no_change"]) <= set(run.WORKLOAD_NAMES)
    traced = workloads.run("icp", 4, 0.0, True, workloads.TOY, workdir)
    layers = run.traced_metrics(traced)
    assert layers["registration.icp_register.ms"] > 0
    assert layers["registration.dll_register.ms"] == 0
    assert layers["distance_field.fit_cell_coeffs.s"] == 0


def test_tracer_puts_the_originals_back():
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracing.PATCHES}
    df_residuals = registration.df_residuals
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracker.dll_register is not before[(tracker, "dll_register")]
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original
    assert registration.df_residuals is df_residuals


def test_self_times_subtract_direct_children():
    spans = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None], ["c", 2.0, 3.0, 1, 0, None]]
    assert tracing.self_times(spans).tolist() == [7.0, 2.0, 1.0]


def test_corrupted_df_byte_counts_as_failure(workdir):
    inputs = workloads.setup_build(5, workloads.TOY, workdir)
    grid = workloads.pass_build(inputs, tracing.NullTracer()).grid
    assert workloads.check_build(inputs, grid).failed == 0

    raw = bytearray(inputs.path.read_bytes())
    raw[-3] ^= 0x01  # low mantissa bits of the last coefficient
    inputs.path.write_bytes(bytes(raw))
    tally = workloads.check_build(inputs, grid)
    assert tally.failed == 1

    # A stored node one ulp away from the oracle is caught by the sample.
    nodes = np.nextafter(grid.node_distances, np.inf)
    nudged = distance_field.DfGrid(grid.spec, nodes, grid.coeffs)
    distance_field.save_grid(nudged, inputs.path)
    assert workloads.check_build(inputs, nudged).failed == workloads.TOY.oracle_nodes

    outcome = workloads.Outcome("build", [1.0], [], [], tally, 1.0)
    assert not outcome.exact and not outcome.correct


def test_displaced_pose_counts_as_failure(workdir):
    inputs = workloads.setup_track(6, workloads.TOY, workdir)
    clean = workloads.pass_track(inputs, tracing.NullTracer()).tally
    assert clean.failed == 0

    def displaced(k, offset):
        run0 = inputs.runs[0]
        truth = list(run0.truth)
        p = truth[k]
        truth[k] = geometry.Pose4(p.tx + offset, p.ty, p.tz, p.yaw)
        runs = (dataclasses.replace(run0, truth=tuple(truth)), *inputs.runs[1:])
        return workloads.pass_track(dataclasses.replace(inputs, runs=runs), tracing.NullTracer()).tally

    miss = displaced(2, 0.2)
    assert (miss.attempted, miss.failed, miss.diverged) == (clean.attempted, 1, 0)

    # Beyond the divergence radius the rest of that run counts as failed too.
    steps = len(inputs.runs[0].frames)
    lost = displaced(2, 2 * bench.DIVERGENCE_RADIUS)
    assert (lost.attempted, lost.failed, lost.diverged) == (clean.attempted, steps - 2, 1)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
