"""Seeded mutation tests: every loader either loads or raises its documented error class.

Each loader gets a small valid file. Every truncation, two appended tails and
a few hundred single-bit flips drawn from a seeded ``random.Random`` are fed to
it; no exception other than the loader's documented class may escape. Whether a
mutation that loads gives the same object is not checked: a flipped digit or
grid payload byte still loads (grid payloads are not checksummed in format v1).
"""

import random

import numpy as np
import pytest

from dfloc import formats
from dfloc.distance_field import GridFileError, build_grid, load_grid, plan_grid, save_grid
from dfloc.geometry import Frame, PointCloud, Pose4
from dfloc.synth import NoiseSetup, ScanModel, make_scenario, make_scene

FLIPS = 300
TAILS = (b"\n1,2,3 # x = y\n", b"\xff\xfe\x00\x80")


def mutations(data: bytes, seed: str):
    for end in range(len(data)):
        yield data[:end]
    for tail in TAILS:
        yield data + tail
    rng = random.Random(seed)
    for _ in range(FLIPS):
        bit = rng.randrange(8 * len(data))
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)


def escaped_exceptions(path, load, error, seed):
    """Write each mutation of ``path`` in place and collect the exceptions that are not ``error``."""
    data = path.read_bytes()
    escaped = []
    for mutated in mutations(data, seed):
        path.write_bytes(mutated)
        try:
            load()
        except error:
            pass
        except Exception as exc:  # every other class is the defect under test
            escaped.append(f"{type(exc).__name__}: {exc} <- {mutated!r}")
    path.write_bytes(data)
    return escaped


def _cloud(n=4):
    return PointCloud(np.arange(3.0 * n).reshape(n, 3) / 7.0, Frame.MAP)


def _trajectory(tmp_path):
    path = tmp_path / "traj.csv"
    rows = [formats.TrajectoryRow(0.1 * k, Pose4(1.0 + k, -2.5, 0.75, 0.3 * k)) for k in range(3)]
    formats.write_trajectory(rows, path)
    return path, lambda: formats.read_trajectory(path), formats.TrajectoryFormatError


def _config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# run\nloss.scale = 0.2\nscene.extent = 8\nseed = 3\n")
    return path, lambda: formats.load_config(path), formats.ConfigError


def _cloud_text(tmp_path):
    path = tmp_path / "c.xyz"
    formats.write_cloud(_cloud(), path)
    return path, lambda: formats.read_cloud(path), formats.CloudFormatError


def _cloud_binary(tmp_path):
    path = tmp_path / "c.cld"
    formats.write_cloud(_cloud(), path, binary=True)
    return path, lambda: formats.read_cloud(path), formats.CloudFormatError


def _step_times(tmp_path):
    path = tmp_path / "times.csv"
    formats.write_step_times(np.array([0.0125, 0.5, 3.25e-3]), path)
    return path, lambda: formats.read_step_times(path), ValueError


def _bundle(tmp_path, member):
    scene = make_scene("box_room", 3.0, 2.0, seed=1)
    model = ScanModel(max_range=5.0, points=5, noise_sigma=0.01)
    bundle = tmp_path / "scn"
    formats.save_scenario(make_scenario(scene, 3, 0.2, model, NoiseSetup(0.01, 0.01), seed=2), bundle)
    return bundle / member, lambda: formats.load_scenario(bundle), formats.ScenarioFormatError


def _grid(tmp_path):
    path = tmp_path / "g.df"
    cloud = _cloud()
    save_grid(build_grid(cloud, plan_grid(cloud, 0.5, margin=0.2)), path)
    return path, lambda: load_grid(path), GridFileError


LOADERS = {
    "read_trajectory": _trajectory,
    "load_config": _config,
    "read_cloud-text": _cloud_text,
    "read_cloud-binary": _cloud_binary,
    "read_step_times": _step_times,
    "load_scenario-ground_truth.csv": lambda tmp_path: _bundle(tmp_path, "ground_truth.csv"),
    "load_scenario-frames.csv": lambda tmp_path: _bundle(tmp_path, "frames.csv"),
    "load_grid": _grid,
}


@pytest.mark.parametrize("name", list(LOADERS))
def test_loader_is_all_or_nothing(tmp_path, name):
    path, load, error = LOADERS[name](tmp_path)
    load()  # the unmutated file is valid
    escaped = escaped_exceptions(path, load, error, seed=name)
    assert not escaped, f"{len(escaped)} mutations escaped {error.__name__}, first: {escaped[:3]}"
