"""Shared fixtures. The two expensive session grids are built once:

* room_grid: box room at 100 pts/m^2 with a 0.05 m field (the recovery,
  outlier, tracking, and out-of-map acceptance protocols).
* dense_speed_setup: box room at 400 pts/m^2 (map sampled at the field's
  own resolution scale) with a 0.075 m field, used for the relative-speed
  gate where nearest-neighbor cost must be realistic.
"""

import numpy as np
import pytest

from dfloc import distance_field as df
from dfloc import synth
from dfloc.nnsearch import KdTree3, build_index

ROOM_SEED = 11


@pytest.fixture
def tree_rows(monkeypatch):
    """(rows, k) of each KdTree3.nearest_many call the test makes."""
    rows = []
    real = KdTree3.nearest_many

    def spy(self, queries, workers=1, k=1):
        rows.append((len(queries), k))
        return real(self, queries, workers, k)

    monkeypatch.setattr(KdTree3, "nearest_many", spy)
    return rows


@pytest.fixture(scope="session")
def room_scene():
    return synth.make_scene("box_room", 10.0, 100.0, seed=ROOM_SEED)


@pytest.fixture(scope="session")
def room_grid(room_scene):
    spec = df.plan_grid(room_scene.map, 0.05, margin=1.0)
    return df.build_grid(room_scene.map, spec)


@pytest.fixture(scope="session")
def room_index(room_scene):
    return build_index(room_scene.map)


@pytest.fixture(scope="session")
def small_scene():
    return synth.make_scene("box_room", 6.0, 60.0, seed=3)


@pytest.fixture(scope="session")
def small_grid(small_scene):
    spec = df.plan_grid(small_scene.map, 0.1, margin=1.0)
    return df.build_grid(small_scene.map, spec)


@pytest.fixture(scope="session")
def random_cloud_grid():
    """10k uniform random points with a coarse field; spec plus brute oracle."""
    from dfloc.geometry import Frame, PointCloud

    rng = np.random.default_rng(100)
    cloud = PointCloud(rng.uniform(0.0, 10.0, size=(10_000, 3)), Frame.MAP)
    spec = df.plan_grid(cloud, 0.25, margin=1.0)
    grid = df.build_grid(cloud, spec)
    return cloud, spec, grid
