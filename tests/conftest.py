"""Shared fixtures. Session scenes, grids and indexes are built once:

* room_scene, room_grid, room_index: box room at 100 pts/m^2 with a
  0.05 m field and its kd-tree (the recovery, outlier, tracking, and
  out-of-map acceptance protocols).
* small_scene, small_grid: 6 m box room at 60 pts/m^2 with a 0.1 m field.
* tree_rows: records the (rows, k) of each KdTree3.nearest_many call.
"""

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

