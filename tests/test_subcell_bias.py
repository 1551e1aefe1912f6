"""The trilinear field's sub-cell bias: where a surface falls inside a cell.

Node distances are exact, but between nodes the field is the chord of two
of them. For a plane at offset ``a`` inside a cell, that chord has slope
``1 - 2a/res`` and its minimum sits on the node plane, not on the surface.
A tracker that follows the minimum is pulled off the walls by up to ``a``.
"""

import numpy as np
import pytest

from dfloc import bench
from dfloc.distance_field import GridSpec, build_grid, plan_grid, query_many
from dfloc.evaluation import rmse_translation
from dfloc.formats import RunConfig, ground_truth_rows
from dfloc.geometry import Frame, PointCloud
from dfloc.nnsearch import build_index
from dfloc.synth import NoiseSetup, ScanModel, make_scenario, make_scene

RES = 0.1


@pytest.mark.parametrize("offset", [0.0, 0.25, 0.4])
def test_field_across_a_plane_is_a_chord_with_its_minimum_on_the_node_plane(offset):
    a = offset * RES
    # Node planes at z = -a - res, -a, -a + res, -a + 2 res; the plane z = 0
    # lies in the cell [-a, res - a], and each node column stands on a map point.
    spec = GridSpec(np.array([0.0, 0.0, -a - RES]), RES, 4, 4, 3)
    xy = RES * np.arange(5)
    plane = np.stack([*np.meshgrid(xy, xy, indexing="ij"), np.zeros((5, 5))], axis=-1).reshape(-1, 3)
    grid = build_grid(PointCloud(plane, Frame.MAP), spec)

    def column(z):
        z = np.asarray(z, dtype=np.float64)
        return query_many(grid, np.stack([np.full_like(z, 0.15), np.full_like(z, 0.25), z], axis=-1))

    inside_cell = np.linspace(-a, RES - a, 9)[1:-1]
    _, grad, _ = column(inside_cell)
    assert np.allclose(grad[:, 2], 1.0 - 2.0 * a / RES)
    values, _, inside = column(np.linspace(-a - RES, -a + 2 * RES, 301)[1:-1])
    assert inside.all()
    node_value, _, _ = column(-a)
    assert node_value == pytest.approx(a, abs=1e-12)
    assert values.min() >= node_value - 1e-12


@pytest.fixture(scope="module")
def sparse_room():
    """Criterion 7's room and scenario at 25 pts/m^2, with ICP's rmse_t as the reference."""
    scene = make_scene("box_room", 10.0, 25.0, seed=11)
    model = ScanModel(max_range=15.0, points=2000, noise_sigma=0.02)
    scenario = make_scenario(scene, steps=40, step_length=0.15, model=model,
                             noise=NoiseSetup(0.03, 0.008), seed=9)
    icp = bench.run_tracking(scenario, "icp", "baseline", map_index=build_index(scene.map), cfg=RunConfig(seed=9))
    assert not icp.diverged
    return scenario, rmse_translation(icp.rows, ground_truth_rows(scenario))[0]


@pytest.mark.parametrize(
    "cell_offset",
    [
        0.0,
        pytest.param(0.25, marks=pytest.mark.xfail(
            strict=True, reason="sub-cell bias: DLL rmse_t 14.46 mm against ICP 0.88 mm")),
        0.5,
    ],
)
def test_dll_tracks_within_3x_icp_wherever_the_walls_fall_in_a_cell(sparse_room, cell_offset):
    # The room's walls lie at 0, extent/2 and extent; a margin of 1.0 + F*res
    # puts every one of them F cells above a node plane (F = 0: on it).
    scenario, icp_rmse = sparse_room
    grid = build_grid(scenario.map, plan_grid(scenario.map, RES, margin=1.0 + cell_offset * RES))
    dll = bench.run_tracking(scenario, "dll", "baseline", grid=grid, cfg=RunConfig(seed=9))
    assert not dll.diverged
    dll_rmse = rmse_translation(dll.rows, ground_truth_rows(scenario))[0]
    assert dll_rmse <= 3.0 * icp_rmse, f"dll {dll_rmse * 1e3:.2f} mm vs icp {icp_rmse * 1e3:.2f} mm"
