import ast
import os
import subprocess
import sys
from pathlib import Path

import dfloc


def test_no_module_imports_the_package_by_absolute_name():
    # Relative imports only, so a second copy of the sources can be imported
    # under another package name beside this one.
    modules = sorted(Path(dfloc.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    absolute = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            absolute += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] == "dfloc"]
    assert absolute == []


def test_the_localizer_never_loads_scipy(tmp_path):
    # A localizer loads a distance field and tracks on it; it never builds a
    # kd-tree, so it must not pay scipy.spatial's resident memory (about 36 MB).
    # The ICP baseline, which does build one, must still work afterwards.
    script = """
import sys
import dfloc

scene = dfloc.make_scene("box_room", 6.0, 30.0, seed=3)
run = dfloc.make_scenario(scene, 3, 0.15, dfloc.ScanModel(points=400), dfloc.NoiseSetup(0.03, 0.008), seed=1)
grid = dfloc.load_grid(sys.argv[1])
state = dfloc.init_tracker(run.ground_truth[0])
for frame in run.frames:
    state = dfloc.track_step(state, frame, grid)
assert "scipy.spatial" not in sys.modules, "tracking loaded scipy.spatial"
frame = run.frames[-1]
body = dfloc.tilt_compensate(frame.cloud, frame.attitude)
result = dfloc.icp_register(body, dfloc.build_index(scene.map), state.current_pose)
assert result.report.correspondences > 0
"""
    scene = dfloc.make_scene("box_room", 6.0, 30.0, seed=3)
    path = tmp_path / "grid.df"
    dfloc.save_grid(dfloc.build_grid(scene.map, dfloc.plan_grid(scene.map, 0.25, margin=1.0)), path)
    src = str(Path(dfloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
