"""dfloc: map-based 3D LIDAR localization on a precomputed distance field.

The package registers LIDAR scans directly against a trilinearly
interpolated distance field of the map under a robust 4-DOF nonlinear
least-squares objective, tracks a pose sequentially from odometry
priors, ships an ICP baseline, and includes a synthetic benchmark
harness. See README.md for the tour and FORMATS.md for file layouts.
"""

from .distance_field import (
    DfGrid,
    GridSpec,
    build_grid,
    fit_cell_coeffs,
    load_grid,
    plan_grid,
    query_many,
    save_grid,
)
from .geometry import (
    Attitude,
    Frame,
    FrameError,
    PointCloud,
    Pose4,
    apply_pose,
    compose,
    pose_delta,
    rotate_z,
    tilt_compensate,
    wrap_angle,
)
from .nnsearch import KdTree3, brute_force_distances, brute_force_nearest, build_index
from .registration import (
    IcpReport,
    NoCorrespondencesError,
    RegistrationError,
    RegistrationResult,
    UnobservableCloudError,
    align_4dof,
    dll_register,
    icp_register,
)
from .solver import RobustLoss, SolveReport, Termination, solve_lm
from .synth import (
    NoiseSetup,
    ScanModel,
    Scene,
    ScenarioRun,
    corrupt_odometry,
    make_scenario,
    make_scene,
    make_trajectory,
    simulate_scan,
    true_odometry,
)
from .tracker import ScanFrame, TrackerState, TrackStepError, init_tracker, track_step

__version__ = "0.1.0"
