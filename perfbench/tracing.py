"""Spans around the calls into each dfloc layer, recorded from outside the package.

A traced pass replaces public functions with timing wrappers at the names
their callers look up (``dfloc.tracker.dll_register`` is the name
``track_step`` calls, not ``dfloc.registration.dll_register``), runs the
workload, and puts the originals back. Nothing under ``src/`` changes.

Each span is ``[name, start, end, parent, scan, note]``: perf_counter
seconds, the index of the enclosing span (-1 for none), the scan it
belongs to (None outside a scan) and a small per-call record (point
counts, iterations, termination reason) used for the count metrics.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from dfloc import distance_field, geometry, nnsearch, registration, tracker

# Field bytes touched per query_columns point: 8 float64 coefficients
# gathered, 3 coordinates in, value + 3 gradient components + the inside
# flag out. Computed from the code, not measured.
QUERY_COLUMNS_BYTES_PER_POINT = 8 * 8 + 3 * 8 + 4 * 8 + 1

TERMINATIONS = ("param_tol", "cost_tol", "max_iter", "numerical_failure")


def _n_points(arr) -> int:
    return int(np.shape(arr)[0])


def _file_size(path) -> int:
    return os.path.getsize(path)


# (owner, attribute, span name, note(args, result) or None). Each entry is
# the name a caller looks up: the benchmark's own calls go through module
# attributes, so they are wrapped the same way.
PATCHES = (
    (tracker, "track_step", "tracker.track_step", None),
    (tracker, "dll_register", "registration.dll_register",
     lambda a, r: (r.points_used, r.points_out_of_map)),
    (tracker, "tilt_compensate", "geometry.tilt_compensate", None),
    (geometry, "tilt_compensate", "geometry.tilt_compensate", None),
    (geometry, "compose", "geometry.compose", None),
    (registration, "query_columns", "distance_field.query_columns", lambda a, r: _n_points(a[1])),
    (registration, "query_many", "distance_field.query_many", None),
    (registration, "solve_lm", "solver.solve_lm", lambda a, r: (r.iterations, r.termination.value)),
    (registration, "apply_pose", "geometry.apply_pose", None),
    (registration, "align_4dof", "registration.align_4dof", None),
    (registration, "icp_register", "registration.icp_register",
     lambda a, r: (r.report.iterations, r.report.correspondences, len(a[0]))),
    (nnsearch, "build_index", "nnsearch.build_index", None),
    (nnsearch.KdTree3, "nearest_many", "nnsearch.nearest_many", lambda a, r: _n_points(a[1])),
    (distance_field, "build_index", "nnsearch.build_index", None),
    (distance_field, "plan_grid", "distance_field.plan_grid", None),
    (distance_field, "build_grid", "distance_field.build_grid", None),
    (distance_field.GridSpec, "node_coordinates", "distance_field.node_coordinates", None),
    (distance_field, "fit_cell_coeffs", "distance_field.fit_cell_coeffs", None),
    (distance_field, "save_grid", "distance_field.save_grid", lambda a, r: _file_size(a[1])),
    (distance_field, "load_grid", "distance_field.load_grid", lambda a, r: _file_size(a[0])),
)


class NullTracer:
    """Tracer interface with nothing recorded: the untraced passes use it."""

    def scan(self):
        return contextlib.nullcontext()


class Tracer:
    """In-memory span recorder for traced passes."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._scan: int | None = None
        self.scans = 0

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._scan, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if note is not None:
                rec[5] = note(args, out)
            return out

        return traced

    def _wrap_residuals(self, make_provider):
        @functools.wraps(make_provider)
        def traced(*args, **kwargs):
            return self.wrap("registration.residual_eval", make_provider(*args, **kwargs))

        return traced

    @contextlib.contextmanager
    def scan(self):
        """Root span of one scan; every span opened inside carries its id."""
        self._scan = self.scans
        self.scans += 1
        rec = ["bench.scan", perf_counter(), 0.0, -1, self._scan, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            self._scan = None

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, note in PATCHES:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, note))
            original = registration.df_residuals
            saved.append((registration, "df_residuals", original))
            registration.df_residuals = self._wrap_residuals(original)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "scan", "note")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    dur = np.array([s[2] - s[1] for s in spans])
    own = dur.copy()
    for i, s in enumerate(spans):
        if s[3] >= 0:
            own[s[3]] -= dur[i]
    return own


def scan_self_ms(tracer: Tracer) -> dict[str, float]:
    """Mean self time per scan of each layer called inside scans, in ms."""
    own = self_times(tracer.spans)
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(tracer.spans):
        if s[4] is not None:
            out[s[0]] += own[i] * 1e3 / tracer.scans
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def layer_metrics(tracer: Tracer, traced_passes: int, scans_per_pass: int) -> dict[str, float]:
    """Per-layer numbers from a tracer's spans, normalised per pass, scan or call."""
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)
    for i, (name, start, end, _, _, note) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_total[name] += own[i]
        if note is not None:
            notes[name].append(note)

    def per(value, count):
        return value / count if count else 0.0

    def mean_call(name, scale):
        return per(total[name], calls[name]) * scale

    scans = tracer.scans
    passes = traced_passes
    m: dict[str, float] = {}

    # track: registration over the field
    m["registration.dll_register.ms"] = mean_call("registration.dll_register", 1e3)
    m["registration.residual_evals_per_scan"] = per(calls["registration.residual_eval"], scans)
    m["registration.residual_eval.us"] = mean_call("registration.residual_eval", 1e6)
    m["distance_field.query_columns.us"] = mean_call("distance_field.query_columns", 1e6)
    qc_points = sum(notes["distance_field.query_columns"])
    m["distance_field.query_columns.ns_per_point"] = per(total["distance_field.query_columns"], qc_points) * 1e9
    m["distance_field.query_columns.bytes_per_point"] = (
        float(QUERY_COLUMNS_BYTES_PER_POINT) if qc_points else 0.0
    )
    m["distance_field.query_many.calls_per_scan"] = per(calls["distance_field.query_many"], scans)
    solves = notes["solver.solve_lm"]
    m["solver.solves_per_scan"] = per(len(solves), scans)
    m["solver.iterations_per_solve"] = per(sum(it for it, _ in solves), len(solves))
    m["solver.self_ms_per_scan"] = per(self_total["solver.solve_lm"], scans) * 1e3
    for reason in TERMINATIONS:
        m[f"solver.termination.{reason}"] = per(sum(1 for _, r in solves if r == reason), passes)
    m["geometry.tilt_compensate.us"] = mean_call("geometry.tilt_compensate", 1e6)
    used_out = notes["registration.dll_register"]
    m["registration.out_of_map_frac"] = per(
        sum(o for _, o in used_out), sum(u + o for u, o in used_out)
    )
    m["distance_field.load_grid.s"] = mean_call("distance_field.load_grid", 1.0)

    # build: exact nearest-neighbour pass and coefficient fit
    m["nnsearch.build_index.s"] = mean_call("nnsearch.build_index", 1.0)
    nn_queries = sum(notes["nnsearch.nearest_many"])
    m["nnsearch.nearest_many.s"] = per(total["nnsearch.nearest_many"], passes)
    m["nnsearch.nearest_many.queries"] = per(nn_queries, passes)
    m["nnsearch.nearest_many.ns_per_query"] = per(total["nnsearch.nearest_many"], nn_queries) * 1e9
    m["distance_field.node_coordinates.s"] = per(total["distance_field.node_coordinates"], passes)
    m["distance_field.fit_cell_coeffs.s"] = per(total["distance_field.fit_cell_coeffs"], passes)
    m["distance_field.build_grid.self_s"] = per(self_total["distance_field.build_grid"], passes)
    m["distance_field.save_grid.s"] = mean_call("distance_field.save_grid", 1.0)
    sizes = notes["distance_field.save_grid"] or notes["distance_field.load_grid"]
    m["distance_field.file_bytes"] = float(sizes[-1]) if sizes else 0.0

    # icp: nearest-neighbour correspondences online
    icp = notes["registration.icp_register"]
    m["registration.icp_register.ms"] = mean_call("registration.icp_register", 1e3)
    m["registration.icp_iterations_per_scan"] = per(sum(it for it, _, _ in icp), scans)
    m["nnsearch.nearest_many.us"] = mean_call("nnsearch.nearest_many", 1e6)
    m["nnsearch.queries_per_scan"] = per(nn_queries, scans) if icp else 0.0
    m["registration.align_4dof.us"] = mean_call("registration.align_4dof", 1e6)
    m["geometry.apply_pose.us"] = mean_call("geometry.apply_pose", 1e6)
    m["registration.correspondence_frac"] = per(sum(c for _, c, _ in icp), sum(n for _, _, n in icp))

    # Per-scan accounting: the summed self time of every layer below the
    # benchmark's own scan span, each scan at its fastest traced pass (as
    # the scan latencies are), then the median over scans.
    per_scan = np.zeros(scans)
    for i, s in enumerate(spans):
        if s[4] is not None and s[0] != "bench.scan":
            per_scan[s[4]] += own[i]
    if scans:
        fastest = per_scan.reshape(traced_passes, scans_per_pass).min(axis=0)
        m["trace.layers_ms_p50"] = float(np.median(fastest)) * 1e3
    else:
        m["trace.layers_ms_p50"] = 0.0
    return m
