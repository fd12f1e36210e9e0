"""CSV and JSON artifact formats.

All floats are written with 17 significant digits so files round-trip
bit-exactly; rows follow row-major cell order.  Nothing time- or
machine-dependent goes into these files, which keeps repeated runs of the
same configuration byte-identical.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .controls import ControlPath
from .errors import SchemaError
from .forward import Checkpoints, StateTrajectory
from .grid import GridSpec, ScalarField, TimeGrid

__all__ = [
    "write_field_csv",
    "read_field_csv",
    "write_control_csv",
    "read_control_csv",
    "write_trajectory_summary",
    "write_adjoint_summary",
    "write_iterations_csv",
    "write_json",
]


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_rows(path: str, header: list[str], rows) -> None:
    """The one CSV writer: a header line of column names, then one line per
    row of numbers, each written by ``_fmt``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_field_csv(field: ScalarField, path: str) -> None:
    """Snapshot format: header ``x[,y],value``, one row per cell."""
    grid = field.grid
    header = ["x", "value"] if grid.dim == 1 else ["x", "y", "value"]
    _write_rows(path, header, ((*x, v) for x, v in zip(grid.cell_centers(), field.values.ravel())))


def read_field_csv(path: str) -> ScalarField:
    """Rebuild a field (and its grid) from a snapshot file."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    dim = len(header) - 1
    coords = [np.unique(data[:, ax]) for ax in range(dim)]
    n = tuple(len(c) for c in coords)
    h = tuple(float(c[1] - c[0]) for c in coords)
    lo = tuple(float(c[0]) - hh / 2 for c, hh in zip(coords, h))
    hi = tuple(float(c[-1]) + hh / 2 for c, hh in zip(coords, h))
    grid = GridSpec(dim=dim, lo=lo, hi=hi, n=n)
    return ScalarField(grid, data[:, -1].reshape(n))


def write_control_csv(control: ControlPath, path: str) -> None:
    """Control format: header ``t,u1_1..u1_d,u2_1..u2_d``."""
    d = range(1, control.dim + 1)
    header = ["t", *(f"u1_{r}" for r in d), *(f"u2_{r}" for r in d)]
    _write_rows(path, header, ((t, *row) for t, row in zip(control.timegrid.nodes(), control.stacked())))


def read_control_csv(path: str) -> ControlPath:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    d = (len(header) - 1) // 2
    t = data[:, 0]
    nt = len(t) - 1
    if nt < 2 or t[-1] <= 0:
        raise SchemaError(f"control file {path} needs at least 3 nodes ending at T > 0")
    tg = TimeGrid(T=float(t[-1]), nt=nt)
    return ControlPath(tg, data[:, 1 : 1 + d], data[:, 1 + d : 1 + 2 * d])


def _write_node_table(path: str, timegrid: TimeGrid, columns: dict) -> None:
    """One row per time node: ``t`` and the named per-node columns."""
    rows = ((n * timegrid.dt, *(col[n] for col in columns.values())) for n in range(timegrid.nt + 1))
    _write_rows(path, ["t", *columns], rows)


def write_trajectory_summary(traj: StateTrajectory, path: str) -> dict:
    """Per-node ``t,mass,min,l2,h0k2`` (the weighted H^0_2 norm), all but the
    mass reduced from the checkpoints (the minimum as one row minimum per
    node); returns the columns."""
    mins = traj.nodes.reshape(len(traj.nodes), -1).min(axis=1)
    columns = {"mass": traj.mass, "min": mins, "l2": traj.norms(0, 0), "h0k2": traj.norms(0, 2)}
    _write_node_table(path, traj.timegrid, columns)
    return columns


def write_adjoint_summary(traj: Checkpoints, neg_k: int | None, path: str) -> dict:
    """Per-node ``t,l2``, plus the H^0_{-neg_k} norm ``h0_negk`` when neg_k is
    given, from the checkpoints; returns the columns."""
    columns = {"l2": traj.norms(0, 0)}
    if neg_k is not None:
        columns["h0_negk"] = traj.norms(0, -neg_k)
    _write_node_table(path, traj.timegrid, columns)
    return columns


def write_iterations_csv(cost_history, vi_history, steps, path: str) -> None:
    """One row per iterate: ``iter,cost,vi_residual,step``, step 0 past the
    last step taken."""
    rows = ((i, cost_history[i], vi, steps[i] if i < len(steps) else 0.0) for i, vi in enumerate(vi_history))
    _write_rows(path, ["iter", "cost", "vi_residual", "step"], rows)


def write_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
