"""Conservative finite-volume integration of the density transport equation
d rho / dt + div(a rho) = g, plus runtime conservation and energy
certificates.

The update is in flux form, so interior mass changes by exactly the net
boundary flux.  Boundary handling: outflow faces take the upwind interior
value, inflow faces carry zero flux (equivalently, ghost cells hold zero for
the upwind gather).  The drift grows linearly in x, so the time step is
subdivided per step to keep the Courant number below the configured cap;
the Courant speed is computed once per time node.

Every a0 preset is autonomous, so a0 is evaluated at the faces once per
solve and each substep adds the control in ``eval_drift``'s order,
(a0 + u1) + x * u2, which keeps the bits of ``eval_drift``.  A
time-dependent preset would have to give that cache up.  The control (and
the tangent's control) is looked up once per solve, in one array pass, at
every node for the substep plan and then at every stage time of the plan,
n * dt + j * h and (n * dt + j * h) + h; each stage reads its row of that
table, of (K, d) arrays.  The face-speed splits max(a, 0) and min(a, 0) (and,
for the tangent, the mask a >= 0 and its own face speeds) are tabulated from
the table a block of rows at a time, about ``grid._BLOCK_POINTS`` values in
all; a stage whose row is outside the block, as at the start of a replay,
tabulates the block from that row on.  Each stage writes its face
states, fluxes and divergences into one workspace of arrays allocated once.
The block and the workspace are dropped when a solve or a replay ends, so
stored trajectories do not hold them.

Schemes: first-order upwind (monotone, the default) and a minmod-limited
MUSCL variant advanced with two-stage SSP time stepping for accuracy
studies.  A tangent mode co-evolves the density with its linearization with
respect to a control perturbation; it differentiates the discrete flux
directly, which is what the regularity probes need.

``Checkpoints`` is the one store for the forward, tangent and adjoint
trajectories (stride checkpointing with deterministic replay, as in
Griewank & Walther's revolve, without its binomial schedule).  Solves record
no weighted Sobolev norm; ``norm_history`` computes one from the checkpoints.

The per-node diagnostics are recorded at every node, whatever the stride:
the mass with the finiteness check of each step, and the minimum, the L2
norm and, given a running potential theta, the running cost int theta rho dx
from a block of node copies (about ``grid._BLOCK_POINTS`` values with
theta's table), one row reduction each when the block is full, with theta
tabulated at the block's node times in one call.  ``reduced_cost``
integrates the running cost in time from these, so the objective does not
depend on the stride.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Callable

import numpy as np

from .controls import ControlPath, DriftSpec, Potential, drift_div_bound, drift_grad_bound, potential_eval
from .controls import eval_drift  # unused here; bench/calltrace.py wraps forward.eval_drift by name
from .errors import CflUnderflow, NonFinite
from .grid import GridSpec, ScalarField, TimeGrid, _block_nodes, _row_sums, weighted_sobolev_norm

__all__ = [
    "Checkpoints",
    "StateTrajectory",
    "EnergyCertificate",
    "solve_forward",
    "solve_linearized",
    "boundary_leak",
    "energy_certificate",
    "required_substeps",
]

SCHEMES = ("upwind-fv", "muscl-fv")


def _face_points(grid: GridSpec, axis: int) -> np.ndarray:
    """Coordinates of face centers along one axis, shape (*face_shape, d)."""
    if grid.dim == 1:
        f = grid.lo[0] + np.arange(grid.n[0] + 1) * grid.h[0]
        return f[:, None]
    coords = []
    for ax in range(2):
        if ax == axis:
            coords.append(grid.lo[ax] + np.arange(grid.n[ax] + 1) * grid.h[ax])
        else:
            coords.append(grid.centers(ax))
    X, Y = np.meshgrid(coords[0], coords[1], indexing="ij")
    return np.stack([X, Y], axis=-1)


class _Faces:
    """Left/right states of one field at the faces along axis 0 of its
    axis-first cells, with zero ghosts (inflow carries nothing in, outflow
    uses the interior reconstruction); the buffers and their ghost faces are
    written once per solve."""

    def __init__(self, cells: tuple, scheme: str):
        face = (cells[0] + 1,) + cells[1:]
        self.left, self.right = np.empty(face), np.empty(face)
        self.left[0] = self.right[-1] = 0.0
        self._left, self._right = self.left[1:], self.right[:-1]
        self.muscl = scheme == "muscl-fv"
        if self.muscl:
            # half the limited slope; the boundary cells' slopes stay 0
            self._half = np.zeros(cells)
            self._slope = self._half[1:-1]
            diffs = (cells[0] - 1,) + cells[1:]
            dm, mag = np.empty(diffs), np.empty(diffs)
            self._dm, self._dm_lo, self._dm_hi = dm, dm[:-1], dm[1:]
            self._mag, self._mag_lo, self._mag_hi = mag, mag[:-1], mag[1:]
            self._pos = np.empty(self._slope.shape, dtype=bool)

    def fill(self, vm: np.ndarray) -> None:
        if not self.muscl:
            np.copyto(self._left, vm)
            np.copyto(self._right, vm)
            return
        s, pos = self._slope, self._pos
        np.subtract(vm[1:], vm[:-1], out=self._dm)
        # minmod of the differences on either side: where their product is
        # positive (so not where it underflows to 0) they share a sign and it
        # is the one of smaller magnitude, else 0.  A select is cheaper than
        # ufuncs masked with where=
        np.multiply(self._dm_lo, self._dm_hi, out=s)
        np.greater(s, 0.0, out=pos)
        np.abs(self._dm, out=self._mag)
        np.minimum(self._mag_lo, self._mag_hi, out=s)
        np.copysign(s, self._dm_lo, out=s)
        np.multiply(np.where(pos, s, 0.0), 0.5, out=s)
        np.add(vm, self._half, out=self._left)
        np.subtract(vm, self._half, out=self._right)


class _Axis:
    """The scratch arrays of one axis for one solve, axis first: the face
    states of the density (and of the tangent), the flux and its first
    difference."""

    def __init__(self, cells: tuple, scheme: str, tangent: bool):
        face = (cells[0] + 1,) + cells[1:]
        self.faces = _Faces(cells, scheme)
        self.w_faces = _Faces(cells, scheme) if tangent else None
        self.F, self._scratch, self._dF = np.empty(face), np.empty(face), np.empty(cells)
        self._F_hi, self._F_lo = self.F[1:], self.F[:-1]

    def flux(self, ap, left, am, right) -> np.ndarray:
        """F = ap * left + am * right."""
        np.multiply(ap, left, out=self.F)
        np.multiply(am, right, out=self._scratch)
        return np.add(self.F, self._scratch, out=self.F)

    def tangent_flux(self, ap, am, up, da) -> np.ndarray:
        """F = ap * wl + am * wr + da * rho_up, rho_up taken from the
        density's face states on the side a >= 0 points to."""
        self.flux(ap, self.w_faces.left, am, self.w_faces.right)
        np.multiply(da, np.where(up, self.faces.left, self.faces.right), out=self._scratch)
        return np.add(self.F, self._scratch, out=self.F)

    def add_difference(self, h: float, div_ax: np.ndarray, first: bool) -> None:
        """div_ax += (F[1:] - F[:-1]) / h, onto a zero divergence on the
        first axis (0.0 + x, which turns -0.0 into +0.0)."""
        np.subtract(self._F_hi, self._F_lo, out=self._dF)
        np.divide(self._dF, h, out=self._dF)
        np.add(self._dF, 0.0 if first else div_ax, out=div_ax)


class _Workspace:
    """What every stage of one solve reuses: each axis's scratch arrays, the
    divergences of the stages and MUSCL's intermediate stage, for the
    density and, with a tangent, for the tangent."""

    def __init__(self, shape: tuple, scheme: str, tangent: bool):
        self.axes = []
        for ax in range(len(shape)):
            cells = list(shape)
            cells[0], cells[ax] = cells[ax], cells[0]
            self.axes.append(_Axis(tuple(cells), scheme, tangent))
        self.div = (np.empty(shape), np.empty(shape))
        self.stage = np.empty(shape)
        self.div_w = (np.empty(shape), np.empty(shape)) if tangent else (None, None)
        self.stage_w = np.empty(shape) if tangent else None


def _column(u: np.ndarray, ax: int, like: np.ndarray) -> np.ndarray:
    """Component ax of control rows u, shaped to broadcast over rows of ``like``."""
    return u[..., ax].reshape(u.shape[:-1] + (1,) * like.ndim)


class _Stepper:
    """One-step FV advance bound to a grid, drift, source, and scheme; a0
    at the faces of each axis is evaluated here, stored with that axis first.

    During a solve or a replay it holds the face-speed splits of a block of
    table rows and the workspace; ``release`` drops both."""

    def __init__(self, grid, drift, g_eval, scheme, tangent_control: ControlPath | None = None):
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        self.grid = grid
        self.drift = drift
        self.g_eval = g_eval
        self.scheme = scheme
        self.tangent_control = tangent_control
        self.controls = self.deltas = None  # (u1, u2) and (du1, du2) tables, see look_up
        self.h = grid.h
        self.transverse = [grid.cell_volume / h for h in self.h]
        self.a0_faces, self.x_faces = [], []
        for ax in range(grid.dim):
            pts = _face_points(grid, ax)
            a0 = drift.a0.eval(0.0, pts.reshape(-1, grid.dim))[:, ax].reshape(pts.shape[:-1])
            self.a0_faces.append(np.ascontiguousarray(np.swapaxes(a0, 0, ax)))
            self.x_faces.append(np.ascontiguousarray(np.swapaxes(pts[..., ax], 0, ax)))
        # a block's float tables (a+ and a-, and the tangent's face speeds)
        # hold about _BLOCK_POINTS values in all
        tables = 2 if tangent_control is None else 3
        self._rows = _block_nodes(tables * sum(a0.size for a0 in self.a0_faces))
        self._block = self._tables = self._work = None

    def release(self) -> None:
        """Drop the split block and the workspace; the next stage rebuilds them."""
        self._block = self._tables = self._work = None

    def look_up(self, times: np.ndarray) -> None:
        """Tabulate the control, and the tangent control if any, at every
        time of ``times`` in one pass; row k serves stage k."""
        self._block = None
        self.controls = self.drift.control.value_at(times)
        if self.tangent_control is not None:
            self.deltas = self.tangent_control.value_at(times)

    def face_speeds(self, rows, out=None) -> list[np.ndarray]:
        """a_axis at the faces of each axis, axis first, at table row(s)
        ``rows`` (an index or a slice, which leads with a row axis), summed
        in eval_drift's order: (a0 + u1) + x * u2.  ``out`` holds per axis
        the array for a and one for x * u2, or None to allocate them."""
        u1, u2 = self.controls[0][rows], self.controls[1][rows]
        speeds = []
        for ax, (a0, x, (a, xu2)) in enumerate(zip(self.a0_faces, self.x_faces, out or [(None, None)] * len(self.h))):
            a = np.add(a0, _column(u1, ax, a0), out=a)
            speeds.append(np.add(a, np.multiply(x, _column(u2, ax, x), out=xu2), out=a))
        return speeds

    def face_speed_deltas(self, rows, out=None) -> list[np.ndarray]:
        """The tangent control's du1 + x * du2 at the faces, as face_speeds;
        ``out`` holds one array per axis, or is None."""
        du1, du2 = self.deltas[0][rows], self.deltas[1][rows]
        return [
            np.add(_column(du1, ax, x), np.multiply(x, _column(du2, ax, x), out=da), out=da)
            for ax, (x, da) in enumerate(zip(self.x_faces, out or [None] * len(self.h)))
        ]

    def _splits(self, k: int) -> list[list[np.ndarray]]:
        """Per axis at table row k: a+ = max(a, 0), a- = min(a, 0) and, with
        a tangent, the mask a >= 0 and the tangent's face speeds.  They are
        tabulated for a block of rows from k on when k is outside the
        current block."""
        block = self._block
        if block is None or not block[0] <= k < block[1]:
            block = self._block = self._tabulate(k)
        r = k - block[0]
        return [[table[r] for table in axis] for axis in block[2]]

    def _tabulate(self, lo: int):
        """The splits of table rows lo.. (a block, or what is left of the
        table), written into one block's arrays allocated at the first call."""
        tangent = self.tangent_control is not None
        if self._tables is None:
            shapes = [(self._rows,) + a0.shape for a0 in self.a0_faces]
            self._tables = [
                [np.empty(shape), np.empty(shape)] + ([np.empty(shape, dtype=bool), np.empty(shape)] if tangent else [])
                for shape in shapes
            ]
        hi = min(lo + self._rows, len(self.controls[0]))
        tables = [[table[: hi - lo] for table in axis] for axis in self._tables]
        # am holds x * u2 until a is complete
        speeds = self.face_speeds(slice(lo, hi), [axis[:2] for axis in tables])
        if tangent:
            self.face_speed_deltas(slice(lo, hi), [axis[3] for axis in tables])
        for a, axis in zip(speeds, tables):
            if tangent:
                np.greater_equal(a, 0.0, out=axis[2])
            np.minimum(a, 0.0, out=axis[1])
            np.maximum(a, 0.0, out=axis[0])
        return lo, hi, tables

    def max_speed(self, k: int) -> float:
        """Sum over axes of max |a_axis| / h_axis at table row k, for the
        Courant number."""
        return sum(float(np.maximum(ap.max(), -am.min())) / h for (ap, am, *_), h in zip(self._splits(k), self.h))

    def _workspace(self, shape: tuple) -> _Workspace:
        if self._work is None:
            self._work = _Workspace(shape, self.scheme, self.tangent_control is not None)
        return self._work

    def _divergence(self, k, values, div, w_values=None, div_w=None) -> float:
        """Flux divergence of values (and of the tangent pair, if any) at
        table row k, written into div (and div_w); returns the boundary mass
        outflow rate.  Each axis works on axis-first views; ``swapaxes`` is a
        no-op view on axis 0."""
        out_rate = 0.0
        for ax, (axis, (ap, am, *tangent)) in enumerate(zip(self._workspace(values.shape).axes, self._splits(k))):
            faces = axis.faces
            faces.fill(values.swapaxes(0, ax))
            F = axis.flux(ap, faces.left, am, faces.right)
            axis.add_difference(self.h[ax], div.swapaxes(0, ax), ax == 0)
            if F.ndim == 1:
                # sum() of a numpy scalar would add it to +0.0, which changes
                # only the sign of a zero; out_rate starts at 0.0 and erases it
                out_rate += (F.item(-1) - F.item(0)) * self.transverse[ax]
            else:
                out_rate += float((F[-1].sum() - F[0].sum()) * self.transverse[ax])
            if w_values is not None:
                axis.w_faces.fill(w_values.swapaxes(0, ax))
                axis.tangent_flux(ap, am, *tangent)
                axis.add_difference(self.h[ax], div_w.swapaxes(0, ax), ax == 0)
        return out_rate

    def advance(self, values, t, dt, k, w_values=None):
        """Advance one (sub)step from time t, whose first stage reads table
        row k (MUSCL's second stage, at t + dt, row k + 1); returns new
        values, new tangent values, boundary outflow mass, and injected
        source mass."""
        work, grid = self._workspace(values.shape), self.grid
        (div1, div2), (divw1, divw2) = work.div, work.div_w
        if self.scheme == "upwind-fv":
            out_rate = self._divergence(k, values, div1, w_values, divw1)
            new = values - np.multiply(div1, dt, out=div1)
            src_mass = 0.0
            if self.g_eval is not None:
                gmid = self.g_eval(t + 0.5 * dt)
                new = new + dt * gmid
                src_mass = float(gmid.sum() * grid.cell_volume) * dt
            new_w = None
            if w_values is not None:
                new_w = w_values - np.multiply(divw1, dt, out=divw1)
            return new, new_w, out_rate * dt, src_mass
        # muscl-fv: two-stage SSP update
        rate1 = self._divergence(k, values, div1, w_values, divw1)
        g1 = self.g_eval(t) if self.g_eval is not None else None
        stage = np.subtract(values, np.multiply(div1, dt, out=work.stage), out=work.stage)
        if g1 is not None:
            stage += dt * g1
        stage_w = None
        if w_values is not None:
            stage_w = np.subtract(w_values, np.multiply(divw1, dt, out=work.stage_w), out=work.stage_w)
        rate2 = self._divergence(k + 1, stage, div2, stage_w, divw2)
        g2 = self.g_eval(t + dt) if self.g_eval is not None else None
        div1 += div2
        div1 *= 0.5 * dt
        new = values - div1
        src_mass = 0.0
        if g1 is not None:
            new = new + 0.5 * dt * (g1 + g2)
            src_mass = 0.5 * dt * float((g1 + g2).sum() * grid.cell_volume)
        new_w = None
        if w_values is not None:
            divw1 += divw2
            divw1 *= 0.5 * dt
            new_w = w_values - divw1
        return new, new_w, 0.5 * dt * (rate1 + rate2), src_mass


@dataclass
class Checkpoints:
    """Node 0, node nt and every ``stride``-th time node of a solve.

    Any other node is replayed, bit-exactly, from the stored node the solve
    passed last by the solve's own step: ``step(values, n)`` gives the node
    after n in the solve's direction, and ``release()``, if given, is called
    when a replay ends.  Without a step (the tangent) only the stored nodes
    are available.
    """

    timegrid: TimeGrid
    grid: GridSpec
    stride: int
    step: Callable | None = field(default=None, repr=False)
    backward: bool = False
    release: Callable | None = field(default=None, repr=False)
    _stored: dict = field(default_factory=dict, repr=False)

    def keep(self, n: int, values: np.ndarray) -> None:
        if n % self.stride == 0 or n == self.timegrid.nt:
            self._stored[n] = values.copy()

    @property
    def snapshot_steps(self) -> list[int]:
        return sorted(self._stored)

    @property
    def snapshots(self) -> list[np.ndarray]:
        return [self._stored[n] for n in self.snapshot_steps]

    def stored_items(self):
        return [(n, self._stored[n]) for n in self.snapshot_steps]

    def _replay(self, start: int, stop: int):
        """Yield the nodes after the stored ``start`` up to ``stop``."""
        vals = self._stored[start]
        try:
            for n in range(start, stop, 1 if stop > start else -1):
                vals = self.step(vals, n)
                yield vals
        finally:
            if self.release is not None:
                self.release()

    def values_at(self, n: int) -> np.ndarray:
        if n in self._stored:
            return self._stored[n]
        if self.backward:
            start = min(k for k in self._stored if k > n)
        else:
            start = max(k for k in self._stored if k < n)
        for vals in self._replay(start, n):
            pass
        return vals

    def dense_values(self):
        """Yield (n, values) for every node n = 0..nt in ascending order; a
        backward trajectory replays each segment downward, buffers it and
        yields it upward."""
        steps = self.snapshot_steps
        for lo, hi in zip(steps, steps[1:]):
            yield lo, self._stored[lo]
            if self.backward:
                inner = list(self._replay(hi, lo + 1))[::-1]
            else:
                inner = self._replay(lo, hi - 1)
            yield from zip(range(lo + 1, hi), inner)
        yield steps[-1], self._stored[steps[-1]]

    def norm_history(self, m: int, k: int) -> np.ndarray:
        """The weighted H^m_k norm at nodes 0..nt."""
        out = np.zeros(self.timegrid.nt + 1)
        for n, vals in self.dense_values():
            out[n] = weighted_sobolev_norm(ScalarField(self.grid, vals), m, k)
        return out


@dataclass(kw_only=True)
class StateTrajectory(Checkpoints):
    """Checkpoints plus per-node diagnostics of a forward solve, every node
    0..nt whatever the stride: ``running`` is the running cost int theta rho
    dx at each node (zero when the solve was given no theta)."""

    mass: np.ndarray
    min_value: np.ndarray
    l2: np.ndarray
    running: np.ndarray
    substeps: list[int]
    source_mass: np.ndarray
    boundary_outflux: np.ndarray
    scheme: str
    cfl: float


def required_substeps(stepper: _Stepper, timegrid: TimeGrid, cfl: float) -> list[int]:
    """Per-step substep counts from the Courant number at the step ends,
    with the speed computed once per node from a table of the nodes."""
    stepper.look_up(np.arange(timegrid.nt + 1) * timegrid.dt)
    dt = timegrid.dt
    speed = [stepper.max_speed(n) for n in range(timegrid.nt + 1)]
    return [max(1, int(math.ceil(dt * max(a, b) / cfl))) for a, b in zip(speed, speed[1:])]


class _NodeBlock:
    """Copies of a block of consecutive nodes of a solve; when the block is
    full, or at node nt, one row reduction per diagnostic fills the block's
    entries of min_value, l2 and running, with the bits of each node's own
    ``min()`` and ``sum()``.  The copies and the theta table hold about
    ``grid._BLOCK_POINTS`` values in all."""

    def __init__(self, traj: StateTrajectory, theta: Potential | None):
        grid, nt = traj.grid, traj.timegrid.nt
        self.traj = traj
        self.theta = None if theta is None or theta.is_zero else theta
        self.size = _block_nodes((1 if self.theta is None else 2) * grid.num_cells)
        self.nodes = np.empty((min(self.size, nt + 1), *grid.shape))
        self.centers = None if self.theta is None else grid.cell_centers()

    def add(self, n: int, values: np.ndarray) -> None:
        b = n % self.size
        self.nodes[b] = values
        if b == self.size - 1 or n == self.traj.timegrid.nt:
            self._reduce(n - b, self.nodes[: b + 1])

    def _reduce(self, lo: int, rows: np.ndarray) -> None:
        traj = self.traj
        grid, hi, vol = traj.grid, lo + len(rows), traj.grid.cell_volume
        traj.min_value[lo:hi] = rows.reshape(len(rows), -1).min(axis=1)
        traj.l2[lo:hi] = np.sqrt(_row_sums(rows * rows) * vol)
        if self.theta is not None:
            times = np.arange(lo, hi) * traj.timegrid.dt
            theta = potential_eval(self.theta, self.centers, times).reshape((-1, *grid.shape))
            traj.running[lo:hi] = _row_sums(theta * rows) * vol


def _solve(
    rho0: ScalarField,
    drift: DriftSpec,
    g_eval,
    timegrid: TimeGrid,
    scheme: str,
    cfl: float,
    stride: int,
    max_substeps: int,
    fixed_substeps,
    tangent_control: ControlPath | None,
    theta: Potential | None = None,
):
    grid = rho0.grid
    stepper = _Stepper(grid, drift, g_eval, scheme, tangent_control)
    dt = timegrid.dt
    nt = timegrid.nt

    if fixed_substeps is None:
        plan = required_substeps(stepper, timegrid, cfl)
    elif np.isscalar(fixed_substeps):
        plan = [int(fixed_substeps)] * nt
    else:
        plan = [int(v) for v in fixed_substeps]
    worst = max(plan)
    if worst > max_substeps:
        raise CflUnderflow(
            f"step needs {worst} substeps, above the cap {max_substeps}; "
            "shrink dt or enlarge the cap"
        )

    # the stage times of every substep, n * dt + j * h and, for MUSCL's
    # second stage, (n * dt + j * h) + h, tabulated once; substep j of step
    # n starts at row (first[n] + j) * stages
    stages = 2 if scheme == "muscl-fv" else 1
    first = np.cumsum([0] + plan[:-1]).tolist()
    step_of = np.repeat(np.arange(nt), plan)
    h_sub = (dt / np.asarray(plan, dtype=float))[step_of]
    t_sub = step_of * dt + (np.arange(step_of.size) - np.repeat(first, plan)) * h_sub
    stepper.look_up(t_sub if stages == 1 else np.column_stack([t_sub, t_sub + h_sub]).ravel())

    def full_step(vals, n, w_vals=None):
        """Node n to n + 1, with the tangent and the step's boundary outflow
        and injected source masses."""
        h = dt / plan[n]
        out_acc = src_acc = 0.0
        for j in range(plan[n]):
            vals, w_vals, out_m, src_m = stepper.advance(vals, n * dt + j * h, h, (first[n] + j) * stages, w_vals)
            out_acc += out_m
            src_acc += src_m
        return vals, w_vals, out_acc, src_acc

    values = rho0.values.copy()
    w_values = np.zeros_like(values) if tangent_control is not None else None
    vol = grid.cell_volume

    traj = StateTrajectory(
        timegrid, grid, stride, lambda vals, n: full_step(vals, n)[0], release=stepper.release,
        mass=np.zeros(nt + 1), min_value=np.zeros(nt + 1), l2=np.zeros(nt + 1), running=np.zeros(nt + 1),
        substeps=plan, source_mass=np.zeros(nt + 1), boundary_outflux=np.zeros(nt + 1), scheme=scheme, cfl=cfl,
    )
    w_traj = Checkpoints(timegrid, grid, stride) if tangent_control is not None else None
    block = _NodeBlock(traj, theta)

    def record(n, vals, w_vals, total):
        traj.mass[n] = total * vol
        block.add(n, vals)
        traj.keep(n, vals)
        if w_traj is not None:
            w_traj.keep(n, w_vals)

    record(0, values, w_values, values.sum())
    try:
        for n in range(nt):
            values, w_values, out_m, src_m = full_step(values, n, w_values)
            total = values.sum()
            # a finite sum proves every value finite
            if not math.isfinite(total) and not np.all(np.isfinite(values)):
                raise NonFinite(f"solution lost finiteness at step {n + 1}")
            record(n + 1, values, w_values, total)
            traj.source_mass[n + 1] = traj.source_mass[n] + src_m
            traj.boundary_outflux[n + 1] = traj.boundary_outflux[n] + out_m
    finally:
        stepper.release()

    return traj if w_traj is None else (traj, w_traj)


def solve_forward(
    rho0: ScalarField,
    drift: DriftSpec,
    g_eval,
    timegrid: TimeGrid,
    scheme: str = "upwind-fv",
    cfl: float = 0.9,
    stride: int = 1,
    max_substeps: int = 4096,
    fixed_substeps=None,
    theta: Potential | None = None,
) -> StateTrajectory:
    """Integrate the density forward from rho0 under the controlled drift.

    ``g_eval`` is None or a callable t -> source values on the grid.  With a
    running potential ``theta``, the trajectory's ``running`` holds int theta
    rho dx at every node.
    """
    return _solve(
        rho0, drift, g_eval, timegrid, scheme, cfl, stride, max_substeps, fixed_substeps,
        tangent_control=None, theta=theta,
    )


def solve_linearized(
    rho0: ScalarField,
    drift: DriftSpec,
    delta_control: ControlPath,
    g_eval,
    timegrid: TimeGrid,
    scheme: str = "upwind-fv",
    cfl: float = 0.9,
    stride: int = 1,
    max_substeps: int = 4096,
    fixed_substeps=None,
):
    """Co-evolve the density and its derivative with respect to a control
    perturbation (the linearized transport problem with source
    -div((du1 + x du2) rho), discretized through the scheme's own flux).

    Returns (state trajectory, tangent checkpoints) with matched substeps.
    """
    return _solve(
        rho0, drift, g_eval, timegrid, scheme, cfl, stride, max_substeps, fixed_substeps,
        tangent_control=delta_control,
    )


def boundary_leak(trajectory: StateTrajectory) -> float:
    """|mass(T) - mass(0) - injected source mass| from stored diagnostics."""
    return float(
        abs(trajectory.mass[-1] - trajectory.mass[0] - trajectory.source_mass[-1])
    )


@dataclass
class EnergyCertificate:
    """Per-step check of the discrete Gronwall recursion
    N_{n+1} <= (1 + C dt r_n) N_n + dt s_n  with r_n the discrete drift
    regularity factor and s_n the source norm."""

    m: int
    k: int
    lhs: np.ndarray
    rhs: np.ndarray
    fitted_C: float
    C_cert: float
    passed: bool

    @classmethod
    def check(cls, m, k, before, after, r, s, dt, C_cert) -> "EnergyCertificate":
        """Per-step test of after <= (1 + C dt r) before + dt s at C_cert,
        with the smallest C that passes."""
        rhs = (1.0 + C_cert * dt * r) * before + dt * s
        passed = bool(np.all(after <= rhs + 1e-12 * np.maximum(before, 1.0)))
        fitted = 0.0
        for growth, denom in zip(after - before - dt * s, dt * r * before):
            if growth <= 0.0:
                continue
            fitted = math.inf if denom <= 0.0 else max(fitted, growth / denom)
        return cls(m=m, k=k, lhs=after, rhs=rhs, fitted_C=fitted, C_cert=C_cert, passed=passed)


def energy_certificate(
    trajectory: StateTrajectory,
    drift: DriftSpec,
    g_eval,
    m: int,
    k: int,
    C_cert: float = 2.0,
) -> EnergyCertificate:
    """Certify the weighted-norm growth of a stored run.

    For m = 0 the drift factor is the sup of |div a|; for m >= 1 it is the
    discrete C^m_b norm of grad a.  The smallest feasible constant is
    reported alongside the pass flag at the configured C_cert.
    """
    grid = trajectory.grid
    tg = trajectory.timegrid
    dt = tg.dt
    N = trajectory.norm_history(m, k)
    r = np.zeros(tg.nt)
    s = np.zeros(tg.nt)
    for n in range(tg.nt):
        t = n * dt
        if m == 0:
            r[n] = drift_div_bound(drift, t, grid)
        else:
            r[n] = drift_grad_bound(drift, t, grid, m)
        if g_eval is not None:
            s[n] = weighted_sobolev_norm(ScalarField(grid, g_eval(t)), m, k)
    return EnergyCertificate.check(m, k, N[:-1], N[1:], r, s, dt, C_cert)
