"""Conservative finite-volume integration of the density transport equation
d rho / dt + div(a rho) = g, with a source g constant in time, plus runtime
conservation and energy certificates.

The update is in flux form, so interior mass changes by exactly the net
boundary flux.  Boundary handling: outflow faces take the upwind interior
value, inflow faces carry zero flux (equivalently, ghost cells hold zero for
the upwind gather).  The drift grows linearly in x, so the time step is
subdivided per step to keep the Courant number below the configured cap;
the Courant speed is computed once per time node.

a0 is autonomous (``DriftPreset.eval`` takes no time), so it is evaluated
at the faces once per solve and each substep adds the control in
``eval_drift``'s order, (a0 + u1) + x * u2, which keeps the bits of
``eval_drift``.  The stepper
(``_Stepper``) holds only these constants; each loop that reads the control
looks it up itself, in one array pass, and owns the table.  The plan
(``_Stepper.plan``) tabulates it at the nodes and reads max |a| from their
face speeds, a block of nodes at a time; it is made by the solve's own
stepper, so a0 is evaluated at the faces once per solve, plan included.
The sweep (``_Sweep``) tabulates the control (and the tangent's control) at
each distinct stage time of the substep plan, n * dt + j * h and
(n * dt + j * h) + h: a stage whose time is bit-equal to the one before
(MUSCL's second stage and the next substep's first, where the rounding
agrees) shares its table row, so the control, the face speeds and their
splits are formed once for both.  Each stage reads its row of that table;
each axis (``_Axis``) holds the views of its splits at the last row read
until a stage reads another, so the stages that share a row take them
once.

``check_solver``, which every solve and ``reduced.Problem`` call, is the
rule for a solve's settings: ``scheme`` must be a key of ``SCHEMES``, ``cfl``
a positive finite number and ``max_substeps`` an integer of at least 1,
else ``ValueError`` names the argument, before anything is allocated.

Each solve owns its scratch state (``_Sweep``), made when it starts and
dropped with it, so no solver object or stored trajectory holds any after
it.  Besides its control table, it holds the face-speed splits max(a, 0)
and min(a, 0) (and, for the tangent, the mask a >= 0 and its own face
speeds) of a block of the table's rows, about ``grid._BLOCK_POINTS`` values
in all, one workspace of arrays into which each stage writes its face
states, fluxes and divergences, and two state buffers (two more with a
tangent) into which the substeps write their new values in turn.

Schemes (``SCHEMES`` gives each one's stages per substep, run by one stage
loop): first-order upwind (monotone, the default), one forward Euler stage,
and a minmod-limited MUSCL variant for accuracy studies, two stages of SSP
Runge-Kutta (Shu & Osher 1988).  A tangent mode co-evolves the density with
its linearization with respect to a control perturbation; it differentiates
the discrete flux directly, which is what the regularity probes need.

``Checkpoints`` is the one store for the forward, tangent and adjoint
trajectories: every node 0..nt of a solve in one preallocated
``(nt + 1, *grid.shape)`` array, the store-everything end of Griewank &
Walther's revolve trade-off, so nothing is ever replayed.  ``output.stride``
only chooses which of the nodes the CLI writes.  Besides the nodes, a
forward solve records at every node only its mass balance: the mass, with
the finiteness check of each step, the injected source mass and the
boundary outflux.  Any other per-node value is reduced from the stored
nodes by whoever reads it, a block of nodes at a time: ``norms`` gives the
weighted Sobolev norms, and the objective (``reduced.reduced_cost``) the
running cost int theta rho dx.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .controls import ControlPath, DriftSpec, drift_div_bound, drift_grad_bound
from .controls import eval_drift  # unused here; bench/calltrace.py wraps forward.eval_drift by name
from .errors import CflUnderflow, InvalidGrid, NonFinite
from .grid import GridSpec, ScalarField, TimeGrid, _block_nodes, is_count, is_finite_number
from .grid import weighted_sobolev_norm

__all__ = [
    "Checkpoints",
    "StateTrajectory",
    "EnergyCertificate",
    "solve_forward",
    "solve_linearized",
    "boundary_leak",
    "energy_certificate",
    "required_substeps",
    "check_solver",
]

# scheme -> stages per substep; a scheme of two stages reconstructs its face
# states with minmod-limited slopes
SCHEMES = {"upwind-fv": 1, "muscl-fv": 2}


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


def _check_cfl(cfl) -> None:
    if not (is_finite_number(cfl) and cfl > 0):
        raise ValueError(f"cfl must be a positive finite number, got {cfl!r}")


def check_solver(scheme, cfl, max_substeps) -> None:
    """The one rule for a solve's settings; ValueError names the argument."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {tuple(SCHEMES)}, got {scheme!r}")
    _check_cfl(cfl)
    if not (is_count(max_substeps) and max_substeps >= 1):
        raise ValueError(f"max_substeps must be an integer >= 1, got {max_substeps!r}")


class _Faces:
    """Left/right states of one field at the faces along axis 0 of its
    axis-first cells, with zero ghosts (inflow carries nothing in, outflow
    uses the interior reconstruction); the buffers and their ghost faces are
    written once per sweep."""

    def __init__(self, cells: tuple, scheme: str):
        face = (cells[0] + 1,) + cells[1:]
        self.left, self.right = np.empty(face), np.empty(face)
        self.left[0] = self.right[-1] = 0.0
        self._left, self._right = self.left[1:], self.right[:-1]
        self.limited = SCHEMES[scheme] > 1
        if self.limited:
            # half the limited slope; the boundary cells' slopes stay 0
            self._half = np.zeros(cells)
            self._slope = self._half[1:-1]
            diffs = (cells[0] - 1,) + cells[1:]
            dm, mag = np.empty(diffs), np.empty(diffs)
            self._dm, self._dm_lo, self._dm_hi = dm, dm[:-1], dm[1:]
            self._mag, self._mag_lo, self._mag_hi = mag, mag[:-1], mag[1:]
            self._pos = np.empty(self._slope.shape, dtype=bool)

    def fill(self, vm: np.ndarray) -> None:
        if not self.limited:
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
    """The scratch arrays of one axis for one sweep, axis first: the face
    states of the density (and of the tangent), the flux and its first
    difference; the axis's index ``ax``, cell width ``h`` and transverse
    area, and the views of the face-speed splits at the sweep's current
    table row (``_Sweep.splits``)."""

    def __init__(self, cells: tuple, scheme: str, tangent: bool, ax: int, h: float, transverse: float):
        face = (cells[0] + 1,) + cells[1:]
        self.ax, self.h, self.transverse = ax, h, transverse
        self.faces = _Faces(cells, scheme)
        self.w_faces = _Faces(cells, scheme) if tangent else None
        self.F, self._scratch, self._dF = np.empty(face), np.empty(face), np.empty(cells)
        self._F_hi, self._F_lo = self.F[1:], self.F[:-1]
        self.ap = self.am = self.up = self.da = None

    def take(self, tables: list, i: int) -> None:
        """Hold row i of the axis's split tables: a+, a- and, with a
        tangent, the mask a >= 0 and the tangent's face speeds."""
        self.ap, self.am = tables[0][i], tables[1][i]
        if self.w_faces is not None:
            self.up, self.da = tables[2][i], tables[3][i]

    def flux(self, left, right) -> np.ndarray:
        """F = ap * left + am * right."""
        np.multiply(self.ap, left, out=self.F)
        np.multiply(self.am, right, out=self._scratch)
        return np.add(self.F, self._scratch, out=self.F)

    def tangent_flux(self) -> np.ndarray:
        """F = ap * wl + am * wr + da * rho_up, rho_up taken from the
        density's face states on the side a >= 0 points to."""
        self.flux(self.w_faces.left, self.w_faces.right)
        np.multiply(self.da, np.where(self.up, self.faces.left, self.faces.right), out=self._scratch)
        return np.add(self.F, self._scratch, out=self.F)

    def add_difference(self, div_ax: np.ndarray) -> None:
        """div_ax += (F[1:] - F[:-1]) / h, onto a zero divergence on the
        first axis (0.0 + x, which turns -0.0 into +0.0)."""
        np.subtract(self._F_hi, self._F_lo, out=self._dF)
        np.divide(self._dF, self.h, out=self._dF)
        np.add(self._dF, 0.0 if self.ax == 0 else div_ax, out=div_ax)


def _column(u: np.ndarray, ax: int, like: np.ndarray) -> np.ndarray:
    """Component ax of control rows u, shaped to broadcast over rows of ``like``."""
    return u[..., ax].reshape(u.shape[:-1] + (1,) * like.ndim)


class _Stepper:
    """The constants of one solve: grid, drift, the source and its mass per
    unit time, and a0 and x at the faces of each axis (stored with that axis
    first).  ``plan`` reads the solve's substep plan from the same face
    values; a sweep over the control table of its stage times is a
    ``_Sweep``."""

    def __init__(self, grid, drift, source):
        self.grid = grid
        self.drift = drift
        self.source = source
        self.source_rate = 0.0 if source is None else float(source.sum() * grid.cell_volume)
        self.h = grid.h
        self.transverse = [grid.cell_volume / h for h in self.h]
        self.a0_faces, self.x_faces = [], []
        for ax in range(grid.dim):
            pts = _face_points(grid, ax)
            a0 = drift.a0.eval(pts.reshape(-1, grid.dim))[:, ax].reshape(pts.shape[:-1])
            self.a0_faces.append(np.ascontiguousarray(np.swapaxes(a0, 0, ax)))
            self.x_faces.append(np.ascontiguousarray(np.swapaxes(pts[..., ax], 0, ax)))
        self.faces = sum(a0.size for a0 in self.a0_faces)  # over all axes

    def face_speeds(self, u1, u2, out=None) -> list[np.ndarray]:
        """a_axis at the faces of each axis, axis first, at control rows u1
        and u2 (one row, or rows on a leading axis), summed in eval_drift's
        order: (a0 + u1) + x * u2.  ``out`` holds per axis the array for a
        and one for x * u2, or None to allocate them."""
        speeds = []
        for ax, (a0, x, (a, xu2)) in enumerate(zip(self.a0_faces, self.x_faces, out or [(None, None)] * len(self.h))):
            a = np.add(a0, _column(u1, ax, a0), out=a)
            speeds.append(np.add(a, np.multiply(x, _column(u2, ax, x), out=xu2), out=a))
        return speeds

    def face_speed_deltas(self, du1, du2, out=None) -> list[np.ndarray]:
        """du1 + x * du2 at the faces of a tangent control's rows, as
        face_speeds; ``out`` holds one array per axis, or is None."""
        return [
            np.add(_column(du1, ax, x), np.multiply(x, _column(du2, ax, x), out=da), out=da)
            for ax, (x, da) in enumerate(zip(self.x_faces, out or [None] * len(self.h)))
        ]

    def plan(self, timegrid: TimeGrid, cfl: float) -> list[int]:
        """Per-step substep counts from the Courant number at the step ends:
        at each node, the sum over axes of max |a_axis| / h_axis, read from
        the face speeds of a block of nodes at a time."""
        dt, nodes = timegrid.dt, timegrid.nt + 1
        u1, u2 = self.drift.control.value_at(np.arange(nodes) * dt)
        size, speed = _block_nodes(2 * self.faces), np.zeros(nodes)
        for lo in range(0, nodes, size):
            rows = slice(lo, lo + size)
            for a, h in zip(self.face_speeds(u1[rows], u2[rows]), self.h):
                speed[rows] += np.abs(a).reshape(len(a), -1).max(axis=1) / h
        return [max(1, int(math.ceil(dt * max(a, b) / cfl))) for a, b in zip(speed, speed[1:])]


class _Sweep:
    """The scratch state of one solve's sweep, made when the solve starts
    and dropped with it: the control (and the tangent control) looked up in
    one array pass at each distinct stage time of ``times``, stage k reading
    row ``row[k]``, shared with the stage before when their times are
    bit-equal; each axis's scratch arrays; the divergence of each stage and
    the forward Euler stage (for the density and, with a tangent, for the
    tangent); the face-speed splits of a block of table rows, whose views
    at the last row a stage read (``_row``) the axes hold; and two buffers
    each for the new values and the new tangent values."""

    def __init__(self, stepper: _Stepper, scheme: str, times: np.ndarray, tangent_control: ControlPath | None):
        shape, tangent = stepper.grid.shape, tangent_control is not None
        distinct = np.r_[True, times[1:] != times[:-1]]
        self.row = (np.cumsum(distinct) - 1).tolist()
        times = times[distinct]
        self.stepper, self.stages, self.end_row = stepper, SCHEMES[scheme], len(times)
        self.controls = stepper.drift.control.value_at(times)
        self.deltas = tangent_control.value_at(times) if tangent else None
        self.axes = []
        for ax in range(len(shape)):
            cells = list(shape)
            cells[0], cells[ax] = cells[ax], cells[0]
            self.axes.append(_Axis(tuple(cells), scheme, tangent, ax, stepper.h[ax], stepper.transverse[ax]))
        stages = range(self.stages)
        self.div = [np.empty(shape) for _ in stages]
        self.div_w = [np.empty(shape) if tangent else None for _ in stages]
        # the stages after the first: (i, its divergence, its tangent's)
        self._later = [(i, self.div[i], self.div_w[i]) for i in stages[1:]]
        self.stage = np.empty(shape)
        self.stage_w = np.empty(shape) if tangent else None
        self.new = (np.empty(shape), np.empty(shape))
        self.new_w = (np.empty(shape), np.empty(shape)) if tangent else None
        # a block's float tables (a+ and a-, and the tangent's face speeds)
        # hold about _BLOCK_POINTS values in all
        self._rows = _block_nodes((3 if tangent else 2) * stepper.faces)
        self._tables = []
        for a0 in stepper.a0_faces:
            block = (min(self._rows, self.end_row),) + a0.shape
            mask_and_deltas = [np.empty(block, dtype=bool), np.empty(block)] if tangent else []
            self._tables.append([np.empty(block), np.empty(block)] + mask_and_deltas)
        self._block = (0, 0, None)
        self._row = -1

    def splits(self, k: int) -> list[_Axis]:
        """The axes, each holding its views at stage k's table row of a+ =
        max(a, 0), a- = min(a, 0) and, with a tangent, the mask a >= 0 and
        the tangent's face speeds (``_Axis.take``).  The views are kept
        until a stage reads another row; the splits are tabulated for a
        block of rows from that row on when it is outside the current
        block."""
        row = self.row[k]
        if row != self._row:
            lo, hi, tables = self._block
            if not lo <= row < hi:
                lo, hi, tables = self._block = self._tabulate(row)
            self._row = row
            for axis, axis_tables in zip(self.axes, tables):
                axis.take(axis_tables, row - lo)
        return self.axes

    def _tabulate(self, lo: int):
        """The splits of table rows lo.. up to a block's or the table's end,
        written into the sweep's block arrays."""
        stepper = self.stepper
        hi = min(lo + len(self._tables[0][0]), self.end_row)
        tables = [[table[: hi - lo] for table in axis] for axis in self._tables]
        # am holds x * u2 until a is complete
        speeds = stepper.face_speeds(*(u[lo:hi] for u in self.controls), [axis[:2] for axis in tables])
        tangent = self.deltas is not None
        if tangent:
            stepper.face_speed_deltas(*(du[lo:hi] for du in self.deltas), [axis[3] for axis in tables])
        for a, axis in zip(speeds, tables):
            if tangent:
                np.greater_equal(a, 0.0, out=axis[2])
            np.minimum(a, 0.0, out=axis[1])
            np.maximum(a, 0.0, out=axis[0])
        return lo, hi, tables

    def divergence(self, k, values, div, w_values=None, div_w=None) -> float:
        """Flux divergence of values (and of the tangent pair, if any) at
        stage k's table row, written into div (and div_w); returns the
        boundary mass outflow rate.  Each axis works on axis-first views,
        the arrays themselves on axis 0."""
        out_rate = 0.0
        for axis in self.splits(k):
            ax, faces = axis.ax, axis.faces
            faces.fill(values.swapaxes(0, ax) if ax else values)
            F = axis.flux(faces.left, faces.right)
            axis.add_difference(div.swapaxes(0, ax) if ax else div)
            if F.ndim == 1:
                # sum() of a numpy scalar would add it to +0.0, which changes
                # only the sign of a zero; out_rate starts at 0.0 and erases it
                out_rate += (F.item(-1) - F.item(0)) * axis.transverse
            else:
                out_rate += float((F[-1].sum() - F[0].sum()) * axis.transverse)
            if w_values is not None:
                axis.w_faces.fill(w_values.swapaxes(0, ax) if ax else w_values)
                axis.tangent_flux()
                axis.add_difference(div_w.swapaxes(0, ax) if ax else div_w)
        return out_rate

    def advance(self, values, dt, k, w_values=None):
        """Advance one (sub)step of length dt: stage i reads stage k + i's
        table row, the first at the values, the second (MUSCL's) at the
        forward Euler stage from them, and the update subtracts dt / stages
        times the sum of the stage divergences, as the outflow mass sums
        their outflow rates.  Returns new values and new tangent values, each written into
        the one of the sweep's two buffers that does not hold the input, so
        they stay valid until the next call but one; and the boundary
        outflow mass and the injected source mass."""
        stepper = self.stepper
        source, scale = stepper.source, dt / self.stages
        div, div_w = self.div[0], self.div_w[0]
        rate = self.divergence(k, values, div, w_values, div_w)
        for i, div_i, div_w_i in self._later:
            stage = np.subtract(values, np.multiply(div, dt, out=self.stage), out=self.stage)
            if source is not None:
                stage += dt * source
            stage_w = None
            if w_values is not None:
                stage_w = np.subtract(w_values, np.multiply(div_w, dt, out=self.stage_w), out=self.stage_w)
            rate += self.divergence(k + i, stage, div_i, stage_w, div_w_i)
            div += div_i
            if w_values is not None:
                div_w += div_w_i
        new = np.subtract(values, np.multiply(div, scale, out=div), out=_other(self.new, values))
        if source is not None:
            new += dt * source
        new_w = None
        if w_values is not None:
            new_w = np.subtract(w_values, np.multiply(div_w, scale, out=div_w), out=_other(self.new_w, w_values))
        return new, new_w, scale * rate, stepper.source_rate * dt


def _other(buffers: tuple, held: np.ndarray) -> np.ndarray:
    """The one of two buffers that is not ``held``."""
    return buffers[buffers[0] is held]


@dataclass
class Checkpoints:
    """Every time node 0..nt of a solve: row n of ``nodes`` holds node n.
    ``snapshot_steps`` names them (the benchmark's call tracer reads it)."""

    timegrid: TimeGrid
    grid: GridSpec
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.nodes = np.empty((self.timegrid.nt + 1, *self.grid.shape))

    @property
    def snapshot_steps(self) -> list[int]:
        return list(range(len(self.nodes)))

    def norms(self, m: int, k: int) -> np.ndarray:
        """The weighted H^m_k norm at nodes 0..nt (H^0_0 is the L2 norm), a
        block of ``grid._block_nodes`` nodes at a time, each with the bits of
        the node's own norm."""
        size, nodes = _block_nodes(self.grid.num_cells), self.nodes
        blocks = (ScalarField(self.grid, nodes[lo:lo + size]) for lo in range(0, len(nodes), size))
        return np.concatenate([weighted_sobolev_norm(block, m, k) for block in blocks])


@dataclass(kw_only=True)
class StateTrajectory(Checkpoints):
    """Checkpoints plus a forward solve's ``mass``, injected ``source_mass``
    and ``boundary_outflux`` at every node 0..nt, and its plan and
    settings."""

    mass: np.ndarray
    substeps: list[int]
    source_mass: np.ndarray
    boundary_outflux: np.ndarray
    scheme: str
    cfl: float


def required_substeps(grid: GridSpec, drift: DriftSpec, timegrid: TimeGrid, cfl: float) -> list[int]:
    """Per-step substep counts from the Courant number at the step ends, as
    planned by a solve (``_Stepper.plan``) on a stepper of its own; the
    scheme does not enter."""
    _check_cfl(cfl)
    return _Stepper(grid, drift, None).plan(timegrid, cfl)


def _solve(
    rho0: ScalarField,
    drift: DriftSpec,
    source,
    timegrid: TimeGrid,
    scheme: str,
    cfl: float,
    max_substeps: int,
    fixed_substeps,
    tangent_control: ControlPath | None,
):
    check_solver(scheme, cfl, max_substeps)
    if fixed_substeps is not None and not (
        np.ndim(fixed_substeps) == 1 and len(fixed_substeps) == timegrid.nt
        and all(is_count(v) and v >= 1 for v in fixed_substeps)
    ):
        raise ValueError(f"fixed_substeps must be {timegrid.nt} integers >= 1, one per step")
    grid = rho0.grid
    if source is not None:
        source = np.asarray(source)
        if source.shape != grid.shape:
            raise InvalidGrid(f"source must be an array of the grid's shape {grid.shape}, got {source.shape}")
    stepper = _Stepper(grid, drift, source)
    dt = timegrid.dt
    nt = timegrid.nt

    if fixed_substeps is None:
        plan = stepper.plan(timegrid, cfl)
    else:
        plan = [int(v) for v in fixed_substeps]
    worst = max(plan)
    if worst > max_substeps:
        raise CflUnderflow(
            f"step needs {worst} substeps, above the cap {max_substeps}; "
            "shrink dt or enlarge the cap"
        )

    # the stage times of every substep, n * dt + j * h plus i * h at stage i
    # (MUSCL's second stage is at the substep's end), tabulated once at
    # each distinct time; substep j of step n starts at stage
    # (first[n] + j) * stages
    stages = SCHEMES[scheme]
    first = np.cumsum([0] + plan).tolist()
    step_of = np.repeat(np.arange(nt), plan)
    h_sub = (dt / np.asarray(plan, dtype=float))[step_of]
    t_sub = step_of * dt + (np.arange(step_of.size) - np.repeat(first[:-1], plan)) * h_sub
    run = _Sweep(stepper, scheme, np.column_stack([t_sub + i * h_sub for i in range(stages)]).ravel(), tangent_control)

    vol = grid.cell_volume
    traj = StateTrajectory(
        timegrid, grid, mass=np.zeros(nt + 1), substeps=plan,
        source_mass=np.zeros(nt + 1), boundary_outflux=np.zeros(nt + 1), scheme=scheme, cfl=cfl,
    )
    w_traj = Checkpoints(timegrid, grid) if tangent_control is not None else None
    values = rho0.values
    w_values = None if w_traj is None else np.zeros_like(values)
    traj.nodes[0], traj.mass[0] = values, values.sum() * vol
    if w_traj is not None:
        w_traj.nodes[0] = w_values
    for n in range(1, nt + 1):
        h = dt / plan[n - 1]
        out_m = src_m = 0.0
        for j in range(plan[n - 1]):
            values, w_values, out_j, src_j = run.advance(values, h, (first[n - 1] + j) * stages, w_values)
            out_m += out_j
            src_m += src_j
        total = values.sum()
        # a finite sum proves every value finite
        if not math.isfinite(total) and not np.all(np.isfinite(values)):
            raise NonFinite(f"solution lost finiteness at step {n}")
        traj.nodes[n], traj.mass[n] = values, total * vol
        if w_traj is not None:
            w_traj.nodes[n] = w_values
        traj.source_mass[n] = traj.source_mass[n - 1] + src_m
        traj.boundary_outflux[n] = traj.boundary_outflux[n - 1] + out_m
    return traj if w_traj is None else (traj, w_traj)


def solve_forward(
    rho0: ScalarField,
    drift: DriftSpec,
    source,
    timegrid: TimeGrid,
    scheme: str = "upwind-fv",
    cfl: float = 0.9,
    max_substeps: int = 4096,
    fixed_substeps=None,
) -> StateTrajectory:
    """Integrate the density forward from rho0 under the controlled drift.

    ``source`` is None or the cell values of a source constant in time, an
    array of the grid's shape (else InvalidGrid).  ``fixed_substeps`` is None
    (the plan from the Courant number) or the substeps of each step.
    """
    return _solve(rho0, drift, source, timegrid, scheme, cfl, max_substeps, fixed_substeps, tangent_control=None)


def solve_linearized(
    rho0: ScalarField,
    drift: DriftSpec,
    delta_control: ControlPath,
    source,
    timegrid: TimeGrid,
    scheme: str = "upwind-fv",
    cfl: float = 0.9,
    max_substeps: int = 4096,
    fixed_substeps=None,
):
    """Co-evolve the density and its derivative with respect to a control
    perturbation (the linearized transport problem with source
    -div((du1 + x du2) rho), discretized through the scheme's own flux).

    Returns (state trajectory, tangent checkpoints) with matched substeps.
    The state trajectory has the bits of ``solve_forward`` at the same plan.
    """
    return _solve(rho0, drift, source, timegrid, scheme, cfl, max_substeps, fixed_substeps, tangent_control=delta_control)


def boundary_leak(trajectory: StateTrajectory) -> float:
    """|mass(T) - mass(0) - injected source mass| from stored diagnostics."""
    return float(
        abs(trajectory.mass[-1] - trajectory.mass[0] - trajectory.source_mass[-1])
    )


@dataclass
class EnergyCertificate:
    """Per-step check of the discrete Gronwall recursion
    N_{n+1} <= (1 + C dt r_n) N_n + dt s_n  with r_n the discrete drift
    regularity factor and s_n the source norm, over every step at once."""

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
        # a step that grows with no room to grow (denom <= 0) needs C = inf
        growth, denom = after - before - dt * s, dt * r * before
        growth, denom = growth[growth > 0.0], denom[growth > 0.0]
        fitted = math.inf if np.any(denom <= 0.0) else float(np.max(growth / denom, initial=0.0))
        return cls(m=m, k=k, lhs=after, rhs=rhs, fitted_C=fitted, C_cert=C_cert, passed=passed)


def energy_certificate(
    trajectory: StateTrajectory,
    drift: DriftSpec,
    source,
    m: int,
    k: int,
    C_cert: float = 2.0,
) -> EnergyCertificate:
    """Certify the weighted-norm growth of a stored run, whose H^m_k norms
    are read from its checkpoints (``Checkpoints.norms``).

    For m = 0 the drift factor is the sup of |div a|; for m >= 1 it is the
    discrete C^m_b norm of grad a; both are tabulated at the step starts in
    one call.  ``source`` is the solve's: None or cell values constant in
    time, so its norm is the same at every step.  The smallest feasible
    constant is reported alongside the pass flag at the configured C_cert.
    """
    grid, tg = trajectory.grid, trajectory.timegrid
    t = np.arange(tg.nt) * tg.dt
    r = drift_div_bound(drift, t, grid) if m == 0 else drift_grad_bound(drift, t, grid, m)
    s = np.full(tg.nt, 0.0 if source is None else weighted_sobolev_norm(ScalarField(grid, source), m, k))
    norms = trajectory.norms(m, k)
    return EnergyCertificate.check(m, k, norms[:-1], norms[1:], r, s, tg.dt, C_cert)
