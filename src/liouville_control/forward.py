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
table, of (K, d) arrays.

Schemes: first-order upwind (monotone, the default) and a minmod-limited
MUSCL variant advanced with two-stage SSP time stepping for accuracy
studies.  A tangent mode co-evolves the density with its linearization with
respect to a control perturbation; it differentiates the discrete flux
directly, which is what the regularity probes need.

``Checkpoints`` is the one store for the forward, tangent and adjoint
trajectories (stride checkpointing with deterministic replay, as in
Griewank & Walther's revolve, without its binomial schedule).  Solves record
no weighted Sobolev norm; ``norm_history`` computes one from the checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Callable

import numpy as np

from .controls import ControlPath, DriftSpec, drift_div_bound, drift_grad_bound
from .controls import eval_drift  # unused here; bench/calltrace.py wraps forward.eval_drift by name
from .errors import CflUnderflow, NonFinite
from .grid import GridSpec, ScalarField, TimeGrid, weighted_sobolev_norm

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


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def _face_states(vm: np.ndarray, scheme: str):
    """Left/right states at the faces along axis 0 of vm, with zero ghosts
    (inflow carries nothing in, outflow uses the interior reconstruction)."""
    shape = (vm.shape[0] + 1,) + vm.shape[1:]
    left, right = np.empty(shape), np.empty(shape)
    left[0] = right[-1] = 0.0
    if scheme == "upwind-fv":
        left[1:] = vm
        right[:-1] = vm
        return left, right
    # half the limited slope; the boundary cells' slopes are 0
    half = np.empty_like(vm)
    half[0] = half[-1] = 0.0
    dm = vm[1:] - vm[:-1]
    half[1:-1] = 0.5 * _minmod(dm[:-1], dm[1:])
    np.add(vm, half, out=left[1:])
    np.subtract(vm, half, out=right[:-1])
    return left, right


class _Stepper:
    """One-step FV advance bound to a grid, drift, source, and scheme; a0
    at the faces of each axis is evaluated here, stored with that axis first."""

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

    def look_up(self, times: np.ndarray) -> None:
        """Tabulate the control, and the tangent control if any, at every
        time of ``times`` in one pass; row k serves stage k."""
        self.controls = self.drift.control.value_at(times)
        if self.tangent_control is not None:
            self.deltas = self.tangent_control.value_at(times)

    def face_speeds(self, k: int) -> list[np.ndarray]:
        """a_axis at the faces of each axis, axis first, at table row k,
        summed in eval_drift's order: (a0 + u1) + x * u2."""
        u1, u2 = self.controls[0][k], self.controls[1][k]
        return [(a0 + u1[ax]) + x * u2[ax] for ax, (a0, x) in enumerate(zip(self.a0_faces, self.x_faces))]

    def face_speed_deltas(self, k: int) -> list[np.ndarray]:
        """The tangent control's du1 + x * du2 at the faces, as face_speeds."""
        du1, du2 = self.deltas[0][k], self.deltas[1][k]
        return [du1[ax] + x * du2[ax] for ax, x in enumerate(self.x_faces)]

    def max_speed(self, k: int) -> float:
        """Sum over axes of max |a_axis| / h_axis at table row k, for the
        Courant number."""
        return sum(float(np.abs(a).max()) / h for a, h in zip(self.face_speeds(k), self.h))

    def _divergence(self, k, values, w_values):
        """Flux divergence of values (and of the tangent pair, if any) at
        table row k; also returns the boundary mass outflow rate.  Each axis
        works on axis-first views; ``swapaxes`` is a no-op view on axis 0."""
        div = np.zeros_like(values)
        div_w = np.zeros_like(values) if w_values is not None else None
        out_rate = 0.0
        speeds = self.face_speeds(k)
        deltas = self.face_speed_deltas(k) if w_values is not None else None
        for ax, a in enumerate(speeds):
            left, right = _face_states(np.swapaxes(values, 0, ax), self.scheme)
            ap = np.maximum(a, 0.0)
            am = np.minimum(a, 0.0)
            F = ap * left + am * right
            div_ax = np.swapaxes(div, 0, ax)
            div_ax += (F[1:] - F[:-1]) / self.h[ax]
            out_rate += float((F[-1].sum() - F[0].sum()) * self.transverse[ax])
            if w_values is not None:
                wl, wr = _face_states(np.swapaxes(w_values, 0, ax), self.scheme)
                rho_up = np.where(a >= 0.0, left, right)
                Fw = ap * wl + am * wr + deltas[ax] * rho_up
                div_w_ax = np.swapaxes(div_w, 0, ax)
                div_w_ax += (Fw[1:] - Fw[:-1]) / self.h[ax]
        return div, div_w, out_rate

    def advance(self, values, t, dt, k, w_values=None):
        """Advance one (sub)step from time t, whose first stage reads table
        row k (MUSCL's second stage, at t + dt, row k + 1); returns new
        values, new tangent values, boundary outflow mass, and injected
        source mass."""
        grid = self.grid
        if self.scheme == "upwind-fv":
            div, div_w, out_rate = self._divergence(k, values, w_values)
            new = values - dt * div
            src_mass = 0.0
            if self.g_eval is not None:
                gmid = self.g_eval(t + 0.5 * dt)
                new = new + dt * gmid
                src_mass = float(gmid.sum() * grid.cell_volume) * dt
            new_w = None
            if w_values is not None:
                new_w = w_values - dt * div_w
            return new, new_w, out_rate * dt, src_mass
        # muscl-fv: two-stage SSP update
        div1, divw1, rate1 = self._divergence(k, values, w_values)
        g1 = self.g_eval(t) if self.g_eval is not None else None
        stage = values - dt * div1 + (dt * g1 if g1 is not None else 0.0)
        stage_w = w_values - dt * divw1 if w_values is not None else None
        div2, divw2, rate2 = self._divergence(k + 1, stage, stage_w)
        g2 = self.g_eval(t + dt) if self.g_eval is not None else None
        new = values - 0.5 * dt * (div1 + div2)
        src_mass = 0.0
        if g1 is not None:
            new = new + 0.5 * dt * (g1 + g2)
            src_mass = 0.5 * dt * float((g1 + g2).sum() * grid.cell_volume)
        new_w = None
        if w_values is not None:
            new_w = w_values - 0.5 * dt * (divw1 + divw2)
        return new, new_w, 0.5 * dt * (rate1 + rate2), src_mass


@dataclass
class Checkpoints:
    """Node 0, node nt and every ``stride``-th time node of a solve.

    Any other node is replayed, bit-exactly, from the stored node the solve
    passed last by the solve's own step: ``step(values, n)`` gives the node
    after n in the solve's direction.  Without a step (the tangent) only
    the stored nodes are available.
    """

    timegrid: TimeGrid
    grid: GridSpec
    stride: int
    step: Callable | None = field(default=None, repr=False)
    backward: bool = False
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
        for n in range(start, stop, 1 if stop > start else -1):
            vals = self.step(vals, n)
            yield vals

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
    """Checkpoints plus per-step diagnostics of a forward solve."""

    mass: np.ndarray
    min_value: np.ndarray
    l2: np.ndarray
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
        timegrid, grid, stride, lambda vals, n: full_step(vals, n)[0],
        mass=np.zeros(nt + 1), min_value=np.zeros(nt + 1), l2=np.zeros(nt + 1), substeps=plan,
        source_mass=np.zeros(nt + 1), boundary_outflux=np.zeros(nt + 1), scheme=scheme, cfl=cfl,
    )
    w_traj = Checkpoints(timegrid, grid, stride) if tangent_control is not None else None

    def record(n, vals, w_vals):
        traj.mass[n] = vals.sum() * vol
        traj.min_value[n] = vals.min()
        traj.l2[n] = math.sqrt(float((vals * vals).sum() * vol))
        traj.keep(n, vals)
        if w_traj is not None:
            w_traj.keep(n, w_vals)

    record(0, values, w_values)
    for n in range(nt):
        values, w_values, out_m, src_m = full_step(values, n, w_values)
        if not np.all(np.isfinite(values)):
            raise NonFinite(f"solution lost finiteness at step {n + 1}")
        record(n + 1, values, w_values)
        traj.source_mass[n + 1] = traj.source_mass[n] + src_m
        traj.boundary_outflux[n + 1] = traj.boundary_outflux[n] + out_m

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
) -> StateTrajectory:
    """Integrate the density forward from rho0 under the controlled drift.

    ``g_eval`` is None or a callable t -> source values on the grid.
    """
    return _solve(
        rho0, drift, g_eval, timegrid, scheme, cfl, stride, max_substeps, fixed_substeps,
        tangent_control=None,
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
