"""Conservative finite-volume integration of the density transport equation
d rho / dt + div(a rho) = g, plus runtime conservation and energy
certificates.

The update is in flux form, so interior mass changes by exactly the net
boundary flux.  Boundary handling: outflow faces take the upwind interior
value, inflow faces carry zero flux (equivalently, ghost cells hold zero for
the upwind gather).  The drift grows linearly in x, so the time step is
subdivided per step to keep the Courant number below the configured cap.

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

from .controls import ControlPath, DriftSpec, drift_div_bound, drift_grad_bound, eval_drift
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
    zero = np.zeros_like(vm[:1])
    if scheme == "upwind-fv":
        left = np.concatenate([zero, vm], axis=0)
        right = np.concatenate([vm, zero], axis=0)
        return left, right
    dm = np.diff(vm, axis=0)
    dminus = np.concatenate([zero, dm], axis=0)
    dplus = np.concatenate([dm, zero], axis=0)
    s = _minmod(dminus, dplus)
    left = np.concatenate([zero, vm + 0.5 * s], axis=0)
    right = np.concatenate([vm - 0.5 * s, zero], axis=0)
    return left, right


class _Stepper:
    """One-step FV advance bound to a grid, drift, source, and scheme."""

    def __init__(self, grid, drift, g_eval, scheme, tangent_control: ControlPath | None = None):
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        self.grid = grid
        self.drift = drift
        self.g_eval = g_eval
        self.scheme = scheme
        self.tangent_control = tangent_control
        self.face_pts = [_face_points(grid, ax) for ax in range(grid.dim)]

    def face_speed(self, t: float, axis: int) -> np.ndarray:
        pts = self.face_pts[axis]
        a = eval_drift(self.drift, t, pts.reshape(-1, self.grid.dim))
        return a[:, axis].reshape(pts.shape[:-1])

    def face_speed_delta(self, t: float, axis: int) -> np.ndarray:
        du1, du2 = self.tangent_control.value_at(t)
        pts = self.face_pts[axis]
        da = du1[axis] + pts[..., axis] * du2[axis]
        return da

    def max_speed(self, t: float) -> float:
        """Sum over axes of max |a_axis| / h_axis, for the Courant number."""
        total = 0.0
        for ax in range(self.grid.dim):
            total += float(np.abs(self.face_speed(t, ax)).max()) / self.grid.h[ax]
        return total

    def _divergence(self, t, values, w_values):
        """Flux divergence of values (and of the tangent pair, if any);
        also returns the boundary mass outflow rate."""
        grid = self.grid
        div = np.zeros_like(values)
        div_w = np.zeros_like(values) if w_values is not None else None
        out_rate = 0.0
        for ax in range(grid.dim):
            a = np.moveaxis(self.face_speed(t, ax), ax, 0)
            vm = np.moveaxis(values, ax, 0)
            left, right = _face_states(vm, self.scheme)
            ap = np.maximum(a, 0.0)
            am = np.minimum(a, 0.0)
            F = ap * left + am * right
            div += np.moveaxis(np.diff(F, axis=0), 0, ax) / grid.h[ax]
            transverse = grid.cell_volume / grid.h[ax]
            out_rate += float((F[-1].sum() - F[0].sum()) * transverse)
            if w_values is not None:
                wm = np.moveaxis(w_values, ax, 0)
                wl, wr = _face_states(wm, self.scheme)
                da = np.moveaxis(self.face_speed_delta(t, ax), ax, 0)
                rho_up = np.where(a >= 0.0, left, right)
                Fw = ap * wl + am * wr + da * rho_up
                div_w += np.moveaxis(np.diff(Fw, axis=0), 0, ax) / grid.h[ax]
        return div, div_w, out_rate

    def advance(self, values, t, dt, w_values=None):
        """Advance one (sub)step; returns new values, new tangent values,
        boundary outflow mass, and injected source mass."""
        grid = self.grid
        if self.scheme == "upwind-fv":
            div, div_w, out_rate = self._divergence(t, values, w_values)
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
        div1, divw1, rate1 = self._divergence(t, values, w_values)
        g1 = self.g_eval(t) if self.g_eval is not None else None
        stage = values - dt * div1 + (dt * g1 if g1 is not None else 0.0)
        stage_w = w_values - dt * divw1 if w_values is not None else None
        div2, divw2, rate2 = self._divergence(t + dt, stage, stage_w)
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


def required_substeps(
    stepper: _Stepper, timegrid: TimeGrid, cfl: float, extra_margin: float = 0.0
) -> list[int]:
    """Per-step substep counts from the Courant number at the step ends."""
    dt = timegrid.dt
    out = []
    for n in range(timegrid.nt):
        speed = max(stepper.max_speed(n * dt), stepper.max_speed((n + 1) * dt)) + extra_margin
        out.append(max(1, int(math.ceil(dt * speed / cfl))))
    return out


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

    def full_step(vals, n, w_vals=None):
        """Node n to n + 1, with the tangent and the step's boundary outflow
        and injected source masses."""
        h = dt / plan[n]
        out_acc = src_acc = 0.0
        for j in range(plan[n]):
            vals, w_vals, out_m, src_m = stepper.advance(vals, n * dt + j * h, h, w_vals)
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
