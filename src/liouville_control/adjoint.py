"""Backward semi-Lagrangian solution of the adjoint transport problem
-dq/dt - a . grad q = -theta with terminal state q(T) = -phi.

Along a characteristic of the drift, dq/dt = theta, so one step back in
time reads q(t_n, x) = q(t_{n+1}, X) - dt * theta(midpoint), where X is the
characteristic foot advanced by a single RK4 step.  The scheme needs no CFL
restriction and reuses the forward time grid.

Quadratically growing data (the confining case theta = phi = |x|^2) never
get represented on the grid beyond the box: when a characteristic foot
leaves the span of cell centres, its value is continued analytically by
marching the characteristic to the final time and reading the terminal
potential there, accumulating the running cost on the way.  The feet and
their continued values depend only on the control, so they are computed
once per solve, before the backward pass.  The cell-centre feet are traced
for a block of steps at a time (about 16,384 points, see
``grid._BLOCK_POINTS``), one RK4 step on the block's copies of the
centres with each copy at its own time; then every escaped foot of every
step is marched in one forward sweep, each joining the batch at its own
step.
The feet of every step are kept (nt * N * d floats for N cells in d
dimensions), so neither the backward pass nor a replay traces them again.
The running-cost term of a step, dt * theta at the midpoints between the
centres and their feet, is tabulated from the stored feet for a block of
steps (about ``grid._BLOCK_POINTS`` values) down from the first step that
needs it, in one ``potential_eval`` call; the block is dropped when the
backward pass or a replay ends.
Interpolated values are clipped to the local stencil range, which keeps the
discrete maximum principle.

The backward pass keeps its nodes in the forward solver's ``Checkpoints``
store, which replays any other node backward from the checkpoint above it
with the same step and the same stored feet.
A solve records the L2 norm per node; the negative-weight norm of the
confining case is computed from the checkpoints by whoever reports it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .controls import CostSpec, DriftSpec, Potential, drift_grad_bound, eval_drift, potential_eval
from .errors import CharacteristicEscape
from .forward import Checkpoints, EnergyCertificate
from .grid import GridSpec, ScalarField, TimeGrid, _block_nodes, interpolate_flagged, weighted_sobolev_norm

__all__ = [
    "AdjointTrajectory",
    "solve_adjoint",
    "potential_eval",
    "sample_potential",
    "adjoint_energy_certificate",
    "confining_weight_index",
]


def confining_weight_index(dim: int) -> int:
    """Negative-weight exponent used for quadratic potentials: 3 + floor(d/2)."""
    return 3 + dim // 2


def sample_potential(grid: GridSpec, potential: Potential, t: float = 0.0) -> ScalarField:
    pts = grid.cell_centers()
    return ScalarField(grid, potential_eval(potential, pts, t).reshape(grid.shape))


@dataclass(kw_only=True)
class AdjointTrajectory(Checkpoints):
    """Checkpoints of the backward solve plus the L2 norm per node."""

    l2: np.ndarray


def _rk4_feet(drift: DriftSpec, t: float, dt: float, pts: np.ndarray) -> np.ndarray:
    k1 = eval_drift(drift, t, pts)
    k2 = eval_drift(drift, t + 0.5 * dt, pts + 0.5 * dt * k1)
    k3 = eval_drift(drift, t + 0.5 * dt, pts + 0.5 * dt * k2)
    k4 = eval_drift(drift, t + dt, pts + dt * k3)
    return pts + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _BackStepper:
    def __init__(
        self,
        grid: GridSpec,
        drift: DriftSpec,
        cost: CostSpec,
        timegrid: TimeGrid,
        escape_factor: float = 50.0,
    ):
        self.grid = grid
        self.drift = drift
        self.cost = cost
        self.dt = timegrid.dt
        self.nt = timegrid.nt
        self.centers = grid.cell_centers()
        self.escape_radius = escape_factor * max(
            abs(v) for v in (*grid.lo, *grid.hi)
        )
        # feet[n_next - 1] are the RK4 feet at t_{n_next} of the
        # characteristics through the cell centres at t_{n_next - 1}; the
        # backward pass and every replay read them from here
        self.feet, self.offgrid = self._continue_offgrid()
        self._rows = _block_nodes(grid.num_cells)
        self._running = None  # (lo, hi, running-cost terms of steps lo..hi-1)

    def release(self) -> None:
        """Drop the block of running-cost terms; the next step rebuilds it."""
        self._running = None

    def _running_term(self, k: int) -> np.ndarray:
        """The running-cost term of step k (t_k to t_{k+1}) at the cell
        centres, _theta_line_integral from the centres to their stored feet.
        The terms are tabulated for a block of steps down from k, the order
        of a backward pass or a replay, when k is outside the current
        block."""
        block = self._running
        if block is None or not block[0] <= k < block[1]:
            lo = max(0, k + 1 - self._rows)
            steps = np.arange(lo, k + 1)
            terms = self._theta_line_integral(steps * self.dt, self.dt, self.centers, self.feet[lo:k + 1])
            block = self._running = (lo, k + 1, terms)
        return block[2][k - block[0]]

    def _theta_line_integral(self, t0, dt: float, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
        """dt * theta at the midpoints of the segments x0 -> x1, at t0 + dt / 2;
        t0 is one time or one per leading row of x1 (see potential_eval)."""
        mid = 0.5 * (x0 + x1)
        return dt * potential_eval(self.cost.theta, mid, t0 + 0.5 * dt)

    def _outside_center_span(self, pts: np.ndarray) -> np.ndarray:
        # the interpolation stencil degrades in the outermost half cells, so
        # feet beyond the span of cell centers go to analytic continuation
        out = np.zeros(pts.shape[0], dtype=bool)
        for ax in range(self.grid.dim):
            h = self.grid.h[ax]
            out |= (pts[:, ax] < self.grid.lo[ax] + 0.5 * h) | (
                pts[:, ax] > self.grid.hi[ax] - 0.5 * h
            )
        return out

    def _continue_offgrid(self) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
        """The feet of every step, (nt, N, d), and the analytic continuation
        of every foot outside the span of cell centres:
        {n_next: (cell indices, q(t_{n_next}, feet))}.

        The feet of step n_next join one batch at time t_{n_next}; the batch
        is marched to T, accumulating the running cost, and the terminal
        potential is read there.  Each point sees the same per-point
        arithmetic as a march of its own, so the values do not depend on
        the batching.
        """
        cells_n, dim = self.grid.num_cells, self.grid.dim
        all_feet = np.empty((self.nt, cells_n, dim))
        cells, joined = [], []
        size = _block_nodes(cells_n)
        for lo in range(0, self.nt, size):
            # the feet of steps lo + 1 .. lo + B in one batch of B copies of
            # the centres, copy b starting at t_{lo + b}
            steps = np.arange(lo, min(lo + size, self.nt))
            batch = np.tile(self.centers, (steps.size, 1))
            feet = _rk4_feet(self.drift, steps * self.dt, self.dt, batch)
            if not np.all(np.isfinite(feet)):
                raise CharacteristicEscape("characteristic tracing produced non-finite feet")
            outside = self._outside_center_span(feet).reshape(steps.size, cells_n)
            feet = feet.reshape(steps.size, cells_n, dim)
            all_feet[lo:lo + steps.size] = feet
            for step_feet, step_out in zip(feet, outside):
                idx = np.flatnonzero(step_out)
                cells.append(idx)
                joined.append(step_feet[idx])
        # rows are ordered by the step their feet belong to, so the batch
        # active at time t_j, the feet of steps 1..j, is the prefix x[:ends[j]]
        ends = np.cumsum([0] + [idx.size for idx in cells])
        x = np.concatenate(joined)
        acc = np.zeros(x.shape[0])
        dt = self.dt
        for j in range(1, self.nt):
            m = ends[j]
            if m == 0:
                continue
            t0 = j * dt
            x_next = _rk4_feet(self.drift, t0, dt, x[:m])
            if not np.all(np.isfinite(x_next)) or np.any(
                np.abs(x_next).max(axis=-1) > self.escape_radius
            ):
                raise CharacteristicEscape(
                    "characteristic left the safety hull during analytic continuation"
                )
            acc[:m] += self._theta_line_integral(t0, dt, x[:m], x_next)
            x[:m] = x_next
        values = -potential_eval(self.cost.phi, x, self.nt * dt) - acc
        return all_feet, {n: (cells[n - 1], values[ends[n - 1]:ends[n]]) for n in range(1, self.nt + 1)}

    def step_back(self, q_next: np.ndarray, n_next: int) -> np.ndarray:
        """q at step n_next - 1 from q at step n_next."""
        feet = self.feet[n_next - 1]
        qfield = ScalarField(self.grid, q_next)
        vals, _ = interpolate_flagged(qfield, feet, clip=True)
        idx, continued = self.offgrid[n_next]
        vals[idx] = continued
        vals = vals - self._running_term(n_next - 1)
        return vals.reshape(self.grid.shape)


def solve_adjoint(
    cost: CostSpec,
    drift: DriftSpec,
    timegrid: TimeGrid,
    grid: GridSpec,
    stride: int = 1,
) -> AdjointTrajectory:
    """Solve the adjoint problem backward from q(T) = -phi."""
    stepper = _BackStepper(grid, drift, cost, timegrid)
    nt = timegrid.nt
    pts = grid.cell_centers()
    q = (-potential_eval(cost.phi, pts, timegrid.T)).reshape(grid.shape)

    vol = grid.cell_volume
    traj = AdjointTrajectory(
        timegrid, grid, stride, stepper.step_back, backward=True, release=stepper.release, l2=np.zeros(nt + 1)
    )

    def record(n, vals):
        traj.l2[n] = math.sqrt(float((vals * vals).sum() * vol))
        traj.keep(n, vals)

    record(nt, q)
    try:
        for n_next in range(nt, 0, -1):
            q = stepper.step_back(q, n_next)
            record(n_next - 1, q)
    finally:
        stepper.release()
    return traj


def adjoint_energy_certificate(
    trajectory: AdjointTrajectory,
    drift: DriftSpec,
    cost: CostSpec,
    C_cert: float = 2.0,
) -> EnergyCertificate:
    """Check the backward Gronwall recursion for the negative-weight norm:
    N_n <= (1 + C dt r_n) N_{n+1} + dt s_n with s_n the weighted norm of the
    running potential."""
    grid = trajectory.grid
    tg = trajectory.timegrid
    dt = tg.dt
    k = confining_weight_index(grid.dim)
    N = trajectory.norm_history(0, -k)
    r = np.zeros(tg.nt)
    s = np.zeros(tg.nt)
    for n in range(tg.nt):
        t = n * dt
        r[n] = drift_grad_bound(drift, t, grid, 0)
        s[n] = weighted_sobolev_norm(sample_potential(grid, cost.theta, t), 0, -k)
    return EnergyCertificate.check(0, -k, N[1:], N[:-1], r, s, dt, C_cert)
