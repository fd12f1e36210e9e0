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
step.  Both read the control at their stage times t_j, t_j + dt/2 and
t_j + dt from one ``value_at`` call: one per block of centre feet, one for
every step j of the march.
The feet of every step are kept for the backward pass (nt * N * d floats
for N cells in d dimensions), which runs down from step nt - 1 to step 0.
It builds two tables from the stored feet for a block of steps at a time,
down from the first step that needs them: the running-cost term, dt * theta
at the midpoints between the centres and their feet, in one
``potential_eval`` call for about ``grid._BLOCK_POINTS`` values, and the
feet's interpolation stencils for about as many stencil nodes (5 steps at
768 cells, one at 48 x 48); a step only gathers and sums.  Interpolated
values are clipped to the local stencil range, which keeps the discrete
maximum principle.

The backward pass keeps every node, 0..nt, in the forward solver's
``Checkpoints`` store, as the forward solve does: the nodes, (nt + 1) * N
floats, weigh about as much as the feet in 1D and half as much in 2D, and
the feet are dropped, with the off-grid table, when the solve returns.  A
solve records nothing per node; its L2 norm and the negative-weight norm of
the confining case are computed from the stored nodes by whoever reports
them.
"""

from __future__ import annotations

import numpy as np

from .controls import CostSpec, DriftSpec, Potential, drift_grad_bound, eval_drift, potential_eval
from .errors import CharacteristicEscape
from .forward import Checkpoints, EnergyCertificate
from .grid import GridSpec, ScalarField, TimeGrid, _block_nodes, apply_stencil, interpolation_stencil, weighted_sobolev_norm
from .grid import interpolate_flagged  # unused here; bench/calltrace.py wraps adjoint.interpolate_flagged by name

__all__ = [
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


def _rk4_feet(drift: DriftSpec, t, dt: float, pts: np.ndarray, controls) -> np.ndarray:
    """The feet of one RK4 step from ``pts`` at ``t`` (one time, or one per
    block of rows, see eval_drift); ``controls`` is (u1, u2) at the stage
    times t, t + dt/2 and t + dt, stacked on a first axis."""
    rows = list(zip(*controls))
    k1 = eval_drift(drift, t, pts, rows[0])
    k2 = eval_drift(drift, t + 0.5 * dt, pts + 0.5 * dt * k1, rows[1])
    k3 = eval_drift(drift, t + 0.5 * dt, pts + 0.5 * dt * k2, rows[1])
    k4 = eval_drift(drift, t + dt, pts + dt * k3, rows[2])
    return pts + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rows_down(nt: int, size: int, tabulate):
    """The rows of ``tabulate(lo, hi)``, a block of steps lo..hi - 1, for steps nt - 1 down to 0."""
    for hi in range(nt, 0, -size):
        yield from tabulate(max(0, hi - size), hi)[::-1]


# an off-grid march that leaves this multiple of the box's largest
# coordinate has escaped
_ESCAPE_FACTOR = 50.0


class _BackStepper:
    def __init__(self, grid: GridSpec, drift: DriftSpec, cost: CostSpec, timegrid: TimeGrid):
        self.grid = grid
        self.drift = drift
        self.cost = cost
        self.dt = timegrid.dt
        self.nt = timegrid.nt
        self.centers = grid.cell_centers()
        self.escape_radius = _ESCAPE_FACTOR * max(
            abs(v) for v in (*grid.lo, *grid.hi)
        )
        # feet[n_next - 1] are the RK4 feet at t_{n_next} of the
        # characteristics through the cell centres at t_{n_next - 1}; the
        # backward pass reads them from here
        self.feet, self.offgrid = self._continue_offgrid()

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
            t = np.arange(lo, min(lo + size, self.nt)) * self.dt
            batch = np.tile(self.centers, (t.size, 1))
            controls = self.drift.control.value_at(np.stack([t, t + 0.5 * self.dt, t + self.dt]))
            feet = _rk4_feet(self.drift, t, self.dt, batch, controls)
            if not np.all(np.isfinite(feet)):
                raise CharacteristicEscape("characteristic tracing produced non-finite feet")
            outside = self._outside_center_span(feet).reshape(t.size, cells_n)
            feet = feet.reshape(t.size, cells_n, dim)
            all_feet[lo:lo + t.size] = feet
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
        # (u1, u2) at the stage times of march step j, row j - 1
        times = np.arange(1, self.nt) * dt
        u1, u2 = self.drift.control.value_at(np.stack([times, times + 0.5 * dt, times + dt]))
        for j in range(1, self.nt):
            m = ends[j]
            if m == 0:
                continue
            t0 = j * dt
            x_next = _rk4_feet(self.drift, t0, dt, x[:m], (u1[:, j - 1], u2[:, j - 1]))
            # non-finite or beyond the hull: a NaN fails the comparison too
            if not np.abs(x_next).max() <= self.escape_radius:
                raise CharacteristicEscape(
                    "characteristic left the safety hull during analytic continuation"
                )
            acc[:m] += self._theta_line_integral(t0, dt, x[:m], x_next)
            x[:m] = x_next
        values = -potential_eval(self.cost.phi, x, self.nt * dt) - acc
        return all_feet, {n: (cells[n - 1], values[ends[n - 1]:ends[n]]) for n in range(1, self.nt + 1)}

    def _stencils(self, lo: int, hi: int) -> list:
        """The stencils of the feet of steps lo..hi - 1 in one call, one contiguous
        (indices, weights) pair per step (a strided one gathers slower)."""
        tables = interpolation_stencil(self.grid, self.feet[lo:hi].reshape(-1, self.grid.dim))
        return list(zip(*(np.ascontiguousarray(a.reshape(a.shape[0], hi - lo, -1).swapaxes(0, 1)) for a in tables)))

    def sweep(self, q: np.ndarray):
        """Yield q at nodes nt - 1 down to 0, from q at node nt.  Step k (t_k to
        t_{k+1}) reads the running-cost term from the centres to their stored
        feet (_theta_line_integral) and the feet's stencils, built per block."""
        dt, cells = self.dt, self.grid.num_cells
        terms = _rows_down(self.nt, _block_nodes(cells), lambda lo, hi: self._theta_line_integral(
            np.arange(lo, hi) * dt, dt, self.centers, self.feet[lo:hi]))
        stencils = _rows_down(self.nt, _block_nodes(4 ** self.grid.dim * cells), self._stencils)
        for k, term, (idx, wts) in zip(range(self.nt - 1, -1, -1), terms, stencils):
            vals = apply_stencil(ScalarField(self.grid, q).values, idx, wts, clip=True)
            offgrid, continued = self.offgrid[k + 1]
            vals[offgrid] = continued
            q = (vals - term).reshape(self.grid.shape)
            yield q


def solve_adjoint(cost: CostSpec, drift: DriftSpec, timegrid: TimeGrid, grid: GridSpec) -> Checkpoints:
    """Solve the adjoint problem backward from q(T) = -phi, keeping every node."""
    stepper = _BackStepper(grid, drift, cost, timegrid)
    nt = timegrid.nt
    pts = grid.cell_centers()
    q = (-potential_eval(cost.phi, pts, timegrid.T)).reshape(grid.shape)

    traj = Checkpoints(timegrid, grid)
    traj.nodes[nt] = q
    for n, q in zip(range(nt - 1, -1, -1), stepper.sweep(q)):
        traj.nodes[n] = q
    return traj


def adjoint_energy_certificate(
    trajectory: Checkpoints,
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
