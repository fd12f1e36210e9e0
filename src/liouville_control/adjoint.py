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
step.  Both read the control at the stage times t_j, t_j + dt/2 and
t_j + dt of step j from one table, one ``value_at`` call per solve.
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
the feet are dropped, with the continued values, when the solve returns.  A
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


def _theta_line_integral(theta: Potential, t0, dt: float, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """dt * theta at the midpoints of the segments x0 -> x1, at t0 + dt / 2;
    t0 is one time or one per leading row of x1 (see potential_eval)."""
    mid = 0.5 * (x0 + x1)
    return dt * potential_eval(theta, mid, t0 + 0.5 * dt)


def _outside_center_span(grid: GridSpec, pts: np.ndarray) -> np.ndarray:
    # the interpolation stencil degrades in the outermost half cells, so
    # feet beyond the span of cell centers go to analytic continuation
    out = np.zeros(pts.shape[0], dtype=bool)
    for ax in range(grid.dim):
        h = grid.h[ax]
        out |= (pts[:, ax] < grid.lo[ax] + 0.5 * h) | (pts[:, ax] > grid.hi[ax] - 0.5 * h)
    return out


# an off-grid march that leaves this multiple of the box's largest
# coordinate has escaped
_ESCAPE_FACTOR = 50.0


def _trace(grid: GridSpec, drift: DriftSpec, cost: CostSpec, timegrid: TimeGrid):
    """The feet of every step, (nt, N, d), and the analytic continuation of
    every foot outside the span of cell centres as flat arrays (cells,
    values, ends): step k's cell indices and q(t_{k+1}, feet) are
    ``cells[ends[k]:ends[k + 1]]`` and ``values[ends[k]:ends[k + 1]]``.

    feet[k] are the RK4 feet at t_{k+1} of the characteristics through the
    cell centres at t_k.  The escaped feet of step k join one batch at time
    t_{k+1}; the batch is marched to T, accumulating the running cost, and
    the terminal potential is read there.  Each point sees the same
    per-point arithmetic as a march of its own, so the values do not depend
    on the batching.
    """
    nt, dt = timegrid.nt, timegrid.dt
    cells_n, dim = grid.num_cells, grid.dim
    centers = grid.cell_centers()
    # (u1, u2) at the stage times t_j, t_j + dt/2 and t_j + dt of step j, column j
    t = np.arange(nt) * dt
    u1, u2 = drift.control.value_at(np.stack([t, t + 0.5 * dt, t + dt]))
    feet = np.empty((nt, cells_n, dim))
    size = _block_nodes(cells_n)
    for lo in range(0, nt, size):
        # the feet of steps lo .. hi - 1 in one batch of copies of the
        # centres, copy b starting at t_{lo + b}
        hi = min(lo + size, nt)
        block = _rk4_feet(drift, t[lo:hi], dt, np.tile(centers, (hi - lo, 1)), (u1[:, lo:hi], u2[:, lo:hi]))
        if not np.all(np.isfinite(block)):
            raise CharacteristicEscape("characteristic tracing produced non-finite feet")
        feet[lo:hi] = block.reshape(hi - lo, cells_n, dim)
    outside = _outside_center_span(grid, feet.reshape(-1, dim)).reshape(nt, cells_n)
    escaped = [np.flatnonzero(row) for row in outside]
    # rows are ordered by the step their feet belong to, so the batch
    # active at time t_j, the feet of steps 0..j - 1, is the prefix x[:ends[j]]
    ends = np.cumsum([0] + [idx.size for idx in escaped])
    x = np.concatenate([step[idx] for step, idx in zip(feet, escaped)])
    acc = np.zeros(x.shape[0])
    escape_radius = _ESCAPE_FACTOR * max(abs(v) for v in (*grid.lo, *grid.hi))
    for j in range(1, nt):
        m = ends[j]
        if m == 0:
            continue
        x_next = _rk4_feet(drift, j * dt, dt, x[:m], (u1[:, j], u2[:, j]))
        # non-finite or beyond the hull: a NaN fails the comparison too
        if not np.abs(x_next).max() <= escape_radius:
            raise CharacteristicEscape("characteristic left the safety hull during analytic continuation")
        acc[:m] += _theta_line_integral(cost.theta, j * dt, dt, x[:m], x_next)
        x[:m] = x_next
    return feet, np.concatenate(escaped), -potential_eval(cost.phi, x, nt * dt) - acc, ends


def _stencils(grid: GridSpec, feet: np.ndarray) -> list:
    """The stencils of a block of steps' feet (B, N, d) in one call, one
    contiguous (indices, weights) pair per step (a strided one gathers slower)."""
    tables = interpolation_stencil(grid, feet.reshape(-1, grid.dim))
    return list(zip(*(np.ascontiguousarray(a.reshape(a.shape[0], len(feet), -1).swapaxes(0, 1)) for a in tables)))


def solve_adjoint(cost: CostSpec, drift: DriftSpec, timegrid: TimeGrid, grid: GridSpec) -> Checkpoints:
    """Solve the adjoint problem backward from q(T) = -phi, keeping every node.

    Step k (t_k to t_{k+1}) reads the running-cost term from the centres to
    their stored feet (_theta_line_integral) and the feet's stencils, both
    built per block of steps, and then the continued values of its escaped
    feet."""
    feet, cells, values, ends = _trace(grid, drift, cost, timegrid)
    nt, dt, n = timegrid.nt, timegrid.dt, grid.num_cells
    centers = grid.cell_centers()
    terms = _rows_down(nt, _block_nodes(n), lambda lo, hi: _theta_line_integral(
        cost.theta, np.arange(lo, hi) * dt, dt, centers, feet[lo:hi]))
    stencils = _rows_down(nt, _block_nodes(4 ** grid.dim * n), lambda lo, hi: _stencils(grid, feet[lo:hi]))
    traj = Checkpoints(timegrid, grid)
    traj.nodes[nt] = (-potential_eval(cost.phi, centers, timegrid.T)).reshape(grid.shape)
    for k, term, (idx, wts) in zip(range(nt - 1, -1, -1), terms, stencils):
        vals = apply_stencil(ScalarField(grid, traj.nodes[k + 1]).values, idx, wts, clip=True)
        vals[cells[ends[k]:ends[k + 1]]] = values[ends[k]:ends[k + 1]]
        traj.nodes[k] = (vals - term).reshape(grid.shape)
    return traj


def adjoint_energy_certificate(
    trajectory: Checkpoints,
    drift: DriftSpec,
    cost: CostSpec,
    C_cert: float = 2.0,
) -> EnergyCertificate:
    """Check the backward Gronwall recursion for the negative-weight norm:
    N_n <= (1 + C dt r_n) N_{n+1} + dt s_n with s_n the weighted norm of the
    running potential.  The drift factors and the potential's norms are
    tabulated at the step starts, theta in one ``potential_eval`` table."""
    grid, tg = trajectory.grid, trajectory.timegrid
    k = confining_weight_index(grid.dim)
    N = trajectory.norms(0, -k)
    t = np.arange(tg.nt) * tg.dt
    r = drift_grad_bound(drift, t, grid, 0)
    theta = np.broadcast_to(potential_eval(cost.theta, grid.cell_centers(), t), (tg.nt, grid.num_cells))
    s = weighted_sobolev_norm(ScalarField(grid, theta.reshape(-1, *grid.shape)), 0, -k)
    return EnergyCertificate.check(0, -k, N[1:], N[:-1], r, s, tg.dt, C_cert)
