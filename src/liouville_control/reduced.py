"""The reduced ensemble control problem: cost, gradients, optimality
residuals, and analytical probes.

The discrete objective is defined once, in ``reduced_cost``: the trapezoid
rule in time over every node of the running cost int theta rho dx, plus the
terminal cost int phi rho(T) dx and the control costs.  The running cost is
reduced from the forward solve's stored nodes a block of nodes at a time:
theta tabulated at the block's node times in one ``potential_eval`` call
(the table and its product with the nodes hold about ``grid._BLOCK_POINTS``
values), one row sum per node, which gives the bits of a node-by-node sum.

Gradients discretize the continuous optimality system (optimize then
discretize): per time node and axis r,

    grad_u1^r = gamma u1^r + int d_r(rho) q dx
    grad_u2^r = gamma u2^r + int d_r(x^r rho) q dx

with the forward density rho and backward adjoint q on matched grids, both
solves keeping every node.  An integrated-by-parts assembly (-int rho d_r
q, -int x^r rho d_r q) is computed as a cross-check and the worst
discrepancy reported, for the ``grad`` and ``grad-check`` commands only:
the gradient the optimizer descends along (``Problem.descent_gradient``)
skips it and has the same bits.  The nodes are assembled in blocks of
consecutive nodes (about 16,384 grid points, see ``grid._BLOCK_POINTS``),
slices of the two node arrays: one difference stencil per block and axis,
and one sum per node over its contiguous row, which gives the bits of a
node-by-node assembly.  The sparsity
weight delta never enters the gradient; the proximal step in the optimizer
owns it.  For nu > 0 the gradient is expressed in the weighted H1 metric as
u + mu, where mu solves (-nu d^2/dt^2 + gamma) mu = integral path with zero
endpoint values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .adjoint import sample_potential, solve_adjoint
from .controls import (
    BoxBounds,
    ControlPath,
    CostSpec,
    DriftPreset,
    DriftSpec,
    Potential,
    potential_eval,
    project_box,
)
from .errors import GridMismatch, NotApplicable
from .forward import Checkpoints, StateTrajectory, check_solver, required_substeps, solve_forward, solve_linearized
from .grid import (
    GridSpec,
    ScalarField,
    TimeGrid,
    _block_nodes,
    _row_sums,
    partial_derivative,
    weighted_sobolev_norm,
)
from .oracles import fit_order

__all__ = [
    "Problem",
    "GradientPath",
    "KktResidual",
    "ProbeReport",
    "path_dot",
    "path_norm",
    "reduced_cost",
    "reduced_gradient",
    "h1_riesz",
    "metric_dot",
    "kkt_residual",
    "frechet_probe",
    "smallness_certificate",
    "prox_step",
]


def path_dot(timegrid: TimeGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Trapezoid L2(0,T) inner product of stacked node paths."""
    w = timegrid.trapezoid_weights()
    return float((w[:, None] * a * b).sum())


def path_norm(timegrid: TimeGrid, a: np.ndarray) -> float:
    return math.sqrt(max(path_dot(timegrid, a, a), 0.0))


def prox_step(u: np.ndarray, g: np.ndarray, alpha: float, delta: float, ua, ub) -> np.ndarray:
    """Proj_box(shrink_{alpha delta}(u - alpha g)) with the componentwise soft
    threshold shrink: the proximal step of the L1 + box part of the cost."""
    v = u - alpha * g
    return np.clip(np.sign(v) * np.maximum(np.abs(v) - alpha * delta, 0.0), ua, ub)


@dataclass
class GradientPath:
    """Gradient of the reduced cost on the control nodes, stacked as a
    control path's: ``values`` is (nt + 1, 2 d), the u1 columns then the u2
    columns.  ``ibp_discrepancy`` is the worst gap between the direct and
    the integrated-by-parts assembly, or None for a gradient made without
    that cross-check (``Problem.descent_gradient``, which the optimizer
    takes; the ``grad`` and ``grad-check`` commands report it)."""

    values: np.ndarray
    metric: str = "L2"
    ibp_discrepancy: float | None = 0.0

    def stacked(self) -> np.ndarray:
        return self.values


@dataclass(frozen=True)
class KktResidual:
    """Residuals of the first-order system with box and sparsity multipliers."""

    stationarity: float
    vi_residual: float


@dataclass
class ProbeReport:
    """Container for differentiability / uniqueness probe outputs."""

    epsilons: tuple = ()
    remainders: tuple = ()
    slope: float = 0.0
    smallness_K: float | None = None
    smallness_ratio: float | None = None
    passed: bool | None = None


@dataclass(frozen=True)
class Problem:
    """Bundle of everything a run needs: grid, horizon, data, and weights.

    ``source`` is None or the cell values of a source constant in time, an
    array of the grid's shape.  The solver settings are checked when the
    problem is built (``forward.check_solver``).  Frozen, as the forward
    solve of the most recent control is memoized: ``dataclasses.replace``
    makes a variant with an empty memo.
    """

    grid: GridSpec
    timegrid: TimeGrid
    rho0: ScalarField
    a0: DriftPreset
    cost: CostSpec
    bounds: BoxBounds
    source: np.ndarray | None = None
    scheme: str = "upwind-fv"
    cfl: float = 0.9
    max_substeps: int = 4096
    _fwd_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_solver(self.scheme, self.cfl, self.max_substeps)

    def drift_for(self, control: ControlPath) -> DriftSpec:
        return DriftSpec(self.a0, control)

    @property
    def solver(self) -> dict:
        """The settings every forward solve of the problem takes."""
        return dict(scheme=self.scheme, cfl=self.cfl, max_substeps=self.max_substeps)

    def solve_forward_for(self, control: ControlPath) -> StateTrajectory:
        # the memo keeps one state, the most recent control's: every caller
        # reads a state right after solving it (the optimizer's gradient at
        # the candidate it accepted, a cost after the gradient).  A miss
        # drops the old state before solving, so one state is held at a time
        traj = self._fwd_cache.get(control.stacked().tobytes())
        if traj is None:
            self._fwd_cache.clear()
            traj = solve_forward(self.rho0, self.drift_for(control), self.source, self.timegrid, **self.solver)
            self._keep(control, traj)
        return traj

    def _keep(self, control: ControlPath, traj: StateTrajectory) -> None:
        """Make ``traj``, the state of ``control``, the memo's one entry."""
        self._fwd_cache.clear()
        self._fwd_cache[control.stacked().tobytes()] = traj

    def solve_adjoint_for(self, control: ControlPath) -> Checkpoints:
        return solve_adjoint(self.cost, self.drift_for(control), self.timegrid, self.grid)

    def reduced_cost(self, control: ControlPath) -> float:
        return reduced_cost(control, self)

    def descent_gradient(self, control: ControlPath) -> GradientPath:
        """The gradient the optimizer descends along: ``reduced_gradient``
        without the integration-by-parts cross-check, which no descent
        reads."""
        return reduced_gradient(control, self, cross_check=False)


def _running_cost(traj: StateTrajectory, theta: Potential) -> np.ndarray:
    """int theta rho dx at every node, a block of nodes at a time: theta
    tabulated at the block's node times in one call, and one row sum per
    node, with the bits of the node's own ``sum()``.  The table and its
    product with the block hold about ``grid._BLOCK_POINTS`` values in all."""
    grid, dt = traj.grid, traj.timegrid.dt
    size, centers = _block_nodes(2 * grid.num_cells), grid.cell_centers()
    running = np.empty(len(traj.nodes))
    for lo in range(0, len(traj.nodes), size):
        rows = traj.nodes[lo:lo + size]
        times = np.arange(lo, lo + len(rows)) * dt
        theta_rows = potential_eval(theta, centers, times).reshape((-1, *grid.shape))
        running[lo:lo + len(rows)] = _row_sums(theta_rows * rows) * grid.cell_volume
    return running


def reduced_cost(control: ControlPath, problem: Problem) -> float:
    """J(G(u), u), the one discrete objective: the trapezoid rule in time
    over every node of the running cost int theta rho dx of the control's
    (memoized) forward solve, plus the terminal and control costs."""
    traj = problem.solve_forward_for(control)
    tg, cost = problem.timegrid, problem.cost
    running = terminal = 0.0
    if not cost.theta.is_zero:
        running = float(np.trapezoid(_running_cost(traj, cost.theta), x=np.arange(tg.nt + 1) * tg.dt))
    if not cost.phi.is_zero:
        phi = sample_potential(problem.grid, cost.phi, tg.T)
        terminal = float((phi.values * traj.nodes[-1]).sum() * problem.grid.cell_volume)
    return cost.total(running + terminal, control)


def assemble_integral_path(
    problem: Problem, traj_rho: StateTrajectory, traj_q: Checkpoints, cross_check: bool = True
):
    """Per-node integral terms of the gradient, direct and, with
    ``cross_check``, integrated by parts; returns (stacked path (nt + 1,
    2 d), worst discrepancy, or None without the cross-check)."""
    grid = problem.grid
    if traj_q.grid != grid or traj_rho.grid != grid:
        raise GridMismatch("forward and adjoint runs live on different grids")
    if traj_q.timegrid != traj_rho.timegrid:
        raise GridMismatch("forward and adjoint runs use different time grids")
    tg = problem.timegrid
    size = _block_nodes(grid.num_cells)
    out = np.zeros((tg.nt + 1, 2 * grid.dim))
    disc = 0.0
    for lo in range(0, tg.nt + 1, size):
        block = slice(lo, lo + size)
        disc = max(disc, _assemble_block(grid, traj_rho.nodes[block], traj_q.nodes[block], out[block], cross_check))
    return out, disc if cross_check else None


def _assemble_block(
    grid: GridSpec, rho_vals: np.ndarray, q_vals: np.ndarray, out: np.ndarray, cross_check: bool
) -> float:
    """The integral terms of a block of consecutive nodes into ``out``
    (B, 2 d); returns the block's worst discrepancy, or 0.0 without the
    cross-check."""
    d = grid.dim
    mesh = grid.meshgrid()
    vol = grid.cell_volume
    rho = ScalarField(grid, rho_vals)
    q = ScalarField(grid, q_vals)
    disc = 0.0
    for r in range(d):
        # each derivative lives only as long as its products need it
        xr_rho = ScalarField(grid, mesh[r] * rho.values)
        i1 = _row_sums(partial_derivative(rho, r).values * q.values) * vol
        i2 = _row_sums(partial_derivative(xr_rho, r).values * q.values) * vol
        out[:, r] = i1
        out[:, d + r] = i2
        if cross_check:
            dq = partial_derivative(q, r).values
            i1_ibp = -(_row_sums(rho.values * dq) * vol)
            i2_ibp = -(_row_sums(xr_rho.values * dq) * vol)
            disc = max(disc, float(np.abs(i1 - i1_ibp).max()), float(np.abs(i2 - i2_ibp).max()))
    return disc


def h1_riesz(rhs, gamma: float, nu: float, timegrid: TimeGrid) -> np.ndarray:
    """Solve (-nu d^2/dt^2 + gamma) mu = rhs with mu(0) = mu(T) = 0 by the
    three-point second difference on the time nodes (Thomas algorithm)."""
    if not nu > 0:
        raise NotApplicable("the H1 Riesz problem needs nu > 0")
    rhs = np.asarray(rhs, dtype=float)
    squeeze = rhs.ndim == 1
    if squeeze:
        rhs = rhs[:, None]
    nn = timegrid.nt + 1
    if rhs.shape[0] != nn:
        raise NotApplicable(f"rhs needs {nn} nodes")
    dt = timegrid.dt
    off = -nu / dt**2
    diag = gamma + 2.0 * nu / dt**2
    m = nn - 2
    mu = np.zeros_like(rhs)
    cp = np.zeros(m)
    b = rhs[1:-1].copy()
    cp[0] = off / diag
    b[0] = b[0] / diag
    for i in range(1, m):
        denom = diag - off * cp[i - 1]
        cp[i] = off / denom
        b[i] = (b[i] - off * b[i - 1]) / denom
    for i in range(m - 2, -1, -1):
        b[i] = b[i] - cp[i] * b[i + 1]
    mu[1:-1] = b
    return mu[:, 0] if squeeze else mu


def metric_dot(problem: Problem, gradient: GradientPath, direction: ControlPath) -> float:
    """<gradient, direction> in the gradient's metric: the trapezoid L2 product, or for H1tilde
    gamma <g, d> + nu <g', d'> with exact slopes, the product whose Riesz map h1_riesz solves."""
    tg = problem.timegrid
    g, dvec = gradient.stacked(), direction.stacked()
    if gradient.metric == "L2":
        return path_dot(tg, g, dvec)
    slopes_g, slopes_d = np.diff(g, axis=0) / tg.dt, np.diff(dvec, axis=0) / tg.dt
    return problem.cost.gamma * path_dot(tg, g, dvec) + problem.cost.nu * float((slopes_g * slopes_d).sum() * tg.dt)


def reduced_gradient(control: ControlPath, problem: Problem, cross_check: bool = True) -> GradientPath:
    """Sparsity-free gradient of the reduced cost in the active metric;
    without ``cross_check`` its ``ibp_discrepancy`` is None
    (``Problem.descent_gradient``)."""
    integral, disc = assemble_integral_path(
        problem, problem.solve_forward_for(control), problem.solve_adjoint_for(control), cross_check=cross_check
    )
    if problem.cost.nu > 0:
        mu = h1_riesz(integral, problem.cost.gamma, problem.cost.nu, problem.timegrid)
        return GradientPath(control.stacked() + mu, "H1tilde", disc)
    return GradientPath(problem.cost.gamma * control.stacked() + integral, "L2", disc)


def kkt_residual(control: ControlPath, problem: Problem, gradient: GradientPath) -> KktResidual:
    """Residuals of the coupled optimality system at a control, given the
    gradient there.

    The sparsity multiplier is delta sign(u) off the zero set and -g clipped
    to [-delta, delta] on it (so it agrees with sign(u) and stays within
    delta by construction), which leaves r = g + lambda.  The bound
    multipliers, zero off the active sets, absorb the part of r that an
    active bound holds: ``stationarity`` is the largest |r| once r's
    negative part is dropped on the upper bound and its positive part on
    the lower.  ``vi_residual`` is ||u - Proj(shrink(u - g))||, the measure
    the optimizer stops on.
    """
    gf = gradient.stacked()
    u = control.stacked()
    ua, ub = problem.bounds.arrays()
    delta = problem.cost.delta
    tol_b = zero_tol = 1e-10

    if delta > 0:
        lam_hat = np.where(np.abs(u) > zero_tol, delta * np.sign(u), np.clip(-gf, -delta, delta))
    else:
        lam_hat = np.zeros_like(u)

    r = gf + lam_hat
    upper_active = u >= ub - tol_b
    lower_active = u <= ua + tol_b
    r = np.where(upper_active, np.maximum(r, 0.0), np.where(lower_active, np.minimum(r, 0.0), r))

    vi = path_norm(problem.timegrid, u - prox_step(u, gf, 1.0, delta, ua, ub))
    return KktResidual(stationarity=float(np.abs(r).max()), vi_residual=vi)


def frechet_probe(
    control: ControlPath, direction: ControlPath, eps_ladder, problem: Problem
) -> ProbeReport:
    """Second-order Taylor remainder of the control-to-state map.

    Solves the linearized transport problem for the derivative state, then
    fits the slope of log ||G(u + eps du) - G(u) - eps DG(u) du|| against
    log eps, the norm being the largest L2 norm over the time nodes.  All
    solves share one substep plan so the discrete map stays smooth across
    the ladder.  When that plan is the centre's own, the tangent solve's
    state becomes the problem's memoized forward solve of ``control``.
    """
    eps = [float(e) for e in eps_ladder]
    if len(eps) < 2 or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    bad = [e for e in eps if not (e > 0 and math.isfinite(e))]
    if bad:
        raise ValueError(f"eps ladder must hold positive finite steps, got {bad}")
    tg = problem.timegrid

    def control_plus(scale: float) -> ControlPath:
        # stay inside the admissible family; perturbations across the box
        # boundary are clipped, which is where second order is lost
        cand = ControlPath.from_stacked(tg, control.stacked() + scale * direction.stacked())
        return project_box(cand, problem.bounds)

    # the plan of the centre's own forward solve, widened to the ladder's ends
    plan = own = required_substeps(problem.grid, problem.drift_for(control), tg, problem.cfl)
    for cand in (control_plus(eps[0]), control_plus(-eps[0])):
        p = required_substeps(problem.grid, problem.drift_for(cand), tg, problem.cfl)
        plan = [max(a, b) for a, b in zip(plan, p)]

    base, wtraj = solve_linearized(
        problem.rho0, problem.drift_for(control), direction, problem.source, tg, fixed_substeps=plan, **problem.solver
    )
    if plan == own:
        # the tangent solve's state has the bits of the centre's forward
        # solve, so it is the memo's state for the gradient at the centre
        problem._keep(control, base)
    vol, size = problem.grid.cell_volume, _block_nodes(problem.grid.num_cells)
    remainders = []
    # each solve is dropped before the next, so one ladder solve is held at
    # a time; its nodes are overwritten with the squared remainders, a block
    # at a time
    for e in eps:
        traj_e = solve_forward(
            problem.rho0, problem.drift_for(control_plus(e)), problem.source, tg, fixed_substeps=plan, **problem.solver
        )
        worst = 0.0
        for lo in range(0, tg.nt + 1, size):
            diff = traj_e.nodes[lo:lo + size]
            diff -= base.nodes[lo:lo + size]
            diff -= e * wtraj.nodes[lo:lo + size]
            diff *= diff
            worst = max(worst, float(np.sqrt(_row_sums(diff) * vol).max()))
        remainders.append(worst)
        del traj_e
    positive = [(e, r) for e, r in zip(eps, remainders) if r > 1e-250]
    slope = fit_order(*zip(*positive)) if len(positive) >= 2 else 0.0
    return ProbeReport(epsilons=tuple(eps), remainders=tuple(remainders), slope=slope)


def _potential_norm_time_integral(problem: Problem, pot, samples: int = 16) -> float:
    """int_0^T of the potential's H^1_1 norm; for a time-dependent one, the
    trapezoid rule on samples + 1 times read from one ``potential_eval`` table."""
    grid, T = problem.grid, problem.timegrid.T
    if pot.is_zero:
        return 0.0
    if not pot.time_dependent:
        return T * weighted_sobolev_norm(sample_potential(grid, pot, 0.0), 1, 1)
    ts = np.linspace(0.0, T, samples + 1)
    table = potential_eval(pot, grid.cell_centers(), ts).reshape(len(ts), *grid.shape)
    return float(np.trapezoid(weighted_sobolev_norm(ScalarField(grid, table), 1, 1), x=ts))


def smallness_certificate(problem: Problem, C_universal: float = 1.0) -> ProbeReport:
    """Evaluate the uniqueness smallness constant from its closed formula
    with discrete norms of the data, and report the ratio K T / gamma with
    the pass threshold 2.

    The universal constant of the underlying estimate is not constructive;
    the caller supplies it (default 1), so the certificate is indicative
    rather than a proof; a growth factor past the float range gives K = inf.
    """
    T = problem.timegrid.T
    grad_a0_l1 = T * sum(problem.a0.derivative_sup(problem.grid, o) for o in (1, 2, 3))
    bound_term = T * problem.bounds.max_radius()
    data_term = weighted_sobolev_norm(problem.rho0, 2, 2)
    if problem.source is not None:  # constant in time
        source = ScalarField(problem.grid, problem.source)
        data_term += T * weighted_sobolev_norm(source, 2, 2)
    phi_norm = 0.0
    if not problem.cost.phi.is_zero:
        phi_norm = weighted_sobolev_norm(
            sample_potential(problem.grid, problem.cost.phi, T), 1, 1
        )
    pot_term = phi_norm + _potential_norm_time_integral(problem, problem.cost.theta)
    try:
        growth = math.exp(C_universal * (grad_a0_l1 + bound_term))
    except OverflowError:
        growth = math.inf
    # a zero data or potential term gives K = 0, also where the growth is inf
    K = C_universal * growth * data_term * pot_term if data_term and pot_term else 0.0
    ratio = K * T / problem.cost.gamma
    return ProbeReport(smallness_K=K, smallness_ratio=ratio, passed=bool(ratio < 2.0))
