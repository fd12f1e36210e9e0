"""Proximal projected-gradient minimization of the reduced cost over the
box of admissible controls.

One iteration maps u to Proj_box(shrink_{alpha delta}(u - alpha g)), where
g is the sparsity-free gradient in the active metric (plain L2, or the
weighted H1 representative when the attention weight nu is positive) and
the shrink is componentwise soft thresholding - the exact proximal operator
of the L1 + box part, which is separable per node and component.  Step
sizes come from Armijo backtracking on the full cost including the L1
term, so accepted steps never increase the cost.  Termination is on the
variational-inequality residual ||u - Proj(shrink(u - g))||.

The loop only touches the problem through reduced_cost / descent_gradient
/ bounds / cost / timegrid, so ODE-reduced surrogates run through the
identical code path as the PDE problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controls import ControlPath, project_box
from .grid import is_count
from .reduced import (
    KktResidual,
    Problem,
    kkt_residual,
    path_norm,
    shrink,
    smallness_certificate,
)

__all__ = ["OptimConfig", "OptimResult", "MultiStartReport", "optimize", "multi_start"]


@dataclass(frozen=True)
class OptimConfig:
    max_iters: int = 200
    step0: float = 1.0
    c1: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 40
    vi_tol: float = 1e-6
    seeds: tuple = (0, 1, 2, 3, 4)
    uniqueness_tol: float = 1e-3

    def __post_init__(self):
        for name in ("max_iters", "max_backtracks"):
            if not is_count(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not self.step0 > 0:
            raise ValueError("step0 must be positive")
        if not 0.0 < self.c1 < 1.0:
            raise ValueError("the Armijo parameter must lie in (0, 1)")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("the backtrack factor must lie in (0, 1)")
        if not self.vi_tol > 0:
            raise ValueError("vi_tol must be positive")


@dataclass
class OptimResult:
    control: ControlPath
    cost_history: list[float]
    vi_history: list[float]
    steps: list[float]
    kkt: KktResidual | None
    iterations: int
    termination: str


def _prox_step(u: np.ndarray, g: np.ndarray, alpha: float, delta: float, ua, ub) -> np.ndarray:
    return np.clip(shrink(u - alpha * g, alpha * delta), ua, ub)


def optimize(problem, config: OptimConfig, u0: ControlPath | None = None,
             compute_kkt: bool = True) -> OptimResult:
    """Minimize the reduced cost over the admissible box."""
    tg = problem.timegrid
    bounds = problem.bounds
    ua, ub = bounds.arrays()
    delta = problem.cost.delta
    if u0 is None:
        u0 = ControlPath.zeros(tg, problem.control_dim)
    u = project_box(u0, bounds)
    cost = problem.reduced_cost(u)
    cost_history = [cost]
    vi_history: list[float] = []
    steps: list[float] = []
    termination = "max_iters"
    it = 0
    while it < config.max_iters:
        grad = problem.descent_gradient(u)
        gf = grad.stacked()
        ustk = u.stacked()
        vi = path_norm(tg, ustk - _prox_step(ustk, gf, 1.0, delta, ua, ub))
        vi_history.append(vi)
        if vi <= config.vi_tol:
            termination = "converged"
            break
        alpha = min(config.step0, 2.0 * steps[-1]) if steps else config.step0
        accepted = False
        for _ in range(config.max_backtracks):
            cand = _prox_step(ustk, gf, alpha, delta, ua, ub)
            move = path_norm(tg, cand - ustk)
            u_cand = ControlPath.from_stacked(tg, cand)
            cost_cand = problem.reduced_cost(u_cand)
            if cost_cand <= cost - (config.c1 / alpha) * move**2:
                accepted = True
                break
            alpha *= config.backtrack
        if not accepted or move <= 1e-14 * (1.0 + path_norm(tg, ustk)):
            # either no Armijo step exists, or progress fell below rounding:
            # the discretized gradient cannot drive the cost further down
            termination = "linesearch_failure"
            break
        steps.append(alpha)
        u = u_cand
        cost = cost_cand
        cost_history.append(cost)
        it += 1
    # a loop that stopped before max_iters stopped at the u of its last
    # gradient; after max_iters accepted steps (or none) it is recomputed
    at_u = grad if termination != "max_iters" else None
    kkt = kkt_residual(u, problem, gradient=at_u) if compute_kkt else None
    return OptimResult(
        control=u,
        cost_history=cost_history,
        vi_history=vi_history,
        steps=steps,
        kkt=kkt,
        iterations=it,
        termination=termination,
    )


@dataclass
class MultiStartReport:
    seeds: tuple
    max_pairwise_distance: float
    uniqueness_tol: float
    within_tol: bool
    terminations: tuple
    final_costs: tuple
    smallness_ratio: float | None = None
    smallness_pass: bool | None = None
    controls: list = field(default_factory=list, repr=False)


def multi_start(problem, config: OptimConfig) -> MultiStartReport:
    """Run the optimizer from deterministic pseudo-random admissible starts
    and report the worst pairwise distance between the minimizers."""
    if len(config.seeds) < 2:
        raise ValueError("multistart needs at least two seeds")
    tg = problem.timegrid
    ua, ub = problem.bounds.arrays()
    nn = tg.nt + 1
    results = []
    for seed in config.seeds:
        rng = np.random.default_rng(int(seed))
        start = rng.uniform(ua, ub, size=(nn, ua.size))
        u0 = ControlPath.from_stacked(tg, start)
        results.append(optimize(problem, config, u0=u0, compute_kkt=False))
    worst = 0.0
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            d = path_norm(tg, results[i].control.stacked() - results[j].control.stacked())
            worst = max(worst, d)
    smallness = smallness_certificate(problem) if isinstance(problem, Problem) else None
    return MultiStartReport(
        seeds=tuple(config.seeds),
        max_pairwise_distance=worst,
        uniqueness_tol=config.uniqueness_tol,
        within_tol=bool(worst <= config.uniqueness_tol),
        terminations=tuple(r.termination for r in results),
        final_costs=tuple(r.cost_history[-1] for r in results),
        smallness_ratio=None if smallness is None else smallness.smallness_ratio,
        smallness_pass=None if smallness is None else smallness.passed,
        controls=[r.control for r in results],
    )
