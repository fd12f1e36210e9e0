"""Proximal projected-gradient minimization of the reduced cost over the
box of admissible controls.

One iteration maps u to Proj_box(shrink_{alpha delta}(u - alpha g)), where
g is the sparsity-free gradient in the active metric (plain L2, or the
weighted H1 representative when the attention weight nu is positive) and
the shrink is componentwise soft thresholding - the exact proximal operator
of the L1 + box part, which is separable per node and component.  Step
sizes come from Armijo backtracking on the full cost including the L1
term, so accepted steps never increase the cost.  Termination is on the
variational-inequality residual ||u - Proj(shrink(u - g))|| that
``kkt_residual`` takes from each iterate's gradient, so ``vi_history`` and
``kkt`` end at the returned control however the loop stops.

The loop only touches the problem through reduced_cost / descent_gradient
/ bounds / cost / timegrid, so ODE-reduced surrogates run through the
identical code path as the PDE problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import ControlPath, project_box
from .grid import is_count
from .reduced import KktResidual, kkt_residual, path_norm, prox_step

__all__ = ["OptimConfig", "OptimResult", "MultiStartReport", "optimize", "multi_start"]

ARMIJO_C1 = 1e-4  # sufficient-decrease constant (Nocedal & Wright 2006, section 3.1)
BACKTRACK = 0.5  # the step's factor per backtrack
MAX_BACKTRACKS = 40  # backtracks per line search before it fails
UNIQUENESS_TOL = 1e-3  # multistart's bound on the distance between minimizers


@dataclass(frozen=True)
class OptimConfig:
    max_iters: int = 200
    step0: float = 1.0
    vi_tol: float = 1e-6
    seeds: tuple = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if not (is_count(self.max_iters) and self.max_iters >= 0):
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        # a repeated seed reruns one start, and the distance between the
        # two runs says nothing about uniqueness
        seeds = list(self.seeds)
        if len(seeds) < 2 or not all(is_count(s) and s >= 0 for s in seeds) or len(set(seeds)) < len(seeds):
            raise ValueError(f"seeds must be at least two distinct integers >= 0, got {seeds!r}")
        if not self.step0 > 0:
            raise ValueError("step0 must be positive")
        if not self.vi_tol > 0:
            raise ValueError("vi_tol must be positive")


@dataclass
class OptimResult:
    control: ControlPath
    cost_history: list[float]
    vi_history: list[float]
    steps: list[float]
    kkt: KktResidual
    iterations: int
    termination: str


def optimize(problem, config: OptimConfig, u0: ControlPath | None = None) -> OptimResult:
    """Minimize the reduced cost over the admissible box."""
    tg = problem.timegrid
    bounds = problem.bounds
    ua, ub = bounds.arrays()
    delta = problem.cost.delta
    if u0 is None:
        u0 = ControlPath.zeros(tg, ua.size // 2)
    u = project_box(u0, bounds)
    cost = problem.reduced_cost(u)
    cost_history = [cost]
    vi_history: list[float] = []
    steps: list[float] = []
    it = 0
    while True:
        grad = problem.descent_gradient(u)
        kkt = kkt_residual(u, problem, grad)
        vi_history.append(kkt.vi_residual)
        if kkt.vi_residual <= config.vi_tol:
            termination = "converged"
            break
        if it == config.max_iters:
            termination = "max_iters"
            break
        gf = grad.nodes
        ustk = u.nodes
        alpha = min(config.step0, 2.0 * steps[-1]) if steps else config.step0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = prox_step(ustk, gf, alpha, delta, ua, ub)
            move = path_norm(tg, cand - ustk)
            u_cand = ControlPath.from_stacked(tg, cand)
            cost_cand = problem.reduced_cost(u_cand)
            if cost_cand <= cost - (ARMIJO_C1 / alpha) * move**2:
                accepted = True
                break
            alpha *= BACKTRACK
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
    within_tol: bool  # max_pairwise_distance <= UNIQUENESS_TOL
    terminations: tuple
    final_costs: tuple


def multi_start(problem, config: OptimConfig) -> MultiStartReport:
    """Run the optimizer from deterministic pseudo-random admissible starts
    and report the worst pairwise distance between the minimizers."""
    tg = problem.timegrid
    ua, ub = problem.bounds.arrays()
    nn = tg.nt + 1
    results = []
    for seed in config.seeds:
        rng = np.random.default_rng(int(seed))
        start = rng.uniform(ua, ub, size=(nn, ua.size))
        u0 = ControlPath.from_stacked(tg, start)
        results.append(optimize(problem, config, u0=u0))
    worst = 0.0
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            d = path_norm(tg, results[i].control.nodes - results[j].control.nodes)
            worst = max(worst, d)
    return MultiStartReport(
        seeds=tuple(config.seeds),
        max_pairwise_distance=worst,
        within_tol=bool(worst <= UNIQUENESS_TOL),
        terminations=tuple(r.termination for r in results),
        final_costs=tuple(r.cost_history[-1] for r in results),
    )
