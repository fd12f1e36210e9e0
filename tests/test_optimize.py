import dataclasses

import numpy as np
import pytest

from liouville_control import (
    BoxBounds,
    ControlPath,
    CostSpec,
    DriftPreset,
    MomentSurrogateProblem,
    OptimConfig,
    Potential,
    Problem,
    ScalarField,
    kkt_residual,
    make_grid,
    make_timegrid,
    moments,
    multi_start,
    optimize,
    sample_function,
)


def build_problem(n=128, nt=64, gamma=1.0, delta=0.0, nu=0.0, theta=None, phi=None,
                  x0=0.0, v0=0.5, scheme="upwind-fv", radius=1.0):
    g = make_grid(1, -8, 8, n)
    tg = make_timegrid(1.0, nt)
    return Problem(
        grid=g,
        timegrid=tg,
        rho0=sample_function(g, "gaussian", {"x0": x0, "v0": v0}),
        a0=DriftPreset("zero"),
        cost=CostSpec(
            gamma=gamma, delta=delta, nu=nu,
            theta=theta or Potential("zero"), phi=phi or Potential("zero"),
        ),
        bounds=BoxBounds.symmetric(radius, 1),
        scheme=scheme,
    )


def test_pure_quadratic_converges_to_zero():
    prob = build_problem(gamma=1.0)
    u0 = ControlPath.constant(prob.timegrid, [0.7], [-0.4])
    res = optimize(prob, OptimConfig(max_iters=20, vi_tol=1e-8), u0=u0)
    assert res.termination == "converged"
    assert res.iterations <= 5
    assert np.abs(res.control.stacked()).max() == 0.0
    assert res.kkt.vi_residual == 0.0


def test_l1_annihilates_control():
    prob = build_problem(gamma=1.0, delta=0.5)
    u0 = ControlPath.constant(prob.timegrid, [0.3], [-0.2])
    res = optimize(prob, OptimConfig(max_iters=20, vi_tol=1e-10), u0=u0)
    assert res.termination == "converged"
    assert np.abs(res.control.stacked()).max() == 0.0


def test_monotone_costs_and_feasible_iterates():
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.4]])
    prob = build_problem(gamma=0.1, theta=theta, phi=Potential("gaussian-well"), scheme="muscl-fv")
    seen = []
    original = prob.reduced_cost

    def recording(control):
        seen.append(control.stacked().copy())
        return original(control)

    object.__setattr__(prob, "reduced_cost", recording)  # Problem is frozen
    res = optimize(prob, OptimConfig(max_iters=25, vi_tol=1e-4, step0=2.0))
    hist = res.cost_history
    assert all(b <= a + 1e-14 for a, b in zip(hist, hist[1:]))
    ua, ub = prob.bounds.arrays()
    for u in seen:
        assert np.all(u >= ua - 1e-14) and np.all(u <= ub + 1e-14)
    assert np.all(res.control.stacked() >= ua) and np.all(res.control.stacked() <= ub)


def test_fixed_point_returns_unchanged():
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.3]])
    prob = build_problem(gamma=0.2, theta=theta, phi=Potential("gaussian-well"), scheme="muscl-fv")
    cfg = OptimConfig(max_iters=60, vi_tol=2e-3, step0=2.0)
    res = optimize(prob, cfg)
    assert res.termination == "converged"
    again = optimize(prob, cfg, u0=res.control)
    assert again.iterations == 0
    assert again.termination == "converged"
    assert np.array_equal(again.control.stacked(), res.control.stacked())


@pytest.mark.parametrize("config, termination", [
    (OptimConfig(max_iters=60, vi_tol=2e-3, step0=2.0), "converged"),
    (OptimConfig(max_iters=60, vi_tol=1e-12, step0=1e3), "linesearch_failure"),
    (OptimConfig(max_iters=3, vi_tol=1e-12, step0=2.0), "max_iters"),
    (OptimConfig(max_iters=0, vi_tol=2e-3, step0=2.0), "max_iters"),
], ids=["converged", "linesearch-failure", "max-iters", "no-iterations"])
def test_final_kkt_takes_the_gradient_at_the_final_control(config, termination):
    # one gradient per iterate, the final control's last, whatever ends the loop
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.3]])
    prob = build_problem(gamma=0.2, theta=theta, phi=Potential("gaussian-well"), scheme="muscl-fv")
    grads = []
    original = prob.descent_gradient

    def counting(control):
        grads.append(control.stacked().copy())
        return original(control)

    object.__setattr__(prob, "descent_gradient", counting)  # Problem is frozen
    res = optimize(prob, config)
    assert res.termination == termination
    assert len(grads) == res.iterations + 1
    assert np.array_equal(grads[-1], res.control.stacked())
    assert res.kkt == kkt_residual(res.control, prob, gradient=original(res.control))


def test_tracking_beats_zero_control_by_surrogate_margin():
    # ODE-restricted twin of the same cost: under an affine drift the
    # gaussian ensemble is exactly parameterized by (mean, covariance), so
    # its optimal value is an independent reference for the PDE optimizer
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.3]])
    cost = CostSpec(gamma=0.2, theta=theta, phi=Potential("gaussian-well"))
    prob = build_problem(gamma=0.2, theta=theta, phi=Potential("gaussian-well"),
                         n=256, nt=128, scheme="muscl-fv")
    res = optimize(prob, OptimConfig(max_iters=80, vi_tol=1e-4, step0=2.0))
    sur = MomentSurrogateProblem(timegrid=prob.timegrid, rho0=("gaussian", {"x0": 0.0, "v0": 0.5}),
                                 cost=cost, bounds=prob.bounds)
    res_s = optimize(sur, OptimConfig(max_iters=300, vi_tol=1e-6, step0=2.0))
    margin_surrogate = res_s.cost_history[0] - res_s.cost_history[-1]
    margin_pde = res.cost_history[0] - res.cost_history[-1]
    assert margin_surrogate > 0.1
    assert margin_pde >= 0.5 * margin_surrogate
    # final state actually moved toward the target
    mom = moments(ScalarField(prob.grid, prob.solve_forward_for(res.control).nodes[-1]))
    assert abs(mom.mean[0] - 0.3) < abs(0.0 - 0.3)


def test_sparsity_ladder_monotone():
    base = build_problem(gamma=1.0, theta=Potential("gaussian-well"), x0=0.05, v0=0.1,
                         n=128, nt=64, scheme="muscl-fv")
    counts = []
    warm = None
    for delta in (0.0, 0.05, 0.2):
        prob = dataclasses.replace(base, cost=dataclasses.replace(base.cost, delta=delta))
        res = optimize(prob, OptimConfig(max_iters=120, vi_tol=1e-4, step0=2.0), u0=warm)
        warm = res.control
        stacked = res.control.stacked()
        counts.append(int(np.sum(np.max(np.abs(stacked), axis=1) <= 1e-10)))
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[2] > counts[0]


def test_multistart_quadratic_agrees_exactly():
    prob = build_problem(gamma=1.0, n=64, nt=32)
    report = multi_start(prob, OptimConfig(max_iters=20, vi_tol=1e-10, seeds=(0, 1, 2)))
    assert report.max_pairwise_distance == 0.0
    assert report.within_tol
    assert all(t == "converged" for t in report.terminations)


def test_multistart_reports_without_claims_outside_smallness():
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.3]])
    prob = build_problem(gamma=0.5, theta=theta, phi=Potential("gaussian-well"),
                         n=64, nt=32, scheme="muscl-fv")
    report = multi_start(prob, OptimConfig(max_iters=40, vi_tol=1e-3, seeds=(0, 1)))
    # the smallness certificate is the caller's, at its universal constant
    assert not any(f.name.startswith("smallness") for f in dataclasses.fields(report))
    assert np.isfinite(report.max_pairwise_distance)


def test_multistart_needs_two_seeds():
    prob = build_problem(n=64, nt=32)
    with pytest.raises(ValueError):
        multi_start(prob, OptimConfig(seeds=(0,)))


def test_optimconfig_validation():
    with pytest.raises(ValueError):
        OptimConfig(step0=0.0)
    with pytest.raises(ValueError):
        OptimConfig(vi_tol=0.0)


def test_surrogate_runs_through_same_loop():
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.5]])
    cost = CostSpec(gamma=0.3, theta=theta, phi=Potential("gaussian-well"))
    tg = make_timegrid(1.0, 64)
    sur = MomentSurrogateProblem(timegrid=tg, rho0=("gaussian", {"x0": 0.0, "v0": 0.5}), cost=cost,
                                 bounds=BoxBounds.symmetric(1.0, 1))
    # the surrogate's gradient is the exact one of the cost it reports, so
    # stationarity is reachable down to rounding
    res = optimize(sur, OptimConfig(max_iters=200, vi_tol=1e-8))
    assert res.termination == "converged"
    assert res.kkt.vi_residual <= 1e-8
    hist = res.cost_history
    assert all(b <= a + 1e-14 for a, b in zip(hist, hist[1:]))
