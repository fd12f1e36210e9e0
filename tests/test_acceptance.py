"""Acceptance suite: one test per release criterion, each printing a
pass line with the measured quantity.

Desk scale is d = 1 on [-8, 8] with n = 256, T = 1, nt = 256 unless a
criterion needs a different resolution (stated inline).  Frozen reference
numbers marked BOOTSTRAP were produced by this implementation's own
higher-resolution runs and are used as self-refinement oracles.
"""

import dataclasses
import json
import math

import numpy as np

from liouville_control import (
    AffineFlow,
    BoxBounds,
    ControlPath,
    CostSpec,
    DriftPreset,
    DriftSpec,
    MomentSurrogateProblem,
    OptimConfig,
    Potential,
    Problem,
    ScalarField,
    affine_exact_density,
    energy_certificate,
    fd_directional_derivative,
    fit_order,
    frechet_probe,
    h1_riesz,
    make_grid,
    make_timegrid,
    moments,
    multi_start,
    optimize,
    path_dot,
    potential_eval,
    reduced_gradient,
    sample_function,
    smallness_certificate,
    solve_adjoint,
    solve_forward,
)
from liouville_control.cli import load_scenario, run_command
from liouville_control.reduced import assemble_integral_path

DOMAIN = (-8.0, 8.0)
N_DESK = 256
NT_DESK = 256

# BOOTSTRAP: L1 errors of this implementation at n = nt = 1024 on the
# dilation scenario (u2 = 0.5, gaussian(0, 1)), measured once and frozen.
BOOTSTRAP_L1_N1024 = {"upwind-fv": 3.501956e-03, "muscl-fv": 2.853876e-05}

# BOOTSTRAP: |moment(solver) - moment(ODE)| at T, n = nt = 256, per scheme
# and scenario; tolerance in criterion 4 is twice these plus rounding floor.
BOOTSTRAP_MOMENTS_N256 = {
    ("upwind-fv", "translation"): (2.51e-13, 2.4375e-02),
    ("upwind-fv", "dilation"): (0.0, 1.031952e-01),
    ("upwind-fv", "combined"): (6.640745e-03, 3.803519e-02),
    ("muscl-fv", "translation"): (9.80e-08, 8.939063e-04),
    ("muscl-fv", "dilation"): (1.2e-16, 1.908462e-03),
    ("muscl-fv", "combined"): (1.897682e-04, 8.393358e-04),
}

SCENARIOS = ("gaussian-tracking-1d", "bimodal-stabilize-1d", "confining-2d", "sparse-ladder")


def desk_grid(n=N_DESK):
    return make_grid(1, DOMAIN[0], DOMAIN[1], n)


def desk_gaussian(n=N_DESK, x0=0.0, v0=1.0):
    return sample_function(desk_grid(n), "gaussian", {"x0": x0, "v0": v0})


def zero_a0_drift(tg, u1, u2):
    return DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [u1], [u2]))


def test_criterion_01_conservation():
    tg = make_timegrid(1.0, NT_DESK)
    rho0 = desk_gaussian()
    worst = 0.0
    for u1 in (0.0, 0.4):
        traj = solve_forward(rho0, zero_a0_drift(tg, u1, 0.0), None, tg, scheme="upwind-fv")
        worst = max(worst, float(np.abs(traj.mass - 1.0).max()))
    assert worst <= 1e-12
    print(f"criterion 01 conservation: PASS (max |mass - 1| = {worst:.3e})")


def test_criterion_02_positivity():
    tg = make_timegrid(1.0, NT_DESK)
    g = desk_grid()
    rho0 = desk_gaussian()
    src = sample_function(g, "gaussian", {"x0": 1.0, "v0": 0.3}).values * 0.1
    worst = np.inf
    for u1, u2, source in ((0.5, 0.3, None), (0.4, 0.2, src)):
        traj = solve_forward(rho0, zero_a0_drift(tg, u1, u2), source, tg, scheme="upwind-fv")
        worst = min(worst, float(traj.nodes.min()))
    assert worst >= -1e-14
    print(f"criterion 02 positivity: PASS (min rho = {worst:.3e})")


def test_criterion_03_oracle_convergence():
    def l1_err(n, scheme):
        g = desk_grid(n)
        tg = make_timegrid(1.0, n)
        drift = zero_a0_drift(tg, 0.0, 0.5)
        traj = solve_forward(sample_function(g, "gaussian", {"x0": 0.0, "v0": 1.0}),
                             drift, None, tg, scheme=scheme)
        exact = affine_exact_density("gaussian", {"x0": 0.0, "v0": 1.0}, drift, tg.T,
                                     g.cell_centers())
        return float(np.abs(traj.nodes[-1].ravel() - exact).sum() * g.cell_volume)

    ns = [64, 128, 256, 512]
    hs = [(DOMAIN[1] - DOMAIN[0]) / n for n in ns]
    for scheme, min_order in (("upwind-fv", 0.8), ("muscl-fv", 1.6)):
        errs = [l1_err(n, scheme) for n in ns]
        order = fit_order(hs, errs)
        bound = 4.0 * BOOTSTRAP_L1_N1024[scheme]
        assert order >= min_order, f"{scheme} order {order}"
        assert errs[-1] < bound, f"{scheme} n=512 error {errs[-1]} vs bootstrap bound {bound}"
        print(
            f"criterion 03 oracle convergence [{scheme}]: PASS "
            f"(order = {order:.2f} >= {min_order}, e512 = {errs[-1]:.3e} < {bound:.3e})"
        )


def test_criterion_04_moment_fidelity():
    tg = make_timegrid(1.0, NT_DESK)
    g = desk_grid()
    rho0 = desk_gaussian()
    cases = {"translation": (0.4, 0.0), "dilation": (0.0, 0.5), "combined": (0.3, 0.25)}
    for scheme in ("upwind-fv", "muscl-fv"):
        for name, (u1, u2) in cases.items():
            ctrl = ControlPath.constant(tg, [u1], [u2])
            traj = solve_forward(rho0, DriftSpec(DriftPreset("zero"), ctrl), None, tg,
                                 scheme=scheme)
            mom = moments(ScalarField(g, traj.nodes[-1]))
            ode_m, ode_S = MomentSurrogateProblem(tg, ("gaussian", {"x0": 0.0, "v0": 1.0}), CostSpec(),
                                                  BoxBounds.symmetric(1.0, 1)).path(ctrl.nodes)
            em = abs(mom.mean[0] - ode_m[-1, 0, 0])
            ev = abs(mom.variance[0] - ode_S[-1, 0, 0, 0])
            bm, bv = BOOTSTRAP_MOMENTS_N256[(scheme, name)]
            assert em <= 2.0 * bm + 1e-12, f"{scheme}/{name} mean error {em}"
            assert ev <= 2.0 * bv + 1e-12, f"{scheme}/{name} variance error {ev}"
    print("criterion 04 moment fidelity: PASS (all six scheme/scenario pairs within 2x scheme error)")


def test_criterion_05_adjoint_exactness():
    g = desk_grid()
    tg = make_timegrid(1.0, NT_DESK)
    cost = CostSpec(gamma=1.0, theta=Potential("gaussian-well"), phi=Potential("gaussian-well"))
    traj = solve_adjoint(cost, zero_a0_drift(tg, 0.0, 0.0), tg, g)
    pts = g.cell_centers()
    worst = 0.0
    for n in range(0, tg.nt + 1, 16):
        t = n * tg.dt
        exact = -potential_eval(cost.phi, pts) - (tg.T - t) * potential_eval(cost.theta, pts)
        worst = max(worst, float(np.abs(traj.nodes[n].ravel() - exact).max()))
    assert worst <= 1e-12

    def l2_err(n):
        gg = desk_grid(n)
        tgg = make_timegrid(1.0, n)
        drift = zero_a0_drift(tgg, 0.5, 0.3)
        qq = solve_adjoint(CostSpec(gamma=1.0, phi=Potential("gaussian-well")), drift, tgg, gg)
        flow = AffineFlow(drift)
        out = 0.0
        for nstep in (0, n // 2):
            mapped = flow.map_between(nstep * tgg.dt, tgg.T, gg.cell_centers())
            exact = -potential_eval(Potential("gaussian-well"), mapped)
            diff = qq.nodes[nstep].ravel() - exact
            out = max(out, math.sqrt(float((diff**2).sum() * gg.cell_volume)))
        return out

    errs = [l2_err(n) for n in (128, 256, 512)]
    assert errs[1] < 3e-3
    assert errs[0] / errs[1] >= 2.8 and errs[1] / errs[2] >= 2.8
    print(
        f"criterion 05 adjoint exactness: PASS (drift-free max err = {worst:.3e}, "
        f"affine refinement ratios = {errs[0]/errs[1]:.2f}, {errs[1]/errs[2]:.2f})"
    )


def _tracking_problem(n, nt, scheme="muscl-fv", gamma=0.1):
    g = desk_grid(n)
    tg = make_timegrid(1.0, nt)
    theta = Potential.tracking([[0.0, 0.0], [0.5, 0.4], [1.0, 0.7]])
    return Problem(
        grid=g,
        timegrid=tg,
        rho0=sample_function(g, "gaussian", {"x0": 0.0, "v0": 0.5}),
        a0=DriftPreset("zero"),
        cost=CostSpec(gamma=gamma, theta=theta, phi=Potential("gaussian-well")),
        bounds=BoxBounds.symmetric(2.0, 1),
        scheme=scheme,
    )


def test_criterion_06_gradient_check():
    # Taylor-remainder slope of the control-to-state map, interior scenario
    g = desk_grid(N_DESK)
    tg = make_timegrid(1.0, NT_DESK)
    prob = Problem(
        grid=g, timegrid=tg,
        rho0=sample_function(g, "gaussian", {"x0": 2.0, "v0": 0.5}),
        a0=DriftPreset("zero"), cost=CostSpec(gamma=0.1),
        bounds=BoxBounds.symmetric(2.0, 1), scheme="upwind-fv",
    )
    u = ControlPath.constant(tg, [0.5], [0.25])
    t = tg.nodes()
    d = ControlPath(tg, np.sin(np.pi * t)[:, None], 0.3 * np.cos(np.pi * t)[:, None])
    rep = frechet_probe(u, d, [0.2, 0.1, 0.05, 0.025], prob)
    assert 1.8 <= rep.slope <= 2.2

    def rel_err(n):
        p = _tracking_problem(n, 128)
        tgn = p.timegrid
        uu = ControlPath.constant(tgn, [0.2], [0.1])
        tt = tgn.nodes()
        dd = ControlPath(tgn, np.sin(np.pi * tt)[:, None], 0.5 * np.cos(2 * np.pi * tt)[:, None])
        fd = fd_directional_derivative(p, uu, dd, 1e-4)
        an = path_dot(tgn, reduced_gradient(uu, p).stacked(), dd.stacked())
        return abs(fd - an) / abs(fd)

    e256, e512 = rel_err(256), rel_err(512)
    assert e256 <= 5e-2
    assert e512 < e256
    print(
        f"criterion 06 gradient check: PASS (slope = {rep.slope:.3f}, "
        f"fd rel err {e256:.2e} @256 -> {e512:.2e} @512)"
    )


def test_criterion_07_energy_certificates():
    # Gronwall recursion on every shipped scenario at C_cert = 2
    for name in SCENARIOS:
        cfg = load_scenario(name)
        prob = cfg.problem()
        u = cfg.control
        traj = prob.solve_forward_for(u)
        drift = prob.drift_for(u)
        for m in (0, 1):
            for k in (0, 2):
                cert = energy_certificate(traj, drift, prob.source, m, k, C_cert=2.0)
                assert cert.passed, f"{name} m={m} k={k} fitted C = {cert.fitted_C}"

    # constant-divergence exact decay: |rho|_L2 = e^{-ct/2} |rho0|_L2
    tg = make_timegrid(1.0, NT_DESK)
    rho0 = desk_gaussian()
    c = 0.5
    drift = zero_a0_drift(tg, 0.0, c)
    traj = solve_forward(rho0, drift, None, tg, scheme="muscl-fv")
    l2 = traj.norms(0, 0)
    exact = l2[0] * math.exp(-c * tg.T / 2.0)
    rel = abs(l2[-1] - exact) / exact
    assert rel <= 5e-3
    assert l2[-1] <= exact * (1.0 + 5e-3)  # dissipation only lowers the norm
    cert = energy_certificate(traj, drift, None, 0, 0, C_cert=0.5)
    assert cert.passed
    print(
        f"criterion 07 energy certificates: PASS (4 scenarios x 4 (m,k) at C=2; "
        f"exact decay rel err = {rel:.2e})"
    )


def test_criterion_08_h1_riesz_order():
    gamma, nu = 1.0, 0.5
    errs = []
    nts = [64, 128, 256, 512]
    for nt in nts:
        tg = make_timegrid(1.0, nt)
        t = tg.nodes()
        rhs = (nu * math.pi**2 + gamma) * np.sin(np.pi * t)
        mu = h1_riesz(rhs, gamma, nu, tg)
        errs.append(np.abs(mu - np.sin(np.pi * t)).max())
    order = fit_order([1.0 / nt for nt in nts], errs)
    assert abs(order - 2.0) <= 0.2
    print(f"criterion 08 H1 Riesz: PASS (manufactured-solution order = {order:.3f})")


def test_criterion_09_optimizer_contracts():
    # quadratic-only: exact machinery, tight tolerance
    g = desk_grid(128)
    tg = make_timegrid(1.0, 64)
    quad = Problem(
        grid=g, timegrid=tg, rho0=sample_function(g, "gaussian", {"x0": 0.0, "v0": 0.5}),
        a0=DriftPreset("zero"), cost=CostSpec(gamma=1.0), bounds=BoxBounds.symmetric(1.0, 1),
    )
    seen = []
    original = quad.reduced_cost
    spy = lambda c: (seen.append(c.stacked().copy()), original(c))[1]
    object.__setattr__(quad, "reduced_cost", spy)  # Problem is frozen
    res = optimize(quad, OptimConfig(max_iters=30, vi_tol=1e-6),
                   u0=ControlPath.constant(tg, [0.6], [-0.3]))
    assert res.termination == "converged"
    assert res.vi_history[-1] <= 1e-6
    hist = res.cost_history
    assert all(b <= a + 1e-14 for a, b in zip(hist, hist[1:]))
    ua, ub = quad.bounds.arrays()
    assert all(np.all(u >= ua - 1e-14) and np.all(u <= ub + 1e-14) for u in seen)

    # tracking scenario: residuals of the full first-order system
    cfg = load_scenario("gaussian-tracking-1d")
    prob = cfg.problem()
    res2 = optimize(prob, cfg.optim, u0=cfg.control)
    assert res2.termination == "converged"
    hist2 = res2.cost_history
    assert all(b <= a + 1e-14 for a, b in zip(hist2, hist2[1:]))
    kkt = res2.kkt
    assert kkt.stationarity <= 1e-4, f"kkt components {kkt}"
    print(
        f"criterion 09 optimizer contracts: PASS (quadratic vi = {res.vi_history[-1]:.2e}, "
        f"tracking kkt stationarity = {kkt.stationarity:.2e})"
    )


def test_criterion_10_sparsity_ladder():
    cfg = load_scenario("sparse-ladder")
    base = cfg.problem()
    u0 = ControlPath.zeros(base.timegrid, 1)
    integral, _ = assemble_integral_path(base, base.solve_forward_for(u0),
                                         base.solve_adjoint_for(u0))
    max_adjoint_integral = float(np.abs(integral).max())
    ladder = (0.0, 0.02, 0.05, 0.1, 0.2)
    assert max_adjoint_integral < ladder[-1], "scenario premise: top rung dominates"
    counts = []
    warm = None
    opt = dataclasses.replace(cfg.optim, max_iters=150)
    for delta in ladder:
        prob = dataclasses.replace(base, cost=dataclasses.replace(base.cost, delta=delta))
        res = optimize(prob, opt, u0=warm)
        warm = res.control
        stacked = res.control.stacked()
        counts.append(int(np.sum(np.max(np.abs(stacked), axis=1) <= 1e-10)))
    assert all(b >= a for a, b in zip(counts, counts[1:])), counts
    assert counts[-1] == base.timegrid.nt + 1, "top rung must annihilate the control"
    print(
        f"criterion 10 sparsity ladder: PASS (zero nodes {counts}, "
        f"max |adjoint integral| = {max_adjoint_integral:.3f} < {ladder[-1]})"
    )


def test_criterion_11_uniqueness_regime():
    g = desk_grid(256)
    tg = make_timegrid(1.0, 128)
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.3]])
    prob = Problem(
        grid=g, timegrid=tg, rho0=sample_function(g, "gaussian", {"x0": 0.0, "v0": 0.5}),
        a0=DriftPreset("zero"),
        cost=CostSpec(gamma=1.0e4, theta=theta, phi=Potential("gaussian-well")),
        bounds=BoxBounds.symmetric(1.0, 1), scheme="muscl-fv",
    )
    cert = smallness_certificate(prob, C_universal=1.0)
    assert cert.passed and cert.smallness_ratio < 2.0
    report = multi_start(
        prob,
        OptimConfig(max_iters=100, vi_tol=1e-2, step0=1.0, seeds=(0, 1, 2, 3, 4)),
    )
    assert report.max_pairwise_distance <= 1e-3
    print(
        f"criterion 11 uniqueness regime: PASS (ratio = {cert.smallness_ratio:.3f} < 2, "
        f"max pairwise = {report.max_pairwise_distance:.2e})"
    )


def test_criterion_12_determinism(tmp_path):
    cfg = {
        "grid": {"dim": 1, "lo": [-8.0], "hi": [8.0], "n": [128]},
        "time": {"T": 1.0, "nt": 64},
        "rho0": {"preset": "gaussian", "params": {"x0": 0.0, "v0": 0.5}},
        "cost": {"gamma": 0.2, "theta": "tracking", "phi": "gaussian-well",
                 "track_path": [[0.0, 0.0], [1.0, 0.3]]},
        "optim": {"max_iters": 25, "vi_tol": 5e-3, "step0": 2.0, "seeds": [0, 1]},
        "solver": {"scheme": "muscl-fv"},
    }
    cfgp = tmp_path / "det.json"
    cfgp.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_command(["optimize", "--config", str(cfgp), "--out", str(out)]) == 0
        outs.append((out / "iterations.csv").read_bytes())
    assert outs[0] == outs[1]
    print(f"criterion 12 determinism: PASS (iterations.csv bit-identical, {len(outs[0])} bytes)")
