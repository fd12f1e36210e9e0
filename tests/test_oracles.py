import dataclasses
import math
import re

import numpy as np
import pytest

from liouville_control import (
    AffineFlow,
    BoxBounds,
    ControlPath,
    CostSpec,
    DegenerateProbe,
    DriftPreset,
    DriftSpec,
    MomentSurrogateProblem,
    NotApplicable,
    Potential,
    Problem,
    UnknownPreset,
    UnsupportedDrift,
    affine_exact_density,
    control_cost_terms,
    density_preset_eval,
    expm,
    fd_directional_derivative,
    fit_order,
    lipschitz_probe,
    make_grid,
    make_timegrid,
    optimize,
    path_dot,
    path_norm,
    sample_function,
)
from liouville_control.cli import load_scenario


def test_identity_flow():
    tg = make_timegrid(1.0, 16)
    drift = DriftSpec(DriftPreset("zero"), ControlPath.zeros(tg, 1))
    pts = np.linspace(-3, 3, 11)[:, None]
    rho = affine_exact_density("gaussian", {"x0": 0.0, "v0": 1.0}, drift, 0.7, pts)
    assert np.abs(rho - density_preset_eval("gaussian", {"x0": 0.0, "v0": 1.0}, pts)).max() < 1e-14


def test_translation_flow():
    tg = make_timegrid(1.0, 16)
    c = 0.8
    drift = DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [c], [0.0]))
    pts = np.linspace(-3, 3, 11)[:, None]
    rho = affine_exact_density("gaussian", {"x0": 0.0, "v0": 1.0}, drift, 1.0, pts)
    exact = density_preset_eval("gaussian", {"x0": 0.0, "v0": 1.0}, pts - c)
    assert np.abs(rho - exact).max() < 1e-12


def test_dilation_flow_matches_spread_gaussian():
    tg = make_timegrid(1.0, 32)
    c = 0.5
    drift = DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [0.0], [c]))
    pts = np.linspace(-4, 4, 17)[:, None]
    rho = affine_exact_density("gaussian", {"x0": 0.0, "v0": 1.0}, drift, 1.0, pts)
    # representation formula: scale e^{ct}, so the density is the gaussian
    # with variance v0 e^{2ct}
    v = math.exp(2 * c)
    exact = density_preset_eval("gaussian", {"x0": 0.0, "v0": v}, pts)
    assert np.abs(rho - exact).max() < 1e-12


def test_flow_shift_closed_form_constant_controls():
    tg = make_timegrid(1.0, 8)
    c2, c1 = 0.6, 0.4
    drift = DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [c1], [c2]))
    flow = AffineFlow(drift)
    T = 1.0
    shift = flow.map_between(0.0, T, np.zeros((1, 1)))[0, 0]
    scale = flow.map_between(0.0, T, np.ones((1, 1)))[0, 0] - shift
    assert scale == pytest.approx(math.exp(c2 * T), rel=1e-13)
    exact_shift = math.exp(c2 * T) * c1 * (1.0 - math.exp(-c2 * T)) / c2
    assert shift == pytest.approx(exact_shift, rel=1e-12)
    assert flow.jacdet(T) == pytest.approx(math.exp(c2 * T), rel=1e-13)
    pts = np.array([[-2.0], [0.0], [1.5]])
    assert np.array_equal(flow.map_between(0.0, 0.0, pts), pts)


def test_affine_diagonal_absorbed():
    tg = make_timegrid(1.0, 8)
    drift = DriftSpec(
        DriftPreset("affine", {"A": [[0.3]], "b": [0.2]}), ControlPath.zeros(tg, 1)
    )
    flow = AffineFlow(drift)
    shift = flow.map_between(0.0, 1.0, np.zeros((1, 1)))[0, 0]
    scale = flow.map_between(0.0, 1.0, np.ones((1, 1)))[0, 0] - shift
    assert scale == pytest.approx(math.exp(0.3), rel=1e-13)
    with pytest.raises(UnsupportedDrift):
        AffineFlow(DriftSpec(DriftPreset("gaussian-bump"), ControlPath.zeros(tg, 1)))


@pytest.mark.parametrize(
    "A, b, u1, u2",
    [
        ([[0.3]], [0.2], [0.1], [0.5]),
        ([[0.0]], [0.0], [0.8], [-0.4]),
        ([[0.3, 0.0], [0.0, -0.2]], [0.2, -0.1], [0.4, 0.1], [0.6, -0.3]),
    ],
)
def test_constant_affine_flow_reproduces_the_diagonal_flow(A, b, u1, u2):
    # per axis, xdot = m x + c has psi_t(x0) = e^{mt} x0 + c (e^{mt} - 1) / m,
    # and c t where m = 0
    tg = make_timegrid(1.0, 16)
    drift = DriftSpec(DriftPreset("affine", {"A": A, "b": b}), ControlPath.constant(tg, u1, u2))
    flow = AffineFlow(drift)
    m, c = np.diag(A) + np.array(u2), np.array(b) + np.array(u1)
    pts = np.random.default_rng(0).normal(size=(20, len(b))) * 3.0
    for t in (0.0, 0.37, 1.0):
        scale = np.exp(m * t)
        shift = np.array([ci * t if mi == 0.0 else ci * math.expm1(mi * t) / mi for mi, ci in zip(m, c)])
        ref = (pts - shift) / scale
        assert np.abs(flow.map_between(t, 0.0, pts) - ref).max() <= 1e-13 * np.abs(ref).max()
        assert flow.jacdet(t) == pytest.approx(float(np.prod(scale)), rel=1e-13)


def test_constant_affine_flow_of_a_rotation():
    tg = make_timegrid(1.0, 16)
    w, c2 = 1.3, (0.2, -0.1)
    ctrl = ControlPath.constant(tg, [0.0, 0.0], c2)
    flow = AffineFlow(DriftSpec(DriftPreset("rotation", {"omega": w}), ctrl))
    t = 0.8
    assert flow.jacdet(t) == pytest.approx(math.exp(t * sum(c2)), rel=1e-14)
    # u2 = 0: psi_t^{-1} is the rotation by -w t
    flow0 = AffineFlow(DriftSpec(DriftPreset("rotation", {"omega": w}), ControlPath.zeros(tg, 2)))
    pts = np.array([[1.0, -0.5], [2.0, 3.0]])
    ct, st = math.cos(w * t), math.sin(w * t)
    assert np.abs(flow0.map_between(t, 0.0, pts) - pts @ np.array([[ct, -st], [st, ct]])).max() < 1e-14
    # a time-varying control has no exact flow here, whatever the affine part
    nodes = tg.nodes()[:, None]
    varying = ControlPath(tg, np.hstack([nodes, nodes]), np.zeros((tg.nt + 1, 2)))
    with pytest.raises(UnsupportedDrift):
        AffineFlow(DriftSpec(DriftPreset("rotation"), varying))


@pytest.mark.parametrize("a0", [DriftPreset("zero"), DriftPreset("affine", {"A": [[-0.3]], "b": [0.2]})])
def test_affine_flow_rejects_a_control_that_varies_in_time(a0):
    # a diagonal a0 too: the flow is one matrix exponential of constant controls
    tg = make_timegrid(1.0, 16)
    nodes = tg.nodes()[:, None]
    for ctrl in (ControlPath(tg, nodes, np.zeros_like(nodes)), ControlPath(tg, np.zeros_like(nodes), 0.5 - nodes)):
        with pytest.raises(UnsupportedDrift, match="constant controls"):
            AffineFlow(DriftSpec(a0, ctrl))


def test_expm_matches_the_eigendecomposition():
    M = np.array([[0.5, 2.0, -1.0], [0.3, -4.0, 0.2], [1.0, 0.0, 3.0]])
    lam, V = np.linalg.eig(M)
    ref = ((V * np.exp(lam)) @ np.linalg.inv(V)).real
    assert np.abs(expm(M) - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(expm(np.zeros((2, 2))), np.eye(2))

def test_exact_density_conserves_mass():
    g = make_grid(1, -8, 8, 512)
    tg = make_timegrid(1.0, 32)
    drift = DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [0.3], [0.4]))
    pts = g.cell_centers()
    for t in (0.0, 0.5, 1.0):
        rho = affine_exact_density("gaussian", {"x0": 0.0, "v0": 0.5}, drift, t, pts)
        assert rho.sum() * g.cell_volume == pytest.approx(1.0, abs=1e-9)


def moment_path(ctrl, x0, v0):
    """Mean and variance (nt + 1, d) of one gaussian N(x0, v0 I) on the surrogate's RK4 path."""
    sur = MomentSurrogateProblem(ctrl.timegrid, ("gaussian", {"x0": x0, "v0": v0}), CostSpec(),
                                 BoxBounds.symmetric(1.0, ctrl.dim))
    m, S = sur.path(ctrl.nodes)
    return m[:, 0], np.diagonal(S[:, 0], axis1=-2, axis2=-1)


def test_moment_ode_constant_controls():
    tg = make_timegrid(1.0, 64)
    m, v = moment_path(ControlPath.zeros(tg, 1), 0.3, 0.7)
    assert np.abs(m - 0.3).max() == 0.0
    assert np.abs(v - 0.7).max() == 0.0
    c = 0.5
    m2, v2 = moment_path(ControlPath.constant(tg, [0.0], [c]), 0.0, 1.0)
    exact = np.exp(2 * c * tg.nodes())
    assert np.abs(v2[:, 0] - exact).max() < 1e-8
    m3, v3 = moment_path(ControlPath.constant(tg, [c], [0.0]), 0.2, 1.0)
    assert np.abs(m3[:, 0] - (0.2 + c * tg.nodes())).max() < 1e-13


def test_moment_ode_time_varying_control():
    tg = make_timegrid(1.0, 128)
    nodes = tg.nodes()
    ctrl = ControlPath(tg, np.zeros((129, 1)), nodes[:, None])  # u2(t) = t
    m, v = moment_path(ctrl, 0.0, 1.0)
    assert v[-1, 0] == pytest.approx(math.exp(1.0), rel=1e-8)
    assert np.all(v > 0)


def test_moment_ode_and_the_surrogate_gradient_look_the_control_up_once(monkeypatch):
    # every RK stage control comes from the node array: the path, its cost
    # and its gradient make no value_at lookup
    tg = make_timegrid(1.0, 16)
    ctrl = ControlPath(tg, np.sin(tg.nodes())[:, None], 0.3 * np.cos(tg.nodes())[:, None])
    surrogate = MomentSurrogateProblem(
        tg, ("gaussian", {"x0": 0.1, "v0": 0.8}),
        CostSpec(gamma=0.5, theta=Potential("gaussian-well"), phi=Potential("gaussian-well")),
        BoxBounds.symmetric(1.0, 1),
    )
    calls = []
    value_at = ControlPath.value_at

    def counted(self, t):
        calls.append(np.shape(t))
        return value_at(self, t)

    monkeypatch.setattr(ControlPath, "value_at", counted)
    surrogate.path(ctrl.nodes)
    assert calls == []
    surrogate.reduced_cost(ctrl)
    surrogate.descent_gradient(ctrl)
    assert calls == []


def quad_problem(gamma=2.0, n=64, nt=32):
    g = make_grid(1, -8, 8, n)
    tg = make_timegrid(1.0, nt)
    return Problem(
        timegrid=tg,
        rho0=sample_function(g, "gaussian", {"x0": 0.0, "v0": 1.0}),
        a0=DriftPreset("zero"),
        cost=CostSpec(gamma=gamma),
        bounds=BoxBounds.symmetric(2.0, 1),
    )


def test_fd_directional_derivative_quadratic_cost():
    prob = quad_problem()
    tg = prob.timegrid
    rng = np.random.default_rng(1)
    u = ControlPath(tg, 0.3 * rng.normal(size=(33, 1)), 0.3 * rng.normal(size=(33, 1)))
    d = ControlPath(tg, rng.normal(size=(33, 1)), rng.normal(size=(33, 1)))
    fd = fd_directional_derivative(prob, u, d, 1e-3)
    exact = prob.cost.gamma * path_dot(tg, u.nodes, d.nodes)
    assert fd == pytest.approx(exact, rel=1e-8)
    assert fd_directional_derivative(prob, u, ControlPath.zeros(tg, 1), 1e-3) == 0.0


def test_fd_directional_derivative_rejects_inadmissible():
    prob = quad_problem()
    u = ControlPath.constant(prob.timegrid, [1.9], [0.0])
    d = ControlPath.constant(prob.timegrid, [1.0], [0.0])
    with pytest.raises(ValueError, match="leaves the admissible box"):
        fd_directional_derivative(prob, u, d, 0.5)
    for eps in (0.0, -1e-3):
        with pytest.raises(ValueError, match="eps must be positive"):
            fd_directional_derivative(prob, u, d, eps)


def test_lipschitz_probe_degenerate_and_finite():
    prob = quad_problem(n=64, nt=32)
    tg = prob.timegrid
    u = ControlPath.constant(tg, [0.2], [0.1])
    with pytest.raises(DegenerateProbe):
        lipschitz_probe(prob, u, u)
    v = ControlPath.constant(tg, [0.3], [0.1])
    r = lipschitz_probe(prob, u, v)
    assert 0.0 < r < 10.0


def test_lipschitz_ratio_stable_under_refinement():
    def ratio(n):
        prob = quad_problem(n=n, nt=64)
        tg = prob.timegrid
        u = ControlPath.constant(tg, [0.2], [0.1])
        v = ControlPath.constant(tg, [0.35], [0.15])
        return lipschitz_probe(prob, u, v)

    r1, r2 = ratio(128), ratio(256)
    assert abs(r1 - r2) <= 0.2 * max(r1, r2)


def test_fit_order_recovers_slope():
    hs = [0.1, 0.05, 0.025]
    errs = [3.0 * h**1.7 for h in hs]
    assert fit_order(hs, errs) == pytest.approx(1.7, abs=1e-12)


def test_fit_order_needs_two_step_sizes_with_a_positive_error():
    # zero errors carry no order: they are left out, and fewer than two
    # distinct step sizes left fit nothing
    with pytest.raises(DegenerateProbe):
        fit_order([0.1, 0.05, 0.025], [0.0, 0.0, 0.0])
    with pytest.raises(DegenerateProbe):
        fit_order([0.1], [0.3])
    with pytest.raises(DegenerateProbe):
        fit_order([0.1, 0.1, 0.05], [0.3, 0.2, 0.0])
    assert fit_order([0.1, 0.05, 0.025], [0.0, 3.0 * 0.05**2, 3.0 * 0.025**2]) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("hs, bad", [
    ([0.1, 0.05, -0.025], [-0.025]), ([0.1, 0.0], [0.0]), ([math.nan, 0.1, 0.05], [math.nan]), ([math.inf, 0.1], [math.inf]),
], ids=["negative", "zero", "nan", "inf"])
def test_fit_order_rejects_a_step_size_that_is_not_positive(hs, bad):
    # log(h) needs a positive finite h; the error names the bad ones
    with pytest.raises(ValueError, match=re.escape(f"positive finite numbers, got {bad}")):
        fit_order(hs, [1.0] * len(hs))


def test_surrogate_cost_closed_form():
    tg = make_timegrid(1.0, 64)
    cost = CostSpec(gamma=0.5, theta=Potential("quadratic"), phi=Potential("quadratic"))
    sur = MomentSurrogateProblem(
        timegrid=tg, rho0=("gaussian", {"x0": 0.3, "v0": 0.4}), cost=cost, bounds=BoxBounds.symmetric(1.0, 1)
    )
    u = ControlPath.zeros(tg, 1)
    # frozen moments: running (x0^2 + v0) T + terminal (x0^2 + v0)
    expected = (0.09 + 0.4) * 1.0 + (0.09 + 0.4)
    assert sur.reduced_cost(u) == pytest.approx(expected, rel=1e-12)


def test_surrogate_gradient_matches_fd():
    tg = make_timegrid(1.0, 128)
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.5]])
    cost = CostSpec(gamma=0.3, theta=theta, phi=Potential("gaussian-well"))
    sur = MomentSurrogateProblem(
        timegrid=tg, rho0=("gaussian", {"x0": 0.0, "v0": 0.5}), cost=cost, bounds=BoxBounds.symmetric(2.0, 1)
    )
    u = ControlPath.constant(tg, [0.2], [-0.1])
    rng = np.random.default_rng(4)
    d = ControlPath(tg, rng.normal(size=(129, 1)), rng.normal(size=(129, 1)))
    fd = fd_directional_derivative(sur, u, d, 1e-4)
    grad = sur.descent_gradient(u)
    an = path_dot(tg, grad.nodes, d.nodes)
    # the gradient is exact for the discrete cost, so what is left is the
    # central difference's O(eps^2) error: 3.3e-11 relative
    assert an == pytest.approx(fd, rel=1e-9)


def test_surrogate_needs_a_gaussian_mixture_and_an_affine_a0():
    tg = make_timegrid(1.0, 8)
    bounds = BoxBounds.symmetric(1.0, 1)
    with pytest.raises(NotApplicable, match="not a gaussian mixture"):
        MomentSurrogateProblem(tg, ("constant", {}), CostSpec(), bounds)
    with pytest.raises(UnsupportedDrift):
        MomentSurrogateProblem(tg, ("gaussian", {}), CostSpec(), bounds, DriftPreset("gaussian-bump"))
    with pytest.raises(UnknownPreset, match="v0 > 0"):
        MomentSurrogateProblem(tg, ("bimodal-gaussian", {"v0b": 0.0}), CostSpec(), bounds)
    with pytest.raises(ValueError, match="x0 needs 1 or grid.dim = 1 values, got 2"):
        MomentSurrogateProblem(tg, ("gaussian", {"x0": [0.0, 1.0]}), CostSpec(), bounds)


def surrogate_of(name, nt=None):
    """The moment surrogate of a shipped scenario, on its time grid or on nt steps."""
    cfg = load_scenario(name)
    prob = cfg.problem()
    tg = prob.timegrid if nt is None else make_timegrid(prob.timegrid.T, nt)
    return MomentSurrogateProblem(tg, cfg.rho0, prob.cost, prob.bounds, prob.a0), cfg, prob


@pytest.mark.parametrize("name", ["gaussian-tracking-1d", "sparse-ladder", "bimodal-stabilize-1d", "confining-2d"])
def test_surrogate_gradient_matches_complex_step(name):
    # every node of the delta-free cost, the state cost on complex nodes plus
    # 1/2 gamma ||u||^2 + 1/2 nu ||u'||^2: bimodal has two components and
    # nu > 0, confining-2d is 2D under the rotation a0
    sur, _, _ = surrogate_of(name, nt=32)
    tg, cost = sur.timegrid, sur.cost
    w = tg.trapezoid_weights()[:, None]

    def cost_of(Z):
        return sur.state_cost(Z) + 0.5 * cost.gamma * (w * Z * Z).sum() + 0.5 * cost.nu * (np.diff(Z, axis=0) ** 2).sum() / tg.dt

    rng = np.random.default_rng(7)
    d = len(sur.bounds.ua) // 2
    U = 0.5 * rng.uniform(-1.0, 1.0, size=(tg.nt + 1, 2 * d))
    u = ControlPath.from_stacked(tg, U)
    assert cost_of(U) == pytest.approx(sur.reduced_cost(u) - cost.delta * control_cost_terms(u)[1], rel=1e-14)
    h = 1e-30
    cs = np.zeros_like(U)
    for idx in np.ndindex(*U.shape):
        Z = U.astype(complex)
        Z[idx] += 1j * h
        cs[idx] = cost_of(Z).imag / h
    grad = sur.descent_gradient(u).nodes * w
    assert np.abs(grad - cs).max() <= 1e-12 * np.abs(cs).max()


# measured on the shipped settings: the surrogate's J* at vi_tol 1e-8, and
# the shipped PDE optimum's distance ||u_h - u*|| and excess J_h - J*
OPTIMA = {
    "gaussian-tracking-1d": (0.39211078, 5.27e-4, 3.9e-4),
    "sparse-ladder": (0.08785279, 4.00e-4, 8.9e-5),
    "confining-2d": (1.37745955, 4.22e-2, 0.112),
}


@pytest.mark.parametrize("name", list(OPTIMA))
def test_surrogate_optimum_and_the_distance_of_the_pde_optimum(name):
    sur, cfg, prob = surrogate_of(name)
    tg = prob.timegrid
    pde = optimize(prob, cfg.optim, u0=cfg.control)
    res = optimize(sur, dataclasses.replace(cfg.optim, vi_tol=1e-8, max_iters=200), u0=pde.control)
    j_star, distance, excess = OPTIMA[name]
    assert res.termination == "converged"
    assert res.cost_history[-1] == pytest.approx(j_star, abs=1e-6)
    assert path_norm(tg, pde.control.nodes - res.control.nodes) <= 2.0 * distance
    assert 0.0 < pde.cost_history[-1] - res.cost_history[-1] <= 2.0 * excess
