import math

import numpy as np
import pytest

from liouville_control import (
    AffineFlow,
    BoxBounds,
    ConstantAffineFlow,
    ControlPath,
    CostSpec,
    DegenerateProbe,
    DriftPreset,
    DriftSpec,
    MomentSurrogateProblem,
    Potential,
    Problem,
    UnsupportedDrift,
    affine_exact_density,
    fd_directional_derivative,
    fit_order,
    lipschitz_probe,
    make_grid,
    make_timegrid,
    moment_ode,
    path_dot,
    sample_function,
)
from liouville_control.oracles import density_preset_eval, expm


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
    assert flow.scale(T)[0] == pytest.approx(math.exp(c2 * T), rel=1e-13)
    exact_shift = math.exp(c2 * T) * c1 * (1.0 - math.exp(-c2 * T)) / c2
    assert flow.shift(T)[0] == pytest.approx(exact_shift, rel=1e-12)
    assert flow.jacdet(T) == pytest.approx(math.exp(c2 * T), rel=1e-13)
    assert flow.scale(0.0)[0] == 1.0 and flow.shift(0.0)[0] == 0.0


def test_affine_diagonal_absorbed():
    tg = make_timegrid(1.0, 8)
    drift = DriftSpec(
        DriftPreset("affine", {"A": [[0.3]], "b": [0.2]}), ControlPath.zeros(tg, 1)
    )
    flow = AffineFlow(drift)
    assert flow.scale(1.0)[0] == pytest.approx(math.exp(0.3), rel=1e-13)
    with pytest.raises(UnsupportedDrift):
        AffineFlow(
            DriftSpec(
                DriftPreset("affine", {"A": [[0.1, 0.2], [0.0, 0.1]], "b": [0.0, 0.0]}),
                ControlPath.zeros(tg, 2),
            )
        )
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
    tg = make_timegrid(1.0, 16)
    drift = DriftSpec(DriftPreset("affine", {"A": A, "b": b}), ControlPath.constant(tg, u1, u2))
    diag, general = AffineFlow(drift), ConstantAffineFlow(drift)
    pts = np.random.default_rng(0).normal(size=(20, len(b))) * 3.0
    for t in (0.0, 0.37, 1.0):
        ref = diag.map_inverse(t, pts)
        assert np.abs(general.map_inverse(t, pts) - ref).max() <= 1e-13 * np.abs(ref).max()
        assert general.jacdet(t) == pytest.approx(diag.jacdet(t), rel=1e-13)


def test_constant_affine_flow_of_a_rotation():
    tg = make_timegrid(1.0, 16)
    w, c2 = 1.3, (0.2, -0.1)
    ctrl = ControlPath.constant(tg, [0.0, 0.0], c2)
    flow = ConstantAffineFlow(DriftSpec(DriftPreset("rotation", {"omega": w}), ctrl))
    t = 0.8
    assert flow.jacdet(t) == pytest.approx(math.exp(t * sum(c2)), rel=1e-14)
    # u2 = 0: psi_t^{-1} is the rotation by -w t
    flow0 = ConstantAffineFlow(DriftSpec(DriftPreset("rotation", {"omega": w}), ControlPath.zeros(tg, 2)))
    pts = np.array([[1.0, -0.5], [2.0, 3.0]])
    ct, st = math.cos(w * t), math.sin(w * t)
    assert np.abs(flow0.map_inverse(t, pts) - pts @ np.array([[ct, -st], [st, ct]])).max() < 1e-14
    # a non-diagonal affine part under a time-varying control has no closed form here
    nodes = tg.nodes()[:, None]
    varying = ControlPath(tg, np.hstack([nodes, nodes]), np.zeros((tg.nt + 1, 2)))
    with pytest.raises(UnsupportedDrift):
        ConstantAffineFlow(DriftSpec(DriftPreset("rotation"), varying))


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


def test_moment_ode_constant_controls():
    tg = make_timegrid(1.0, 64)
    path = moment_ode(ControlPath.zeros(tg, 1), 0.3, 0.7)
    assert np.abs(path.m - 0.3).max() == 0.0
    assert np.abs(path.v - 0.7).max() == 0.0
    c = 0.5
    path2 = moment_ode(ControlPath.constant(tg, [0.0], [c]), 0.0, 1.0)
    exact = np.exp(2 * c * tg.nodes())
    assert np.abs(path2.v[:, 0] - exact).max() < 1e-8
    path3 = moment_ode(ControlPath.constant(tg, [c], [0.0]), 0.2, 1.0)
    assert np.abs(path3.m[:, 0] - (0.2 + c * tg.nodes())).max() < 1e-13


def test_moment_ode_time_varying_control():
    tg = make_timegrid(1.0, 128)
    nodes = tg.nodes()
    ctrl = ControlPath(tg, np.zeros((129, 1)), nodes[:, None])  # u2(t) = t
    path = moment_ode(ctrl, 0.0, 1.0)
    assert path.v[-1, 0] == pytest.approx(math.exp(1.0), rel=1e-8)
    assert np.all(path.v > 0)


def quad_problem(gamma=2.0, n=64, nt=32):
    g = make_grid(1, -8, 8, n)
    tg = make_timegrid(1.0, nt)
    return Problem(
        grid=g,
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
    exact = prob.cost.gamma * path_dot(tg, u.stacked(), d.stacked())
    assert fd == pytest.approx(exact, rel=1e-8)
    assert fd_directional_derivative(prob, u, ControlPath.zeros(tg, 1), 1e-3) == 0.0


def test_fd_directional_derivative_rejects_inadmissible():
    prob = quad_problem()
    u = ControlPath.constant(prob.timegrid, [1.9], [0.0])
    d = ControlPath.constant(prob.timegrid, [1.0], [0.0])
    with pytest.raises(ValueError):
        fd_directional_derivative(prob, u, d, 0.5)


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


def test_surrogate_cost_closed_form():
    tg = make_timegrid(1.0, 64)
    cost = CostSpec(gamma=0.5, theta=Potential("quadratic"), phi=Potential("quadratic"))
    sur = MomentSurrogateProblem(
        timegrid=tg, x0=0.3, v0=0.4, cost=cost, bounds=BoxBounds.symmetric(1.0, 1)
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
        timegrid=tg, x0=0.0, v0=0.5, cost=cost, bounds=BoxBounds.symmetric(2.0, 1)
    )
    u = ControlPath.constant(tg, [0.2], [-0.1])
    rng = np.random.default_rng(4)
    d = ControlPath(tg, rng.normal(size=(129, 1)), rng.normal(size=(129, 1)))
    fd = fd_directional_derivative(sur, u, d, 1e-4)
    grad = sur.descent_gradient(u)
    an = path_dot(tg, grad.stacked(), d.stacked())
    assert an == pytest.approx(fd, rel=2e-3)
