import math

import numpy as np
import pytest

from liouville_control import (
    CflUnderflow,
    ControlPath,
    DriftPreset,
    DriftSpec,
    NonFinite,
    eval_drift,
    ScalarField,
    affine_exact_density,
    boundary_leak,
    energy_certificate,
    fit_order,
    make_grid,
    make_timegrid,
    moment_ode,
    moments,
    sample_function,
    solve_forward,
    solve_linearized,
)
from liouville_control.forward import _Stepper, _face_points, _face_states, required_substeps
from test_controls import DRIFT_CASES


def gaussian_setup(n=256, nt=256, x0=0.0, v0=1.0, T=1.0):
    g = make_grid(1, -8, 8, n)
    tg = make_timegrid(T, nt)
    rho0 = sample_function(g, "gaussian", {"x0": x0, "v0": v0})
    return g, tg, rho0


def drift_const(tg, u1, u2, a0=None):
    return DriftSpec(a0 or DriftPreset("zero"), ControlPath.constant(tg, [u1], [u2]))


def test_zero_drift_is_exact():
    g, tg, rho0 = gaussian_setup(n=128, nt=64)
    for scheme in ("upwind-fv", "muscl-fv"):
        traj = solve_forward(rho0, drift_const(tg, 0.0, 0.0), None, tg, scheme=scheme)
        assert np.array_equal(traj.snapshots[-1], rho0.values)
        assert np.abs(traj.mass - traj.mass[0]).max() == 0.0


def test_mass_identity_every_step():
    g, tg, rho0 = gaussian_setup(n=128, nt=128)
    traj = solve_forward(rho0, drift_const(tg, 0.4, 0.2), None, tg)
    # flux-form update: mass change equals boundary outflux exactly
    drift_resid = np.abs(traj.mass - traj.mass[0] + traj.boundary_outflux - traj.source_mass)
    assert drift_resid.max() < 1e-13


def test_positivity_upwind():
    g, tg, rho0 = gaussian_setup(n=256, nt=256)
    src = sample_function(g, "gaussian", {"x0": 1.0, "v0": 0.3}).values * 0.1
    traj = solve_forward(rho0, drift_const(tg, 0.5, 0.3), lambda t: src, tg, scheme="upwind-fv")
    assert traj.min_value.min() >= -1e-14


def test_translation_tracks_moment_ode():
    g, tg, rho0 = gaussian_setup()
    ctrl = ControlPath.constant(tg, [0.5], [0.0])
    traj = solve_forward(rho0, DriftSpec(DriftPreset("zero"), ctrl), None, tg)
    ode = moment_ode(ctrl, 0.0, 1.0)
    for frac in (0.5, 1.0):
        n = int(frac * tg.nt)
        mom = moments(ScalarField(g, traj.values_at(n)))
        assert mom.mean[0] == pytest.approx(ode.m[n, 0], abs=2e-3)


def test_dilation_variance_closed_form():
    g, tg, rho0 = gaussian_setup()
    c = 0.5
    traj = solve_forward(rho0, drift_const(tg, 0.0, c), None, tg, scheme="muscl-fv")
    mom = moments(ScalarField(g, traj.snapshots[-1]))
    assert mom.variance[0] == pytest.approx(math.exp(2 * c), rel=2e-3)


def test_convergence_orders_against_flow_oracle():
    def l1_err(n, scheme):
        g, tg, rho0 = gaussian_setup(n=n, nt=n)
        drift = drift_const(tg, 0.0, 0.5)
        traj = solve_forward(rho0, drift, None, tg, scheme=scheme)
        exact = affine_exact_density("gaussian", {"x0": 0.0, "v0": 1.0}, drift, tg.T, g.cell_centers())
        return float(np.abs(traj.snapshots[-1].ravel() - exact).sum() * g.cell_volume)

    ns = [64, 128, 256]
    hs = [16.0 / n for n in ns]
    up = [l1_err(n, "upwind-fv") for n in ns]
    mu = [l1_err(n, "muscl-fv") for n in ns]
    assert fit_order(hs, up) >= 0.8
    assert fit_order(hs, mu) >= 1.6


def test_lipschitz_constant_stable():
    from liouville_control import lipschitz_probe
    from liouville_control.reduced import Problem
    from liouville_control import BoxBounds, CostSpec

    def ratio(n):
        g, tg, rho0 = gaussian_setup(n=n, nt=128)
        prob = Problem(
            grid=g, timegrid=tg, rho0=rho0, a0=DriftPreset("zero"),
            cost=CostSpec(gamma=1.0), bounds=BoxBounds.symmetric(2.0, 1),
        )
        u = ControlPath.constant(tg, [0.2], [0.1])
        v = ControlPath.constant(tg, [0.4], [0.2])
        return lipschitz_probe(prob, u, v)

    r1, r2 = ratio(128), ratio(256)
    assert np.isfinite(r1) and np.isfinite(r2)
    assert abs(r1 - r2) <= 0.2 * max(r1, r2)


def test_boundary_leak_interior_data():
    g, tg, rho0 = gaussian_setup(n=128, nt=64, T=0.25)
    traj = solve_forward(rho0, drift_const(tg, 0.1, 0.0), None, tg)
    assert boundary_leak(traj) <= 1e-12


def test_boundary_leak_equals_mass_defect_without_source():
    g, tg, rho0 = gaussian_setup(n=128, nt=128)
    traj = solve_forward(rho0, drift_const(tg, 2.0, 0.0), None, tg)
    assert boundary_leak(traj) == pytest.approx(abs(traj.mass[-1] - traj.mass[0]), abs=1e-16)


def test_boundary_leak_outward_drift_matches_tail_oracle():
    # gaussian at 4 translated by 2: the exact escaped mass is the tail of
    # the translated gaussian beyond the box edge
    g = make_grid(1, -8, 8, 512)
    tg = make_timegrid(1.0, 512)
    rho0 = sample_function(g, "gaussian", {"x0": 4.0, "v0": 0.25})
    traj = solve_forward(rho0, drift_const(tg, 2.0, 0.0), None, tg, scheme="muscl-fv")
    leak = boundary_leak(traj)
    tail = 0.5 * (1.0 - math.erf((8.0 - 6.0) / math.sqrt(2 * 0.25)))
    assert 0.5 * tail < leak < 2.0 * tail


def test_energy_certificate_zero_drift_passes_trivially():
    g, tg, rho0 = gaussian_setup(n=128, nt=64)
    drift = drift_const(tg, 0.0, 0.0)
    traj = solve_forward(rho0, drift, None, tg)
    cert = energy_certificate(traj, drift, None, 0, 0, C_cert=0.0)
    assert cert.passed and cert.fitted_C == 0.0


def test_energy_certificate_exact_decay():
    # div a = c: the L2 norm decays like exp(-c t / 2); upwind dissipation
    # only lowers it further
    g, tg, rho0 = gaussian_setup()
    c = 0.5
    drift = drift_const(tg, 0.0, c)
    exact = None
    for scheme, tol in (("muscl-fv", 5e-3), ("upwind-fv", 2e-2)):
        traj = solve_forward(rho0, drift, None, tg, scheme=scheme)
        exact = traj.l2[0] * math.exp(-c * tg.T / 2.0)
        assert traj.l2[-1] == pytest.approx(exact, rel=tol)
        assert traj.l2[-1] <= exact * (1.0 + 5e-3)
        cert = energy_certificate(traj, drift, None, 0, 0, C_cert=0.5)
        assert cert.passed


def test_energy_certificate_weighted_growth_bounded():
    g, tg, rho0 = gaussian_setup()
    drift = drift_const(tg, 0.0, 0.5)
    traj = solve_forward(rho0, drift, None, tg)
    cert = energy_certificate(traj, drift, None, 0, 2, C_cert=2.0)
    assert cert.passed
    assert 0.0 < cert.fitted_C <= 2.0
    assert np.all(cert.lhs <= cert.rhs + 1e-12)


def test_energy_certificate_with_source_term():
    g, tg, rho0 = gaussian_setup(n=128, nt=128)
    src = sample_function(g, "gaussian", {"x0": 0.0, "v0": 0.5}).values * 0.2
    drift = drift_const(tg, 0.3, 0.2)
    traj = solve_forward(rho0, drift, lambda t: src, tg)
    for m, k in ((0, 0), (1, 2)):
        cert = energy_certificate(traj, drift, lambda t: src, m, k, C_cert=2.0)
        assert cert.passed


def test_cfl_substepping_and_underflow():
    g, tg, rho0 = gaussian_setup(n=128, nt=16)
    drift = drift_const(tg, 0.0, 2.0)  # |a| up to 16 near the edges
    traj = solve_forward(rho0, drift, None, tg)
    assert max(traj.substeps) > 1
    # per-substep Courant number stays below the cap
    h = g.h[0]
    for n, nsub in enumerate(traj.substeps):
        assert (tg.dt / nsub) * 16.0 / h <= 0.9 * 1.05
    with pytest.raises(CflUnderflow):
        solve_forward(rho0, drift, None, tg, max_substeps=1)


def test_non_finite_source_raises():
    g, tg, rho0 = gaussian_setup(n=128, nt=16)
    bad = np.zeros(g.shape)
    bad[0] = np.inf
    with pytest.raises(NonFinite):
        solve_forward(rho0, drift_const(tg, 0.0, 0.0), lambda t: bad, tg)


def test_snapshot_stride_replay_is_exact():
    g, tg, rho0 = gaussian_setup(n=128, nt=64)
    drift = drift_const(tg, 0.4, 0.3)
    dense = solve_forward(rho0, drift, None, tg, stride=1)
    for stride in (8, 7):  # 7 does not divide nt: the top segment is short
        strided = solve_forward(rho0, drift, None, tg, stride=stride)
        assert strided.snapshot_steps[0] == 0 and strided.snapshot_steps[-1] == tg.nt
        for n in (3, 17, 40, 63):
            assert np.array_equal(strided.values_at(n), dense.values_at(n))
        got = {n: v.copy() for n, v in strided.dense_values()}
        for n in range(tg.nt + 1):
            assert np.array_equal(got[n], dense.values_at(n))


def test_linearized_solve_matches_central_difference():
    # density centered away from the face where the drift changes sign, so
    # the discrete flux is smooth in the control over the difference stencil
    g, tg, _ = gaussian_setup(n=128, nt=64)
    rho0 = sample_function(g, "gaussian", {"x0": 2.0, "v0": 0.5})
    u = ControlPath.constant(tg, [0.5], [0.25])
    nodes = tg.nodes()
    du = ControlPath(tg, np.sin(np.pi * nodes)[:, None], 0.3 * np.cos(np.pi * nodes)[:, None])
    drift = DriftSpec(DriftPreset("zero"), u)
    base, wtraj = solve_linearized(rho0, drift, du, None, tg, fixed_substeps=2)
    eps = 1e-4

    def solve_at(scale):
        ctrl = ControlPath(tg, u.u1 + scale * du.u1, u.u2 + scale * du.u2)
        return solve_forward(
            rho0, DriftSpec(DriftPreset("zero"), ctrl), None, tg, fixed_substeps=2
        ).snapshots[-1]

    fd = (solve_at(eps) - solve_at(-eps)) / (2 * eps)
    w = wtraj.snapshots[-1]
    scale = np.abs(fd).max()
    assert np.abs(w - fd).max() <= 1e-5 * scale + 1e-12


def test_two_dimensional_rotation_mean():
    g = make_grid(2, (-6, -6), (6, 6), (48, 48))
    tg = make_timegrid(0.5, 64)
    rho0 = sample_function(g, "gaussian", {"x0": (1.0, -0.5), "v0": 0.3})
    drift = DriftSpec(DriftPreset("rotation", {"omega": 1.0}), ControlPath.zeros(tg, 2))
    traj = solve_forward(rho0, drift, None, tg, scheme="upwind-fv")
    assert traj.min_value.min() >= -1e-14
    # flux-form identity exact; the tiny absolute drift is diffusion-fed tail
    # mass crossing the boundary, not a conservation defect
    resid = np.abs(traj.mass - traj.mass[0] + traj.boundary_outflux - traj.source_mass)
    assert resid.max() < 1e-13
    assert abs(traj.mass[-1] - traj.mass[0]) < 1e-9
    th = 0.5
    exact = (
        math.cos(th) * 1.0 - math.sin(th) * (-0.5),
        math.sin(th) * 1.0 + math.cos(th) * (-0.5),
    )
    mom = moments(ScalarField(g, traj.snapshots[-1]))
    assert mom.mean[0] == pytest.approx(exact[0], abs=5e-3)
    assert mom.mean[1] == pytest.approx(exact[1], abs=5e-3)


# --- the stepper's bits: each piece equals the code it replaced -------------


def bits_equal(a, b):
    """Equal shapes and equal bit patterns (so -0.0 differs from 0.0)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def varying_control(tg, d, scale=1.0):
    nodes = tg.nodes()[:, None]
    u1 = scale * np.sin(3.0 * nodes + np.arange(d))
    u2 = scale * 0.4 * np.cos(2.0 * nodes - np.arange(d))
    return ControlPath(tg, u1, u2)


def case_grid(d):
    return make_grid(1, -4.0, 4.0, 16) if d == 1 else make_grid(2, (-4.0, -3.0), (4.0, 5.0), (16, 12))


@pytest.mark.parametrize("name, params, d", DRIFT_CASES, ids=[f"{n}-{d}d" for n, _, d in DRIFT_CASES])
def test_face_speeds_are_eval_drift_at_the_faces(name, params, d):
    g = case_grid(d)
    tg = make_timegrid(1.0, 8)
    drift = DriftSpec(DriftPreset(name, params), varying_control(tg, d))
    delta = varying_control(tg, d, scale=-0.7)
    stepper = _Stepper(g, drift, None, "muscl-fv", delta)
    times = (0.0, 0.3 * tg.dt, 0.55, 1.0)
    stepper.look_up(np.array(times))
    for k, t in enumerate(times):
        speeds, deltas = stepper.face_speeds(k), stepper.face_speed_deltas(k)
        du1, du2 = delta.value_at(t)
        for ax in range(d):
            pts = _face_points(g, ax)
            a = eval_drift(drift, t, pts.reshape(-1, d))[:, ax].reshape(pts.shape[:-1])
            assert bits_equal(speeds[ax], np.moveaxis(a, ax, 0))
            da = du1[ax] + pts[..., ax] * du2[ax]
            assert bits_equal(deltas[ax], np.moveaxis(da, ax, 0))


def concatenate_face_states(vm, scheme):
    """The face states as built with concatenate, for comparison."""
    zero = np.zeros_like(vm[:1])
    if scheme == "upwind-fv":
        return np.concatenate([zero, vm], axis=0), np.concatenate([vm, zero], axis=0)
    dm = np.diff(vm, axis=0)
    dminus = np.concatenate([zero, dm], axis=0)
    dplus = np.concatenate([dm, zero], axis=0)
    s = np.where(dminus * dplus > 0.0, np.where(np.abs(dminus) < np.abs(dplus), dminus, dplus), 0.0)
    return np.concatenate([zero, vm + 0.5 * s], axis=0), np.concatenate([vm - 0.5 * s, zero], axis=0)


@pytest.mark.parametrize("scheme", ["upwind-fv", "muscl-fv"])
def test_face_states_match_the_concatenate_version(scheme):
    rng = np.random.default_rng(3)
    values = rng.normal(size=(9, 7))
    values[2:5, :] = 1.5  # plateaus: zero differences and minmod ties
    values[:, 3] = values[:, 2]
    values[0, 0], values[-1, -1], values[4, 0] = -0.0, -0.0, 0.0
    for ax in range(2):
        vm = np.moveaxis(values, ax, 0)
        got = _face_states(np.swapaxes(values, 0, ax), scheme)
        for a, b in zip(got, concatenate_face_states(vm, scheme)):
            assert bits_equal(a, b)


@pytest.mark.parametrize("d", [1, 2])
def test_required_substeps_match_a_plan_from_both_step_ends(d):
    g = case_grid(d)
    tg = make_timegrid(1.0, 12)
    drift = DriftSpec(DriftPreset("gaussian-bump", {"c": 0.5, "sigma": 1.2}), varying_control(tg, d, scale=6.0))
    cfl = 0.9

    def courant_speed(t):
        total = 0.0
        for ax in range(d):
            pts = _face_points(g, ax)
            total += float(np.abs(eval_drift(drift, t, pts.reshape(-1, d))[:, ax]).max()) / g.h[ax]
        return total

    dt = tg.dt
    expected = [
        max(1, int(math.ceil(dt * max(courant_speed(n * dt), courant_speed((n + 1) * dt)) / cfl)))
        for n in range(tg.nt)
    ]
    plan = required_substeps(_Stepper(g, drift, None, "upwind-fv"), tg, cfl)
    assert plan == expected
    assert len(set(plan)) > 1
