import math
from types import SimpleNamespace
import weakref

import numpy as np
import pytest

from liouville_control import (
    BoxBounds,
    CflUnderflow,
    ControlPath,
    CostSpec,
    InvalidGrid,
    DriftPreset,
    DriftSpec,
    MomentSurrogateProblem,
    NonFinite,
    Potential,
    eval_drift,
    ScalarField,
    affine_exact_density,
    boundary_leak,
    energy_certificate,
    fit_order,
    make_grid,
    make_timegrid,
    moments,
    sample_function,
    solve_forward,
    solve_linearized,
)
import liouville_control.forward as forward_module
from liouville_control.forward import _Faces, _Stepper, _Sweep, _face_points, required_substeps
from liouville_control.fileio import write_trajectory_summary
from liouville_control.grid import _block_nodes, partial_derivative, weighted_sobolev_norm
from test_controls import DRIFT_CASES, bits_equal


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
        assert np.array_equal(traj.nodes[-1], rho0.values)
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
    traj = solve_forward(rho0, drift_const(tg, 0.5, 0.3), src, tg, scheme="upwind-fv")
    assert traj.nodes.min() >= -1e-14


def test_translation_tracks_moment_ode():
    g, tg, rho0 = gaussian_setup()
    ctrl = ControlPath.constant(tg, [0.5], [0.0])
    traj = solve_forward(rho0, DriftSpec(DriftPreset("zero"), ctrl), None, tg)
    ode_m, _ = MomentSurrogateProblem(tg, ("gaussian", {"x0": 0.0, "v0": 1.0}), CostSpec(),
                                      BoxBounds.symmetric(1.0, 1)).path(ctrl.nodes)
    for frac in (0.5, 1.0):
        n = int(frac * tg.nt)
        mom = moments(ScalarField(g, traj.nodes[n]))
        assert mom.mean[0] == pytest.approx(ode_m[n, 0, 0], abs=2e-3)


def test_dilation_variance_closed_form():
    g, tg, rho0 = gaussian_setup()
    c = 0.5
    traj = solve_forward(rho0, drift_const(tg, 0.0, c), None, tg, scheme="muscl-fv")
    mom = moments(ScalarField(g, traj.nodes[-1]))
    assert mom.variance[0] == pytest.approx(math.exp(2 * c), rel=2e-3)


def test_convergence_orders_against_flow_oracle():
    def l1_err(n, scheme):
        g, tg, rho0 = gaussian_setup(n=n, nt=n)
        drift = drift_const(tg, 0.0, 0.5)
        traj = solve_forward(rho0, drift, None, tg, scheme=scheme)
        exact = affine_exact_density("gaussian", {"x0": 0.0, "v0": 1.0}, drift, tg.T, g.cell_centers())
        return float(np.abs(traj.nodes[-1].ravel() - exact).sum() * g.cell_volume)

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
        l2 = traj.norms(0, 0)
        exact = l2[0] * math.exp(-c * tg.T / 2.0)
        assert l2[-1] == pytest.approx(exact, rel=tol)
        assert l2[-1] <= exact * (1.0 + 5e-3)
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
    traj = solve_forward(rho0, drift, src, tg)
    for m, k in ((0, 0), (1, 2)):
        cert = energy_certificate(traj, drift, src, m, k, C_cert=2.0)
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
        solve_forward(rho0, drift_const(tg, 0.0, 0.0), bad, tg)


@pytest.mark.parametrize("source", [lambda t: np.zeros(64), 0.5, np.zeros(63)], ids=["callable", "scalar", "shape"])
def test_source_that_is_not_a_field_on_the_grid_is_rejected(source):
    # a scalar would broadcast over the cells in the step, but its mass
    # would be counted once, not once per cell
    g, tg, rho0 = gaussian_setup(n=64, nt=4)
    with pytest.raises(InvalidGrid, match="source"):
        solve_forward(rho0, drift_const(tg, 0.3, 0.0), source, tg)


def test_a_solve_stores_every_node():
    # the state and the tangent keep nodes 0..nt, each in one array, and
    # node n is where a solve of the first n steps ends
    g, tg, rho0 = gaussian_setup(n=128, nt=16)
    drift = drift_const(tg, 0.4, 0.3)
    traj, wtraj = solve_linearized(rho0, drift, drift.control, None, tg)
    for t in (traj, wtraj):
        assert t.nodes.shape == (tg.nt + 1, *g.shape) and t.snapshot_steps == list(range(tg.nt + 1))
    assert np.array_equal(traj.nodes[0], rho0.values) and not wtraj.nodes[0].any()
    short = make_timegrid(tg.T * (tg.nt - 1) / tg.nt, tg.nt - 1)
    head = solve_forward(rho0, drift_const(short, 0.4, 0.3), None, short, fixed_substeps=traj.substeps[:-1])
    assert np.array_equal(head.nodes, traj.nodes[:-1])


def test_linearized_solve_matches_central_difference():
    # density centered away from the face where the drift changes sign, so
    # the discrete flux is smooth in the control over the difference stencil
    g, tg, _ = gaussian_setup(n=128, nt=64)
    rho0 = sample_function(g, "gaussian", {"x0": 2.0, "v0": 0.5})
    u = ControlPath.constant(tg, [0.5], [0.25])
    nodes = tg.nodes()
    du = ControlPath(tg, np.sin(np.pi * nodes)[:, None], 0.3 * np.cos(np.pi * nodes)[:, None])
    drift = DriftSpec(DriftPreset("zero"), u)
    base, wtraj = solve_linearized(rho0, drift, du, None, tg, fixed_substeps=[2] * tg.nt)
    eps = 1e-4

    def solve_at(scale):
        ctrl = ControlPath(tg, u.u1 + scale * du.u1, u.u2 + scale * du.u2)
        return solve_forward(
            rho0, DriftSpec(DriftPreset("zero"), ctrl), None, tg, fixed_substeps=[2] * tg.nt
        ).nodes[-1]

    fd = (solve_at(eps) - solve_at(-eps)) / (2 * eps)
    w = wtraj.nodes[-1]
    scale = np.abs(fd).max()
    assert np.abs(w - fd).max() <= 1e-5 * scale + 1e-12


def test_two_dimensional_rotation_mean():
    g = make_grid(2, (-6, -6), (6, 6), (48, 48))
    tg = make_timegrid(0.5, 64)
    rho0 = sample_function(g, "gaussian", {"x0": (1.0, -0.5), "v0": 0.3})
    drift = DriftSpec(DriftPreset("rotation", {"omega": 1.0}), ControlPath.zeros(tg, 2))
    traj = solve_forward(rho0, drift, None, tg, scheme="upwind-fv")
    assert traj.nodes.min() >= -1e-14
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
    mom = moments(ScalarField(g, traj.nodes[-1]))
    assert mom.mean[0] == pytest.approx(exact[0], abs=5e-3)
    assert mom.mean[1] == pytest.approx(exact[1], abs=5e-3)


# --- the stepper's bits: each piece equals the code it replaced -------------


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
    stepper = _Stepper(g, drift, None)
    times = (0.0, 0.3 * tg.dt, 0.55, 1.0)
    # the rows of a table, as a sweep looks them up
    controls, delta_rows = drift.control.value_at(np.array(times)), delta.value_at(np.array(times))
    for k, t in enumerate(times):
        speeds = stepper.face_speeds(*(u[k] for u in controls))
        deltas = stepper.face_speed_deltas(*(du[k] for du in delta_rows))
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
        faces = _Faces(vm.shape, scheme)
        faces.fill(np.swapaxes(values, 0, ax))
        for a, b in zip((faces.left, faces.right), concatenate_face_states(vm, scheme)):
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
    plan = required_substeps(g, drift, tg, cfl)
    assert plan == expected
    assert len(set(plan)) > 1


@pytest.mark.parametrize("d", [1, 2])
def test_a_solve_evaluates_the_faces_once_per_axis(d, monkeypatch):
    # the plan is read from the solve's own stepper, not from a second one
    g = case_grid(d)
    tg = make_timegrid(1.0, 8)
    drift = DriftSpec(DriftPreset("gaussian-bump"), varying_control(tg, d))
    rho0 = sample_function(g, "gaussian", {"v0": 0.5})
    calls = []

    def counted(grid, axis):
        calls.append(axis)
        return _face_points(grid, axis)

    monkeypatch.setattr(forward_module, "_face_points", counted)
    solve_forward(rho0, drift, None, tg, scheme="muscl-fv")
    assert calls == list(range(d))


BAD_SETTINGS = [
    ("cfl", -1.0), ("cfl", 0.0), ("cfl", math.nan), ("cfl", math.inf), ("cfl", True),
    ("max_substeps", 0), ("max_substeps", 64.0), ("scheme", "weno"),
]


@pytest.mark.parametrize("name, value", BAD_SETTINGS, ids=[f"{n}={v}" for n, v in BAD_SETTINGS])
def test_bad_solve_settings_raise_before_anything_is_built(name, value, monkeypatch):
    g, tg, rho0 = gaussian_setup(n=32, nt=8)
    drift = drift_const(tg, 0.3, 0.1)

    def unbuilt(*args, **kwargs):
        raise AssertionError("a stepper was built")

    monkeypatch.setattr(forward_module, "_Stepper", unbuilt)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        solve_forward(rho0, drift, None, tg, **{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be"):
        solve_linearized(rho0, drift, drift.control, None, tg, fixed_substeps=[1] * tg.nt, **{name: value})
    if name == "cfl":
        with pytest.raises(ValueError, match="^cfl must be"):
            required_substeps(g, drift, tg, value)


BAD_PLANS = {
    "fraction": [1.7] * 8,
    "zero": [0] * 8,
    "negative": [-1] * 8,
    "short": [1] * 7,
    "long": [1] * 9,
    "bools": [True] * 8,
    "float-array": np.ones(8),
    "scalar": 3,
    "nested": [[1]] * 8,
}


@pytest.mark.parametrize("plan", BAD_PLANS.values(), ids=BAD_PLANS)
def test_bad_fixed_substeps_raise_before_anything_is_built(plan, monkeypatch):
    g, tg, rho0 = gaussian_setup(n=32, nt=8)
    drift = drift_const(tg, 0.3, 0.1)

    def unbuilt(*args, **kwargs):
        raise AssertionError("a stepper was built")

    monkeypatch.setattr(forward_module, "_Stepper", unbuilt)
    with pytest.raises(ValueError, match="^fixed_substeps must be 8 integers >= 1"):
        solve_forward(rho0, drift, None, tg, fixed_substeps=plan)
    with pytest.raises(ValueError, match="^fixed_substeps must be 8 integers >= 1"):
        solve_linearized(rho0, drift, drift.control, None, tg, fixed_substeps=plan)


def test_an_integer_array_plan_is_a_plan():
    g, tg, rho0 = gaussian_setup(n=32, nt=8)
    drift = drift_const(tg, 0.3, 0.1)
    plan = [1, 2, 1, 3, 1, 1, 2, 1]
    traj = solve_forward(rho0, drift, None, tg, fixed_substeps=np.array(plan))
    assert traj.substeps == plan and all(type(k) is int for k in traj.substeps)
    assert np.array_equal(traj.nodes[-1], solve_forward(rho0, drift, None, tg, fixed_substeps=plan).nodes[-1])


def reference_minmod(a, b):
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def reference_face_states(vm, scheme):
    """The face states as built with fresh arrays on every call."""
    shape = (vm.shape[0] + 1,) + vm.shape[1:]
    left, right = np.empty(shape), np.empty(shape)
    left[0] = right[-1] = 0.0
    if scheme == "upwind-fv":
        left[1:] = vm
        right[:-1] = vm
        return left, right
    half = np.empty_like(vm)
    half[0] = half[-1] = 0.0
    dm = vm[1:] - vm[:-1]
    half[1:-1] = 0.5 * reference_minmod(dm[:-1], dm[1:])
    np.add(vm, half, out=left[1:])
    np.subtract(vm, half, out=right[:-1])
    return left, right


def reference_divergence(case, k, values, w_values):
    """The flux divergence with the face speeds formed at every stage, from
    row k of the case's own control tables."""
    stepper = case.stepper
    div = np.zeros_like(values)
    div_w = np.zeros_like(values) if w_values is not None else None
    out_rate = 0.0
    speeds = stepper.face_speeds(*(u[k] for u in case.controls))
    deltas = stepper.face_speed_deltas(*(du[k] for du in case.deltas)) if w_values is not None else None
    for ax, a in enumerate(speeds):
        left, right = reference_face_states(np.swapaxes(values, 0, ax), case.scheme)
        ap = np.maximum(a, 0.0)
        am = np.minimum(a, 0.0)
        F = ap * left + am * right
        div_ax = np.swapaxes(div, 0, ax)
        div_ax += (F[1:] - F[:-1]) / stepper.h[ax]
        out_rate += float((F[-1].sum() - F[0].sum()) * stepper.transverse[ax])
        if w_values is not None:
            wl, wr = reference_face_states(np.swapaxes(w_values, 0, ax), case.scheme)
            rho_up = np.where(a >= 0.0, left, right)
            Fw = ap * wl + am * wr + deltas[ax] * rho_up
            div_w_ax = np.swapaxes(div_w, 0, ax)
            div_w_ax += (Fw[1:] - Fw[:-1]) / stepper.h[ax]
    return div, div_w, out_rate


def reference_advance(case, values, dt, k, w_values=None):
    """Forward Euler for upwind, with the source at the midpoint, and SSP
    Runge-Kutta for MUSCL, with the trapezoid of the source at both ends."""
    vol = case.stepper.grid.cell_volume
    source = case.stepper.source
    if case.scheme == "upwind-fv":
        div, div_w, out_rate = reference_divergence(case, k, values, w_values)
        new = values - dt * div
        src_mass = 0.0
        if source is not None:
            gmid = source
            new = new + dt * gmid
            src_mass = float(gmid.sum() * vol) * dt
        new_w = w_values - dt * div_w if w_values is not None else None
        return new, new_w, out_rate * dt, src_mass
    div1, divw1, rate1 = reference_divergence(case, k, values, w_values)
    g1 = source
    stage = values - dt * div1 + (dt * g1 if g1 is not None else 0.0)
    stage_w = w_values - dt * divw1 if w_values is not None else None
    div2, divw2, rate2 = reference_divergence(case, k + 1, stage, stage_w)
    g2 = source
    new = values - 0.5 * dt * (div1 + div2)
    src_mass = 0.0
    if g1 is not None:
        new = new + 0.5 * dt * (g1 + g2)
        src_mass = 0.5 * dt * float((g1 + g2).sum() * vol)
    new_w = w_values - 0.5 * dt * (divw1 + divw2) if w_values is not None else None
    return new, new_w, 0.5 * dt * (rate1 + rate2), src_mass


def adversarial_field(shape, seed):
    """Normal values with plateaus (zero differences), runs of equal
    differences (minmod ties), differences whose product underflows, negative
    values and zeros of both signs, along both axes."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=shape)
    for line in (v.reshape(-1), v.reshape(shape[0], -1)[:, 0]):
        line[5:12] = 1.5
        line[12:20] = 0.25 * np.arange(8)
        line[20:26] = 1e-170 * np.arange(6)
        line[26:32] = [0.0, -0.0, -0.0, 0.0, -1e-170, -2e-170]
        line[32:38] = -3.0 - 0.5 * np.arange(6)
    flat = v.reshape(-1)
    flat[rng.choice(flat.size, flat.size // 16)] = -0.0
    flat[rng.choice(flat.size, flat.size // 16)] = 0.0
    flat[:2] = [-0.0, -1.0]
    flat[-2:] = [-2.0, -0.0]
    return v


def stage_case(d, scheme, tangent, source=None):
    """A stepper on a grid fine enough for a split block of a few table
    rows, and a sweep over a table whose rows are the control's nodes (24
    rows): speeds of both signs, exact zeros and -0.0 among them.  The case
    holds the stepper, the sweep, and the control tables that the reference
    reads, looked up here."""
    g = make_grid(1, -4.0, 4.0, 1024) if d == 1 else make_grid(2, (-4.0, -3.0), (4.0, 5.0), (40, 44))
    tg = make_timegrid(1.0, 23)
    u1 = np.tile([0.0, -0.0, 0.7, -0.7, 0.0, 1.3, -0.2, 0.0, 0.5, -1.1, 0.3, 0.0], 2)
    u2 = np.tile([0.0, -0.0, -0.5, 0.4, -1.0, 0.0, 0.9, -0.3, -0.0, 0.2, -0.6, 0.8], 2)
    control = ControlPath(tg, np.column_stack([u1, -u1[::-1]][:d]), np.column_stack([u2, u2[::-1]][:d]))
    delta = ControlPath(tg, np.column_stack([u2, u1][:d]), np.column_stack([-u1, u2][:d])) if tangent else None
    # a0 = 0 in 1D puts exact zero speeds at the face x = 0 and on the rows
    # where u1 = u2 = 0; the 2D rotation's a0 is nowhere zero on the faces
    drift = DriftSpec(DriftPreset("zero" if d == 1 else "rotation"), control)
    stepper = _Stepper(g, drift, source)
    sweep = _Sweep(stepper, scheme, tg.nodes(), delta)
    assert 3 * sweep._rows < tg.nt  # the table spans several blocks
    controls, deltas = control.value_at(tg.nodes()), delta.value_at(tg.nodes()) if tangent else None
    return g, SimpleNamespace(stepper=stepper, scheme=scheme, sweep=sweep, controls=controls, deltas=deltas)


@pytest.mark.parametrize("tangent", [False, True], ids=["state", "tangent"])
@pytest.mark.parametrize("scheme", ["upwind-fv", "muscl-fv"])
@pytest.mark.parametrize("d", [1, 2])
def test_stage_matches_the_allocating_version(d, scheme, tangent):
    g, case = stage_case(d, scheme, tangent)
    values = adversarial_field(g.shape, 1)
    w_values = adversarial_field(g.shape, 2) if tangent else None
    sweep = case.sweep
    rows = sweep._rows
    # rows of the first block, of the next, then of the first again (a
    # rebuild), and of the ragged last block; MUSCL's stage at rows - 1
    # reads its second row in the next block
    for k in (0, 1, rows - 1, rows + 1, 3 * rows // 2, 2, 2 * rows + 1, 22):
        div, div_w = np.empty(g.shape), np.empty(g.shape) if tangent else None
        rate = sweep.divergence(k, values, div, w_values, div_w)
        ref_div, ref_div_w, ref_rate = reference_divergence(case, k, values, w_values)
        assert bits_equal(div, ref_div) and bits_equal(np.float64(rate), np.float64(ref_rate))
        if tangent:
            assert bits_equal(div_w, ref_div_w)
        got = sweep.advance(values, 0.013, k, w_values)
        ref = reference_advance(case, values, 0.013, k, w_values)
        assert bits_equal(got[0], ref[0])
        assert bits_equal(np.float64(got[2]), np.float64(ref[2])) and got[3] == ref[3]
        assert bits_equal(got[1], ref[1]) if tangent else got[1] is None
        # no block runs past the table's last row
        assert sweep._block[1] <= 24


@pytest.mark.parametrize("scheme", ["upwind-fv", "muscl-fv"])
def test_stage_with_a_source_matches_the_allocating_version(scheme):
    source = adversarial_field((1024,), 3)
    g, case = stage_case(1, scheme, True, source=source)
    values, w_values = adversarial_field(g.shape, 4), adversarial_field(g.shape, 5)
    got = case.sweep.advance(values, 0.01, 4, w_values)
    ref = reference_advance(case, values, 0.01, 4, w_values)
    for a, b in zip(got, ref):
        assert bits_equal(a, b)


@pytest.mark.parametrize("d", [1, 2])
def test_stages_at_bit_equal_times_share_a_table_row(d, monkeypatch):
    # steps of 2 and 3 MUSCL substeps: a substep's second stage and the next
    # substep's first are at bit-equal times in most places, and at times
    # that rounding tells apart in a few
    g, tg = case_grid(d), make_timegrid(1.0, 8)
    plan = [2, 3, 3, 2, 3, 2, 3, 3]
    drift = DriftSpec(DriftPreset("zero" if d == 1 else "rotation"), varying_control(tg, d))
    delta = varying_control(tg, d, scale=0.3)
    rho0 = sample_function(g, "gaussian", {"x0": 0.3 if d == 1 else [0.5, -0.3], "v0": 0.8})
    made = []
    init = _Sweep.__init__

    def tracked(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(_Sweep, "__init__", tracked)
    traj = solve_forward(rho0, drift, None, tg, scheme="muscl-fv", fixed_substeps=plan)
    base, w_traj = solve_linearized(rho0, drift, delta, None, tg, scheme="muscl-fv", fixed_substeps=plan)
    # stage i of substep j of step n is at (n * dt + j * h) + i * h
    times = []
    for n, p in enumerate(plan):
        h = tg.dt / p
        times += [t for j in range(p) for t in (n * tg.dt + j * h, n * tg.dt + j * h + h)]
    times = np.array(times)
    ends, starts = times[1:-1:2], times[2::2]
    assert (ends == starts).any() and (ends != starts).any()
    for sweep in made:
        assert sweep.end_row == 1 + np.count_nonzero(times[1:] != times[:-1]) < len(times)
    # the reference looks the control up at every stage time, row k for stage k
    case = SimpleNamespace(stepper=_Stepper(g, drift, None), scheme="muscl-fv",
                           controls=drift.control.value_at(times), deltas=delta.value_at(times))
    values, w_values, outflux, k = rho0.values, np.zeros(g.shape), 0.0, 0
    for n, p in enumerate(plan, 1):
        out_m = 0.0
        for _ in range(p):
            values, w_values, out_j, _ = reference_advance(case, values, tg.dt / p, k, w_values)
            out_m += out_j
            k += 2
        outflux += out_m
        for got in (traj, base):
            assert bits_equal(got.nodes[n], values) and bits_equal(got.mass[n], values.sum() * g.cell_volume)
            assert bits_equal(got.boundary_outflux[n], outflux)
        assert bits_equal(w_traj.nodes[n], w_values)


@pytest.mark.parametrize("scheme", ["upwind-fv", "muscl-fv"])
def test_no_sweep_outlives_its_solve(scheme, monkeypatch):
    made = []
    init = _Sweep.__init__

    def tracked(self, *args):
        init(self, *args)
        made.append(weakref.ref(self))

    def alive():
        return [ref for ref in made if ref() is not None]

    monkeypatch.setattr(_Sweep, "__init__", tracked)
    g, tg, rho0 = gaussian_setup(n=128, nt=16)
    drift = DriftSpec(DriftPreset("zero"), varying_control(tg, 1))
    solve_forward(rho0, drift, None, tg, scheme=scheme)
    assert len(made) == 1 and not alive()
    solve_linearized(rho0, drift, varying_control(tg, 1, scale=0.3), None, tg, scheme=scheme)
    assert len(made) == 2 and not alive()


@pytest.mark.parametrize("scheme", ["upwind-fv", "muscl-fv"])
@pytest.mark.parametrize("step, case", [(1, "nan"), (1, "inf"), (1, "-inf"), (1, "overflow"), (5, "overflow"),
                                        (1, "-overflow"), (5, "-overflow")])
def test_non_finite_value_is_reported_at_its_step(scheme, step, case):
    g, tg, rho0 = gaussian_setup(n=64, nt=8)
    drift = drift_const(tg, 0.3, 0.0)
    source = np.zeros(g.shape)
    if case.endswith("overflow"):
        # a finite source overflows one cell during step `step`: under zero
        # drift the cell starts at +-(max - (step - 1/2) 1e306) and gains
        # +-1e306 a step
        sign = -1.0 if case.startswith("-") else 1.0
        values = np.zeros(g.shape)
        values[20] = sign * (np.finfo(float).max - (step - 0.5) * 1e306)
        rho0, drift = ScalarField(g, values), drift_const(tg, 0.0, 0.0)
        source[20] = sign * 1e306 / tg.dt
    else:
        source[20] = float(case)
    with np.errstate(all="ignore"), pytest.raises(NonFinite, match=f"at step {step}$"):
        solve_forward(rho0, drift, source, tg, scheme=scheme, fixed_substeps=[1] * tg.nt)


def test_mass_that_overflows_is_not_a_non_finite_value():
    g, tg, _ = gaussian_setup(n=64, nt=4)
    big = np.zeros(g.shape)
    big[30:32] = 1.5e308  # finite values whose sum overflows
    with np.errstate(over="ignore"):
        traj = solve_forward(ScalarField(g, big), drift_const(tg, 0.0, 0.0), None, tg)
    assert np.isinf(traj.mass).all() and np.array_equal(traj.nodes[tg.nt], big)


# --- per-node values from blocks of nodes and from the checkpoints ----------


DIAGNOSTIC_CASES = [
    # (grid, nt, theta): several blocks with a ragged last one, in 1D and
    # 2D; nt + 1 nodes inside one block; and no running cost.  The running
    # cost is reduced by the objective, and test_reduced reads theta
    (make_grid(1, -8.0, 8.0, 1000), 40, Potential.tracking([[0.0, 0.0], [1.0, 0.5]])),
    (make_grid(2, (-4.0, -4.0), (4.0, 4.0), (40, 40)), 25, Potential("quadratic")),
    (make_grid(1, -8.0, 8.0, 64), 16, Potential("gaussian-well")),
    (make_grid(1, -8.0, 8.0, 1000), 40, Potential("zero")),
]
DIAGNOSTIC_IDS = ["1d-ragged", "2d-ragged", "one-block", "no-theta"]


def diagnostic_setup(g, nt):
    """rho0, drift and time grid of a DIAGNOSTIC_CASES case."""
    tg = make_timegrid(1.0, nt)
    size = _block_nodes(2 * g.num_cells)
    if g.num_cells == 64:
        assert size > nt + 1
    else:
        assert 1 < size < nt + 1 and (nt + 1) % size
    x0 = 0.3 if g.dim == 1 else [0.5, -0.3]
    rho0 = sample_function(g, "gaussian", {"x0": x0, "v0": 0.4})
    return rho0, DriftSpec(DriftPreset("zero"), varying_control(tg, g.dim, scale=0.5)), tg


@pytest.mark.parametrize("g, nt, theta", DIAGNOSTIC_CASES, ids=DIAGNOSTIC_IDS)
@pytest.mark.parametrize("refine", [1, 7])
def test_block_reduced_diagnostics_match_the_per_node_loop(g, nt, theta, refine, tmp_path):
    # each step takes refine times its planned substeps, and each node is
    # recorded once its step's last substep is done
    rho0, drift, tg = diagnostic_setup(g, nt)
    plan = [refine * k for k in required_substeps(g, drift, tg, 0.9)]
    traj = solve_forward(rho0, drift, None, tg, scheme="muscl-fv", fixed_substeps=plan)
    # the summary's minimum and L2 norm come from the stored nodes
    summary = write_trajectory_summary(traj, str(tmp_path / "summary.csv"))
    vol = g.cell_volume
    for n, vals in enumerate(traj.nodes):
        assert bits_equal(traj.mass[n], vals.sum() * vol)
        assert bits_equal(summary["min"][n], vals.min())
        assert bits_equal(summary["l2"][n], math.sqrt(float((vals * vals).sum() * vol)))


def per_node_norm(g, vals, m, k):
    """The weighted H^m_k norm of one node, summed over the derivative
    orders in the order of the norm's own loop, each from the node's own
    sum of squares."""
    orders = [(a,) for a in range(m + 1)] if g.dim == 1 else [(a, b) for a in range(m + 1) for b in range(m + 1 - a)]
    total = 0.0
    for alpha in orders:
        field = ScalarField(g, vals)
        for axis, order in enumerate(alpha):
            for _ in range(order):
                field = partial_derivative(field, axis)
        total += math.sqrt(float(((g.weight(k) * field.values) ** 2).sum() * g.cell_volume))
    return total


@pytest.mark.parametrize("g, nt", [
    (make_grid(1, -8.0, 8.0, 1000), 40),
    (make_grid(2, (-4.0, -4.0), (4.0, 4.0), (40, 40)), 25),
], ids=["1d", "2d"])
def test_checkpoint_norms_match_the_per_node_loop(g, nt):
    # several blocks of nodes, the last one ragged
    size = _block_nodes(g.num_cells)
    assert 1 < size < nt + 1 and (nt + 1) % size
    traj = forward_module.Checkpoints(make_timegrid(1.0, nt), g)
    traj.nodes[...] = np.random.default_rng(5).normal(size=traj.nodes.shape)
    traj.nodes[3] = -0.0
    for m in (0, 1, 2):
        for k in (-4, 0, 2):
            want = [per_node_norm(g, vals, m, k) for vals in traj.nodes]
            assert bits_equal(traj.norms(m, k), want), (m, k)
            assert all(bits_equal(weighted_sobolev_norm(ScalarField(g, vals), m, k), w) for vals, w in zip(traj.nodes, want))


def per_step_fitted_constant(before, after, r, s, dt):
    """The smallest C of the Gronwall recursion, one step at a time."""
    fitted = 0.0
    for growth, denom in zip(after - before - dt * s, dt * r * before):
        if growth > 0.0:
            fitted = math.inf if denom <= 0.0 else max(fitted, growth / denom)
    return fitted


@pytest.mark.parametrize("case", ["grows", "no-growth", "stuck"])
def test_fitted_constant_matches_the_per_step_loop(case):
    rng = np.random.default_rng(11)
    before = rng.uniform(0.5, 2.0, 30)
    r, s, dt = rng.uniform(0.0, 1.5, 30), rng.uniform(0.0, 0.1, 30), 0.01
    after = before * (1.0 + rng.uniform(-0.02, 0.02, 30))
    if case == "no-growth":
        after = before * 0.99 - dt * s
    elif case == "stuck":
        # a step that grows where the drift factor is 0 needs C = inf
        r[7] = 0.0
        after[7] = before[7] + dt * s[7] + 1e-3
    cert = forward_module.EnergyCertificate.check(0, 0, before, after, r, s, dt, 2.0)
    assert bits_equal(cert.fitted_C, per_step_fitted_constant(before, after, r, s, dt))
    if case == "grows":
        assert 0.0 < cert.fitted_C < math.inf
    else:
        assert cert.fitted_C == (0.0 if case == "no-growth" else math.inf)
