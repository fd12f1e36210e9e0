import math

import numpy as np
import pytest

from liouville_control import (
    CflUnderflow,
    ControlPath,
    DriftPreset,
    DriftSpec,
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
    moment_ode,
    moments,
    potential_eval,
    sample_function,
    solve_forward,
    solve_linearized,
)
from liouville_control.forward import _Faces, _Stepper, _face_points, required_substeps
from liouville_control.grid import _block_nodes
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
    plan = required_substeps(_Stepper(g, drift, None, "upwind-fv"), tg, cfl)
    assert plan == expected
    assert len(set(plan)) > 1


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


def reference_divergence(stepper, k, values, w_values):
    """The flux divergence with the face speeds formed at every stage."""
    div = np.zeros_like(values)
    div_w = np.zeros_like(values) if w_values is not None else None
    out_rate = 0.0
    speeds = stepper.face_speeds(k)
    deltas = stepper.face_speed_deltas(k) if w_values is not None else None
    for ax, a in enumerate(speeds):
        left, right = reference_face_states(np.swapaxes(values, 0, ax), stepper.scheme)
        ap = np.maximum(a, 0.0)
        am = np.minimum(a, 0.0)
        F = ap * left + am * right
        div_ax = np.swapaxes(div, 0, ax)
        div_ax += (F[1:] - F[:-1]) / stepper.h[ax]
        out_rate += float((F[-1].sum() - F[0].sum()) * stepper.transverse[ax])
        if w_values is not None:
            wl, wr = reference_face_states(np.swapaxes(w_values, 0, ax), stepper.scheme)
            rho_up = np.where(a >= 0.0, left, right)
            Fw = ap * wl + am * wr + deltas[ax] * rho_up
            div_w_ax = np.swapaxes(div_w, 0, ax)
            div_w_ax += (Fw[1:] - Fw[:-1]) / stepper.h[ax]
    return div, div_w, out_rate


def reference_advance(stepper, values, t, dt, k, w_values=None):
    vol = stepper.grid.cell_volume
    g_eval = stepper.g_eval
    if stepper.scheme == "upwind-fv":
        div, div_w, out_rate = reference_divergence(stepper, k, values, w_values)
        new = values - dt * div
        src_mass = 0.0
        if g_eval is not None:
            gmid = g_eval(t + 0.5 * dt)
            new = new + dt * gmid
            src_mass = float(gmid.sum() * vol) * dt
        new_w = w_values - dt * div_w if w_values is not None else None
        return new, new_w, out_rate * dt, src_mass
    div1, divw1, rate1 = reference_divergence(stepper, k, values, w_values)
    g1 = g_eval(t) if g_eval is not None else None
    stage = values - dt * div1 + (dt * g1 if g1 is not None else 0.0)
    stage_w = w_values - dt * divw1 if w_values is not None else None
    div2, divw2, rate2 = reference_divergence(stepper, k + 1, stage, stage_w)
    g2 = g_eval(t + dt) if g_eval is not None else None
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


def stage_case(d, scheme, tangent, g_eval=None):
    """A stepper on a grid fine enough for a split block of a few table
    rows, over a table whose rows are the control's nodes: speeds of both
    signs, exact zeros and -0.0 among them."""
    g = make_grid(1, -4.0, 4.0, 1024) if d == 1 else make_grid(2, (-4.0, -3.0), (4.0, 5.0), (40, 44))
    tg = make_timegrid(1.0, 23)
    u1 = np.tile([0.0, -0.0, 0.7, -0.7, 0.0, 1.3, -0.2, 0.0, 0.5, -1.1, 0.3, 0.0], 2)
    u2 = np.tile([0.0, -0.0, -0.5, 0.4, -1.0, 0.0, 0.9, -0.3, -0.0, 0.2, -0.6, 0.8], 2)
    control = ControlPath(tg, np.column_stack([u1, -u1[::-1]][:d]), np.column_stack([u2, u2[::-1]][:d]))
    delta = ControlPath(tg, np.column_stack([u2, u1][:d]), np.column_stack([-u1, u2][:d])) if tangent else None
    # a0 = 0 in 1D puts exact zero speeds at the face x = 0 and on the rows
    # where u1 = u2 = 0; the 2D rotation's a0 is nowhere zero on the faces
    drift = DriftSpec(DriftPreset("zero" if d == 1 else "rotation"), control)
    stepper = _Stepper(g, drift, g_eval, scheme, delta)
    stepper.look_up(tg.nodes())
    assert 3 * stepper._rows < tg.nt  # the table spans several blocks
    return g, stepper


@pytest.mark.parametrize("tangent", [False, True], ids=["state", "tangent"])
@pytest.mark.parametrize("scheme", ["upwind-fv", "muscl-fv"])
@pytest.mark.parametrize("d", [1, 2])
def test_stage_matches_the_allocating_version(d, scheme, tangent):
    g, stepper = stage_case(d, scheme, tangent)
    values = adversarial_field(g.shape, 1)
    w_values = adversarial_field(g.shape, 2) if tangent else None
    rows = stepper._rows
    # rows of the first block, of the next, then of the first again (a
    # rebuild); MUSCL's stage at rows - 1 reads its second row in the next block
    for k in (0, 1, rows - 1, rows + 1, 3 * rows // 2, 2, 2 * rows + 1):
        div, div_w = np.empty(g.shape), np.empty(g.shape) if tangent else None
        rate = stepper._divergence(k, values, div, w_values, div_w)
        ref_div, ref_div_w, ref_rate = reference_divergence(stepper, k, values, w_values)
        assert bits_equal(div, ref_div) and bits_equal(np.float64(rate), np.float64(ref_rate))
        if tangent:
            assert bits_equal(div_w, ref_div_w)
        got = stepper.advance(values, 0.1, 0.013, k, w_values)
        ref = reference_advance(stepper, values, 0.1, 0.013, k, w_values)
        assert bits_equal(got[0], ref[0])
        assert bits_equal(np.float64(got[2]), np.float64(ref[2])) and got[3] == ref[3]
        assert bits_equal(got[1], ref[1]) if tangent else got[1] is None


@pytest.mark.parametrize("scheme", ["upwind-fv", "muscl-fv"])
def test_stage_with_a_source_matches_the_allocating_version(scheme):
    source = adversarial_field((1024,), 3)
    g, stepper = stage_case(1, scheme, True, g_eval=lambda t: (1.0 + t) * source)
    values, w_values = adversarial_field(g.shape, 4), adversarial_field(g.shape, 5)
    got = stepper.advance(values, 0.2, 0.01, 4, w_values)
    ref = reference_advance(stepper, values, 0.2, 0.01, 4, w_values)
    for a, b in zip(got, ref):
        assert bits_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def stepper_of(traj):
    return traj.release.__self__


def holds_nothing(stepper):
    return stepper._block is None and stepper._tables is None and stepper._work is None


@pytest.mark.parametrize("scheme", ["upwind-fv", "muscl-fv"])
def test_solves_release_their_workspace_and_split_block(scheme):
    g, tg, rho0 = gaussian_setup(n=128, nt=16)
    drift = DriftSpec(DriftPreset("zero"), varying_control(tg, 1))
    traj = solve_forward(rho0, drift, None, tg, scheme=scheme, stride=4)
    assert holds_nothing(stepper_of(traj))
    traj.values_at(6)
    assert holds_nothing(stepper_of(traj))
    for _ in traj.dense_values():
        pass
    assert holds_nothing(stepper_of(traj))
    base, _ = solve_linearized(rho0, drift, varying_control(tg, 1, scale=0.3), None, tg, scheme=scheme)
    assert holds_nothing(stepper_of(base))


@pytest.mark.parametrize("scheme", ["upwind-fv", "muscl-fv"])
def test_stride_replay_rebuilds_its_blocks(scheme):
    g = make_grid(1, -8.0, 8.0, 2048)
    tg = make_timegrid(1.0, 30)
    rho0 = sample_function(g, "gaussian", {"x0": 0.5, "v0": 1.0})
    drift = DriftSpec(DriftPreset("gaussian-bump", {"c": 0.5, "sigma": 1.2}), varying_control(tg, 1, scale=3.0))
    dense = solve_forward(rho0, drift, None, tg, scheme=scheme, stride=1)
    strided = solve_forward(rho0, drift, None, tg, scheme=scheme, stride=7)
    assert len(set(strided.substeps)) > 1
    stepper = stepper_of(strided)
    starts = []
    tabulate = stepper._tabulate
    stepper._tabulate = lambda lo: starts.append(lo) or tabulate(lo)
    for n in (3, 13, 20, 29):
        assert bits_equal(strided.values_at(n), dense.values_at(n))
    # a replay of many substeps spans more than one block of rows
    assert len(starts) > 4 and len(set(starts)) == len(starts)
    got = {n: v.copy() for n, v in strided.dense_values()}
    assert sorted(got) == list(range(tg.nt + 1))
    for n in range(tg.nt + 1):
        assert bits_equal(got[n], dense.values_at(n))
    assert holds_nothing(stepper)


@pytest.mark.parametrize("scheme", ["upwind-fv", "muscl-fv"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("step", [1, 5])
def test_non_finite_value_is_reported_at_its_step(scheme, bad, step):
    g, tg, rho0 = gaussian_setup(n=64, nt=8)
    dt = tg.dt
    spike = np.zeros(g.shape)
    spike[20] = bad

    def source(t):
        # only inside step `step`: its midpoint and (MUSCL) its end
        return spike if (step - 0.75) * dt < t < (step + 0.25) * dt else np.zeros(g.shape)

    drift = drift_const(tg, 0.3, 0.0)
    with pytest.raises(NonFinite, match=f"at step {step}$"):
        solve_forward(rho0, drift, source, tg, scheme=scheme, fixed_substeps=1)


def test_mass_that_overflows_is_not_a_non_finite_value():
    g, tg, _ = gaussian_setup(n=64, nt=4)
    big = np.zeros(g.shape)
    big[30:32] = 1.5e308  # finite values whose sum overflows
    with np.errstate(over="ignore"):
        traj = solve_forward(ScalarField(g, big), drift_const(tg, 0.0, 0.0), None, tg)
    assert np.isinf(traj.mass).all() and np.array_equal(traj.values_at(tg.nt), big)


# --- per-node diagnostics reduced over blocks of nodes ----------------------


DIAGNOSTIC_CASES = [
    # (grid, nt, theta): several blocks with a ragged last one, in 1D and
    # 2D; nt + 1 nodes inside one block; and no running cost
    (make_grid(1, -8.0, 8.0, 1000), 40, Potential.tracking([[0.0, 0.0], [1.0, 0.5]])),
    (make_grid(2, (-4.0, -4.0), (4.0, 4.0), (40, 40)), 25, Potential("quadratic")),
    (make_grid(1, -8.0, 8.0, 64), 16, Potential("gaussian-well")),
    (make_grid(1, -8.0, 8.0, 1000), 40, Potential("zero")),
]


@pytest.mark.parametrize("g, nt, theta", DIAGNOSTIC_CASES, ids=["1d-ragged", "2d-ragged", "one-block", "no-theta"])
@pytest.mark.parametrize("stride", [1, 7])
def test_block_reduced_diagnostics_match_the_per_node_loop(g, nt, theta, stride):
    tg = make_timegrid(1.0, nt)
    size = _block_nodes((1 if theta.is_zero else 2) * g.num_cells)
    if g.num_cells == 64:
        assert size > nt + 1
    else:
        assert 1 < size < nt + 1 and (nt + 1) % size
    x0 = 0.3 if g.dim == 1 else [0.5, -0.3]
    rho0 = sample_function(g, "gaussian", {"x0": x0, "v0": 0.4})
    drift = DriftSpec(DriftPreset("zero"), varying_control(tg, g.dim, scale=0.5))
    # a solve given no theta has no running cost
    traj = solve_forward(rho0, drift, None, tg, scheme="muscl-fv", stride=stride,
                         theta=None if theta.is_zero else theta)
    vol, pts = g.cell_volume, g.cell_centers()
    for n, vals in traj.dense_values():
        th = potential_eval(theta, pts, n * tg.dt).reshape(g.shape)
        assert bits_equal(traj.mass[n], vals.sum() * vol)
        assert bits_equal(traj.min_value[n], vals.min())
        assert bits_equal(traj.l2[n], math.sqrt(float((vals * vals).sum() * vol)))
        assert bits_equal(traj.running[n], float((th * vals).sum() * vol))
    assert np.all(traj.running == 0.0) == theta.is_zero
