import math
import weakref

import numpy as np
import pytest

import liouville_control.adjoint as adjoint_module
from liouville_control import (
    AffineFlow,
    CharacteristicEscape,
    ControlPath,
    CostSpec,
    DriftPreset,
    DriftSpec,
    Potential,
    ScalarField,
    adjoint_energy_certificate,
    confining_weight_index,
    eval_drift,
    interpolate_flagged,
    make_grid,
    make_timegrid,
    potential_eval,
    sample_function,
    sample_potential,
    solve_adjoint,
    solve_forward,
)
from liouville_control.grid import _block_nodes


def setup(n=256, nt=256, T=1.0):
    return make_grid(1, -8, 8, n), make_timegrid(T, nt)


def zero_drift(tg, dim=1):
    return DriftSpec(DriftPreset("zero"), ControlPath.zeros(tg, dim))


def test_static_characteristics_exact():
    g, tg = setup()
    cost = CostSpec(gamma=1.0, theta=Potential("gaussian-well"), phi=Potential("gaussian-well"))
    traj = solve_adjoint(cost, zero_drift(tg), tg, g)
    pts = g.cell_centers()
    for n in (0, tg.nt // 2, tg.nt):
        t = n * tg.dt
        exact = -potential_eval(cost.phi, pts) - (tg.T - t) * potential_eval(cost.theta, pts)
        assert np.abs(traj.nodes[n].ravel() - exact).max() < 1e-12


def test_static_characteristics_quadratic_potential():
    # values up to ~130 at the corners, so rounding accumulates a bit more
    g, tg = setup()
    cost = CostSpec(gamma=1.0, theta=Potential("quadratic"), phi=Potential("quadratic"))
    traj = solve_adjoint(cost, zero_drift(tg), tg, g)
    pts = g.cell_centers()
    exact = -potential_eval(cost.phi, pts) - tg.T * potential_eval(cost.theta, pts)
    assert np.abs(traj.nodes[0].ravel() - exact).max() < 5e-11


def test_zero_running_cost_transports_terminal_data():
    g, tg = setup(n=128, nt=64)
    cost = CostSpec(gamma=1.0, theta=Potential("zero"), phi=Potential("gaussian-well"))
    traj = solve_adjoint(cost, zero_drift(tg), tg, g)
    terminal = traj.nodes[-1]
    for vals in traj.nodes:
        assert np.abs(vals - terminal).max() < 1e-13


def test_terminal_snapshot_is_minus_phi():
    g, tg = setup(n=64, nt=32)
    cost = CostSpec(gamma=1.0, phi=Potential("gaussian-well"))
    traj = solve_adjoint(cost, zero_drift(tg), tg, g)
    phi = sample_potential(g, cost.phi, tg.T)
    assert np.array_equal(traj.nodes[tg.nt], -phi.values)


def test_affine_drift_matches_flow_composition():
    def l2_err(n, nt):
        g = make_grid(1, -8, 8, n)
        tg = make_timegrid(1.0, nt)
        drift = DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [0.5], [0.3]))
        cost = CostSpec(gamma=1.0, theta=Potential("zero"), phi=Potential("gaussian-well"))
        traj = solve_adjoint(cost, drift, tg, g)
        flow = AffineFlow(drift)
        pts = g.cell_centers()
        worst = 0.0
        for nstep in (0, nt // 2):
            mapped = flow.map_between(nstep * tg.dt, tg.T, pts)
            exact = -potential_eval(cost.phi, mapped)
            diff = traj.nodes[nstep].ravel() - exact
            worst = max(worst, math.sqrt(float((diff**2).sum() * g.cell_volume)))
        return worst

    e128, e256 = l2_err(128, 128), l2_err(256, 256)
    assert e256 < 3e-3
    assert e128 / e256 > 2.8  # second order in (h, dt) together


def test_maximum_principle_zero_source():
    g, tg = setup(n=128, nt=128)
    drift = DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [0.7], [0.4]))
    cost = CostSpec(gamma=1.0, theta=Potential("zero"), phi=Potential("gaussian-well"))
    traj = solve_adjoint(cost, drift, tg, g)
    phi = sample_potential(g, cost.phi, tg.T).values
    lo, hi = (-phi).min(), (-phi).max()
    for vals in traj.nodes:
        assert vals.min() >= lo - 1e-12
        assert vals.max() <= hi + 1e-12


def test_forward_backward_duality():
    # d/dt int rho q dx = int theta rho dx for source-free forward runs
    g, tg = setup()
    rho0 = sample_function(g, "gaussian", {"x0": 0.5, "v0": 0.5})
    drift = DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [0.3], [0.2]))
    cost = CostSpec(gamma=1.0, theta=Potential("gaussian-well"), phi=Potential("gaussian-well"))
    ftraj = solve_forward(rho0, drift, None, tg, scheme="muscl-fv")
    qtraj = solve_adjoint(cost, drift, tg, g)
    vol = g.cell_volume
    theta = sample_potential(g, cost.theta).values
    steps = range(0, tg.nt + 1, 8)
    pair = np.array([(ftraj.nodes[n] * qtraj.nodes[n]).sum() * vol for n in steps])
    theta_rho = np.array([(theta * ftraj.nodes[n]).sum() * vol for n in steps])
    dtc = 8 * tg.dt
    dpair = (pair[2:] - pair[:-2]) / (2 * dtc)
    assert np.abs(dpair - theta_rho[1:-1]).max() < 1e-3


def test_tracking_source_time_integral():
    # drift-free with a moving target: q(t,x) = -phi(x) - int_t^T |x - x_d(s)|^2 ds
    g, tg = setup(n=64, nt=128)
    track = Potential.tracking([[0.0, 0.0], [1.0, 0.8]])
    cost = CostSpec(gamma=1.0, theta=track, phi=Potential("zero"))
    traj = solve_adjoint(cost, zero_drift(tg), tg, g)
    pts = g.cell_centers()
    svals = np.linspace(0.0, 1.0, 20001)
    xd = 0.8 * svals
    q0 = traj.nodes[0].ravel()
    exact = -np.trapezoid((pts[:, 0][:, None] - xd[None, :]) ** 2, x=svals, axis=1)
    assert np.abs(q0 - exact).max() < 1e-5


def test_confining_diagnostic_and_certificate():
    g, tg = setup(n=128, nt=128)
    drift = DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [0.3], [0.2]))
    cost = CostSpec(gamma=1.0, theta=Potential("quadratic"), phi=Potential("quadratic"))
    traj = solve_adjoint(cost, drift, tg, g)
    assert confining_weight_index(1) == 3
    assert np.all(np.isfinite(traj.norm_history(0, -3)))
    # translation-dominated drift: the weight-advection term makes the
    # fitted constant exceed the gradient factor alone, so just require the
    # reported envelope to be finite and not wildly large
    cert = adjoint_energy_certificate(traj, drift, cost, C_cert=2.0)
    assert cert.k == -3
    assert math.isfinite(cert.fitted_C)
    assert cert.fitted_C < 5.0
    loose = adjoint_energy_certificate(traj, drift, cost, C_cert=cert.fitted_C * 1.01)
    assert loose.passed


def test_offgrid_characteristics_analytic_continuation():
    # strong outward drift near the right edge: feet escape the box and the
    # value must come from the exact characteristic formula
    g, tg = setup(n=128, nt=128)
    c1, c2 = 2.0, 0.0
    drift = DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [c1], [c2]))
    cost = CostSpec(gamma=1.0, theta=Potential("quadratic"), phi=Potential("quadratic"))
    traj = solve_adjoint(cost, drift, tg, g)
    x = g.centers(0)[-1]  # rightmost cell: characteristic from t = 0 exits
    # X(s) = x + c1 s; q(0, x) = -(x + c1 T)^2 - int_0^T (x + c1 s)^2 ds
    T = tg.T
    exact = -((x + c1 * T) ** 2) - (x * x * T + x * c1 * T**2 + c1 * c1 * T**3 / 3.0)
    got = traj.nodes[0].ravel()[-1]
    assert got == pytest.approx(exact, rel=1e-6)


def _per_step_reference(cost, drift, tg, g):
    """The adjoint marched one backward step at a time, tracing each step's
    feet afresh and continuing every escaped foot to T by a march of its
    own; returns ({n: q_n}, number of escaped feet)."""
    dt, nt = tg.dt, tg.nt
    pts = g.cell_centers()

    def rk4(t, x):
        k1 = eval_drift(drift, t, x)
        k2 = eval_drift(drift, t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = eval_drift(drift, t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = eval_drift(drift, t + dt, x + dt * k3)
        return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def theta_integral(t0, x0, x1):
        return dt * potential_eval(cost.theta, 0.5 * (x0 + x1), t0 + 0.5 * dt)

    q = (-potential_eval(cost.phi, pts, tg.T)).reshape(g.shape)
    out = {nt: q}
    escaped = 0
    for n_next in range(nt, 0, -1):
        t0 = (n_next - 1) * dt
        feet = rk4(t0, pts)
        vals, _ = interpolate_flagged(ScalarField(g, q), feet, clip=True)
        mask = np.zeros(len(pts), dtype=bool)
        for ax in range(g.dim):
            lo, hi = g.lo[ax] + 0.5 * g.h[ax], g.hi[ax] - 0.5 * g.h[ax]
            mask |= (feet[:, ax] < lo) | (feet[:, ax] > hi)
        escaped += int(mask.sum())
        x = feet[mask].copy()
        acc = np.zeros(x.shape[0])
        for j in range(n_next, nt):
            x_next = rk4(j * dt, x)
            acc += theta_integral(j * dt, x, x_next)
            x = x_next
        vals[mask] = -potential_eval(cost.phi, x, nt * dt) - acc
        q = (vals - theta_integral(t0, pts, feet)).reshape(g.shape)
        out[n_next - 1] = q
    return out, escaped


def _assert_matches_reference(cost, drift, tg, g, ref):
    traj = solve_adjoint(cost, drift, tg, g)
    assert len(traj.nodes) == tg.nt + 1
    for n, vals in enumerate(traj.nodes):
        assert np.array_equal(vals, ref[n])


def test_batched_offgrid_continuation_matches_per_step_march():
    g = make_grid(1, -4, 4, 64)
    tg = make_timegrid(1.0, 32)
    s = np.linspace(0.0, 1.0, tg.nt + 1)[:, None]
    drift = DriftSpec(
        DriftPreset("gaussian-bump", {"c": 0.5, "sigma": 1.0}),
        ControlPath(tg, 1.0 + 0.5 * np.sin(3.0 * s), 0.3 - 0.2 * s),
    )
    track = Potential.tracking([[0.0, -1.0], [1.0, 2.0]])
    cost = CostSpec(gamma=1.0, theta=track, phi=Potential("quadratic"))
    ref, escaped = _per_step_reference(cost, drift, tg, g)
    assert escaped > tg.nt  # feet leave the span at every step
    _assert_matches_reference(cost, drift, tg, g, ref)


def test_stored_feet_match_per_step_march_in_2d():
    # a rotation carries the corner cells beyond the span of cell centres,
    # and the time-varying control pushes feet across both axes
    g = make_grid(2, (-3, -3), (3, 3), (16, 16))
    tg = make_timegrid(0.5, 16)
    s = np.linspace(0.0, 1.0, tg.nt + 1)[:, None]
    drift = DriftSpec(
        DriftPreset("rotation", {"omega": 1.5}),
        ControlPath(tg, np.hstack([0.4 * np.cos(4.0 * s), -0.3 + 0.2 * s]), np.full((tg.nt + 1, 2), 0.2)),
    )
    cost = CostSpec(gamma=1.0, theta=Potential("quadratic"), phi=Potential("quadratic"))
    ref, escaped = _per_step_reference(cost, drift, tg, g)
    assert escaped > tg.nt
    _assert_matches_reference(cost, drift, tg, g, ref)


def bits_equal(a, b):
    """Equal shapes and equal bit patterns (so -0.0 differs from 0.0)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("dim", [1, 2])
def test_blocked_feet_match_per_step_rk4(dim):
    # grids and step counts with several blocks of steps, the last ragged
    if dim == 1:
        g, tg = make_grid(1, -4, 4, 1000), make_timegrid(1.0, 40)
        a0 = DriftPreset("gaussian-bump", {"c": 0.5, "sigma": 1.0})
    else:
        g, tg = make_grid(2, (-3, -3), (3, 3), (40, 40)), make_timegrid(0.5, 25)
        a0 = DriftPreset("rotation", {"omega": 1.5})
    size = _block_nodes(g.num_cells)
    assert 1 < size < tg.nt and tg.nt % size
    s = np.linspace(0.0, 1.0, tg.nt + 1)[:, None]
    u1 = 0.8 * np.cos(4.0 * s + np.arange(dim))
    drift = DriftSpec(a0, ControlPath(tg, u1, 0.3 - 0.5 * s * np.arange(1, dim + 1)))
    cost = CostSpec(gamma=1.0, theta=Potential("quadratic"), phi=Potential("quadratic"))
    stepper = adjoint_module._BackStepper(g, drift, cost, tg)
    centers = g.cell_centers()
    escaped = 0
    for n in range(tg.nt):
        feet = adjoint_module._rk4_feet(drift, n * tg.dt, tg.dt, centers)
        assert bits_equal(stepper.feet[n], feet)
        cells, _ = stepper.offgrid[n + 1]
        assert np.array_equal(cells, np.flatnonzero(stepper._outside_center_span(feet)))
        escaped += cells.size
    assert escaped > 0


@pytest.mark.parametrize("dim", [1, 2])
def test_blocked_running_cost_term_matches_the_per_step_integral(dim):
    # several blocks of steps, the last ragged; a tracking theta in 1D and a
    # quadratic one in 2D
    if dim == 1:
        g, tg = make_grid(1, -4, 4, 1000), make_timegrid(1.0, 40)
        a0, theta = DriftPreset("gaussian-bump", {"c": 0.5, "sigma": 1.0}), Potential.tracking([[0.1, -1.0], [0.8, 2.0]])
    else:
        g, tg = make_grid(2, (-3, -3), (3, 3), (40, 40)), make_timegrid(0.5, 25)
        a0, theta = DriftPreset("rotation", {"omega": 1.5}), Potential("quadratic")
    size = _block_nodes(g.num_cells)
    assert 1 < size < tg.nt and tg.nt % size
    s = np.linspace(0.0, 1.0, tg.nt + 1)[:, None]
    drift = DriftSpec(a0, ControlPath(tg, 0.8 * np.cos(4.0 * s + np.arange(dim)), 0.3 - 0.5 * s * np.arange(1, dim + 1)))
    cost = CostSpec(gamma=1.0, theta=theta, phi=Potential("quadratic"))
    stepper = adjoint_module._BackStepper(g, drift, cost, tg)
    rows = []
    integral = stepper._theta_line_integral
    stepper._theta_line_integral = lambda t0, *args: rows.append(np.size(t0)) or integral(t0, *args)
    # the per-step march evaluates each step's term on its own
    ref, _ = _per_step_reference(cost, drift, tg, g)
    # the whole backward pass, over several blocks of steps, the last ragged
    rows.clear()
    got = list(stepper.sweep(ref[tg.nt]))
    assert len(got) == tg.nt
    for n, q in zip(range(tg.nt - 1, -1, -1), got):
        assert bits_equal(q, ref[n])
    # the blocks of terms cover every step once
    assert sum(rows) == tg.nt and len(rows) == -(-tg.nt // size) and max(rows) == size
    _assert_matches_reference(cost, drift, tg, g, ref)


@pytest.mark.parametrize("dim", [1, 2])
def test_sweep_across_stencil_blocks_matches_the_per_step_march(dim):
    # the backward pass builds the interpolation stencils of several blocks
    # of steps, the last ragged; feet leave the span at every step
    if dim == 1:
        g, tg = make_grid(1, -4, 4, 300), make_timegrid(1.0, 40)
        a0, theta = DriftPreset("gaussian-bump", {"c": 0.5, "sigma": 1.0}), Potential.tracking([[0.0, -1.0], [1.0, 2.0]])
    else:
        g, tg = make_grid(2, (-3, -3), (3, 3), (16, 16)), make_timegrid(0.5, 18)
        a0, theta = DriftPreset("rotation", {"omega": 1.5}), Potential("quadratic")
    size = _block_nodes(4**dim * g.num_cells)
    assert 1 < size < tg.nt and tg.nt % size
    s = np.linspace(0.0, 1.0, tg.nt + 1)[:, None]
    drift = DriftSpec(a0, ControlPath(tg, 1.0 + 0.5 * np.sin(3.0 * s + np.arange(dim)), 0.3 - 0.2 * s * np.arange(1, dim + 1)))
    cost = CostSpec(gamma=1.0, theta=theta, phi=Potential("quadratic"))
    ref, escaped = _per_step_reference(cost, drift, tg, g)
    assert escaped > tg.nt
    traj = solve_adjoint(cost, drift, tg, g)
    for n in range(tg.nt + 1):
        assert bits_equal(traj.nodes[n], ref[n])


def test_march_looks_the_control_up_once(monkeypatch):
    # the off-grid march reads the control at all of its stage times from
    # one lookup; the blocks of centre feet look it up once per RK4 stage
    g, tg = make_grid(1, -4, 4, 1000), make_timegrid(1.0, 40)
    s = np.linspace(0.0, 1.0, tg.nt + 1)[:, None]
    drift = DriftSpec(DriftPreset("gaussian-bump", {"c": 0.5, "sigma": 1.0}), ControlPath(tg, 1.0 + 0.5 * np.sin(3.0 * s), 0.3 - 0.2 * s))
    cost = CostSpec(gamma=1.0, theta=Potential("quadratic"), phi=Potential("quadratic"))
    calls = []
    value_at = ControlPath.value_at

    def counted(self, t):
        calls.append(np.shape(t))
        return value_at(self, t)

    monkeypatch.setattr(ControlPath, "value_at", counted)
    stepper = adjoint_module._BackStepper(g, drift, cost, tg)
    assert sum(cells.size for cells, _ in stepper.offgrid.values()) > tg.nt  # the march runs
    blocks = -(-tg.nt // _block_nodes(g.num_cells))
    assert len(calls) == 1 + 4 * blocks
    assert (3, tg.nt - 1) in calls


def test_no_block_of_terms_outlives_its_sweep(monkeypatch):
    # every running-cost block the backward pass tabulates is gone once the
    # solve returns
    g, tg = make_grid(1, -4, 4, 1000), make_timegrid(1.0, 40)
    s = np.linspace(0.0, 1.0, tg.nt + 1)[:, None]
    drift = DriftSpec(DriftPreset("gaussian-bump", {"c": 0.5, "sigma": 1.0}), ControlPath(tg, np.cos(4.0 * s), 0.3 - s))
    cost = CostSpec(gamma=1.0, theta=Potential.tracking([[0.1, -1.0], [0.8, 2.0]]), phi=Potential("quadratic"))
    blocks = []
    integral = adjoint_module._BackStepper._theta_line_integral

    def tracked(self, t0, *args):
        terms = integral(self, t0, *args)
        if np.ndim(t0):
            blocks.append(weakref.ref(terms))
        return terms

    def alive():
        return [ref for ref in blocks if ref() is not None]

    monkeypatch.setattr(adjoint_module._BackStepper, "_theta_line_integral", tracked)
    traj = solve_adjoint(cost, drift, tg, g)
    assert len(blocks) > 1 and not alive()


def test_feet_are_traced_once_per_solve(monkeypatch):
    # a contracting drift keeps every foot inside the span, so the only
    # drift evaluations are the four RK4 stages of each step's feet, traced
    # in blocks of steps: 4 nt N points in all, each call on a full grid
    # or more
    g, tg = setup(n=64, nt=32)
    drift = DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [0.1], [-0.5]))
    cost = CostSpec(gamma=1.0, theta=Potential("quadratic"), phi=Potential("quadratic"))
    calls = []

    def eval_drift_counted(spec, t, points):
        calls.append(points.shape[0])
        return eval_drift(spec, t, points)

    monkeypatch.setattr(adjoint_module, "eval_drift", eval_drift_counted)
    solve_adjoint(cost, drift, tg, g)
    assert min(calls) >= g.num_cells
    assert sum(calls) == 4 * tg.nt * g.num_cells


def test_offgrid_sweep_leaving_safety_hull_raises():
    # x' = 10 x: a foot off the right edge grows by e^10 before T, far past
    # the hull of 50 times the box
    g, tg = setup(n=64, nt=64)
    drift = DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [0.0], [10.0]))
    cost = CostSpec(gamma=1.0, theta=Potential("quadratic"), phi=Potential("quadratic"))
    with pytest.raises(CharacteristicEscape, match="safety hull"):
        solve_adjoint(cost, drift, tg, g)


def test_adjoint_keeps_every_node_and_drops_its_feet(monkeypatch):
    # the solve stores nodes 0..nt, and its stepper, with the feet of every
    # step, is freed when it returns
    g, tg = setup(n=64, nt=64)
    drift = DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [0.4], [0.1]))
    cost = CostSpec(gamma=1.0, theta=Potential("gaussian-well"), phi=Potential("gaussian-well"))
    made = []

    class Tracked(adjoint_module._BackStepper):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((weakref.ref(self), weakref.ref(self.feet)))

    monkeypatch.setattr(adjoint_module, "_BackStepper", Tracked)
    traj = solve_adjoint(cost, drift, tg, g)
    assert len(made) == 1 and all(ref() is None for ref in made[0])
    assert traj.snapshot_steps == list(range(tg.nt + 1)) and traj.nodes.shape == (tg.nt + 1, *g.shape)


def test_2d_confining_certificate():
    g = make_grid(2, (-6, -6), (6, 6), (32, 32))
    tg = make_timegrid(0.5, 32)
    cost = CostSpec(gamma=1.0, theta=Potential("quadratic"), phi=Potential("quadratic"))
    drift = DriftSpec(
        DriftPreset("rotation", {"omega": 1.0}), ControlPath.constant(tg, (0.1, -0.1), (0.05, 0.05))
    )
    traj = solve_adjoint(cost, drift, tg, g)
    cert = adjoint_energy_certificate(traj, drift, cost, C_cert=2.0)
    assert cert.k == -confining_weight_index(2) == -4
    assert cert.passed


@pytest.mark.parametrize("dim", [1, 2])
def test_l2_history_is_the_per_node_sum_of_squares(dim):
    # the L2 norm read from the checkpoints has the bits of each node's own
    # sum of squares
    if dim == 1:
        g, tg = setup(n=64, nt=32)
        drift = DriftSpec(DriftPreset("zero"), ControlPath.constant(tg, [0.4], [0.1]))
        cost = CostSpec(gamma=1.0, theta=Potential("gaussian-well"), phi=Potential("gaussian-well"))
    else:
        g, tg = make_grid(2, (-6, -6), (6, 6), (24, 24)), make_timegrid(0.5, 20)
        drift = DriftSpec(DriftPreset("rotation", {"omega": 1.0}), ControlPath.constant(tg, [0.1, -0.2], [0.0, 0.1]))
        cost = CostSpec(gamma=1.0, theta=Potential("quadratic"), phi=Potential("quadratic"))
    traj = solve_adjoint(cost, drift, tg, g)
    l2, vol = traj.norm_history(0, 0), g.cell_volume
    for n, q in enumerate(traj.nodes):
        assert bits_equal(l2[n], math.sqrt(float((q * q).sum() * vol)))
