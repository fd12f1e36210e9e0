import dataclasses

import numpy as np
import pytest

from liouville_control import (
    BoxBounds,
    ControlPath,
    CostSpec,
    DriftPreset,
    DriftSpec,
    Potential,
    SchemaError,
    control_cost_terms,
    eval_drift,
    make_grid,
    make_timegrid,
    potential_eval,
    project_box,
)
from liouville_control.controls import drift_div_bound, drift_grad_bound
from liouville_control.grid import density_preset_eval


def tg(nt=8, T=1.0):
    return make_timegrid(T, nt)


def test_eval_drift_arithmetic():
    t = tg()
    ctrl = ControlPath.constant(t, [1.0], [2.0])
    spec = DriftSpec(DriftPreset("zero"), ctrl)
    assert eval_drift(spec, 0.3, np.array([[3.0]]))[0, 0] == pytest.approx(7.0, abs=1e-14)


def test_eval_drift_zero_control():
    t = tg()
    spec = DriftSpec(DriftPreset("zero"), ControlPath.zeros(t, 1))
    pts = np.linspace(-5, 5, 11)[:, None]
    assert np.all(eval_drift(spec, 0.5, pts) == 0.0)


def test_eval_drift_hadamard_2d():
    t = tg()
    ctrl = ControlPath.constant(t, [0.0, 0.0], [3.0, 4.0])
    spec = DriftSpec(DriftPreset("zero"), ctrl)
    out = eval_drift(spec, 0.0, np.array([[1.0, 2.0]]))
    assert out[0] == pytest.approx([3.0, 8.0], abs=1e-14)


DRIFT_CASES = [
    ("zero", {}, 1),
    ("zero", {}, 2),
    ("constant", {"b": 0.4}, 1),
    ("constant", {"b": [0.4, -0.2]}, 2),
    ("affine", {"A": [[0.3]], "b": [0.1]}, 1),
    ("affine", {"A": [[0.3, -0.5], [0.2, 0.4]], "b": [0.0, 1.0]}, 2),
    ("rotation", {"omega": 0.7}, 2),
    ("gaussian-bump", {"c": 0.5, "sigma": 1.2}, 1),
    ("gaussian-bump", {"c": [0.5, -0.3], "sigma": 1.2}, 2),
]


@pytest.mark.parametrize("name, params, d", DRIFT_CASES, ids=[f"{n}-{d}d" for n, _, d in DRIFT_CASES])
def test_eval_drift_jacobian_by_differences(name, params, d):
    a0 = DriftPreset(name, params)
    u2 = np.array([0.5, -0.3][:d])
    spec = DriftSpec(a0, ControlPath.constant(tg(), [0.1, -0.2][:d], u2))
    x = np.array([0.7, -1.3][:d])
    h = 1e-6
    jac = np.zeros((d, d))
    for s in range(d):
        e = np.zeros(d)
        e[s] = h
        jac[:, s] = (eval_drift(spec, 0.2, (x + e)[None]) - eval_drift(spec, 0.2, (x - e)[None]))[0] / (2 * h)
    expected = a0.jacobian(x[None])[0] + np.diag(u2)
    assert np.abs(jac - expected).max() < 1e-8
    if name == "affine":
        assert np.array_equal(a0.jacobian(x[None])[0], np.asarray(params["A"]))
    # the order-1 sup is the largest Jacobian entry over the cell centres
    g = make_grid(d, -4.0, 4.0, 16)
    sup = np.abs(a0.jacobian(g.cell_centers())).max()
    assert a0.derivative_sup(g, 1) == pytest.approx(sup, rel=1e-12, abs=0.0)



@pytest.mark.parametrize("params, d", [({"c": 0.5, "sigma": 1.2}, 1), ({"c": [0.5, -0.3], "sigma": 1.2}, 2)])
def test_bump_derivative_sup_bounds_the_higher_derivatives(params, d):
    # central differences of the analytic Jacobian at the cell centres give
    # every entry of the order-2 and order-3 derivative tensors; the sup
    # bounds the largest of them without being vacuous
    a0 = DriftPreset("gaussian-bump", params)
    g = make_grid(d, -4.0, 4.0, 16)
    x = g.cell_centers()
    h = 1e-4
    e = np.eye(d) * h

    def jac(pts):
        return a0.jacobian(pts)

    order2 = max(np.abs(jac(x + e[s]) - jac(x - e[s])).max() / (2 * h) for s in range(d))
    order3 = max(
        np.abs(jac(x + e[s] + e[r]) - jac(x + e[s] - e[r]) - jac(x - e[s] + e[r]) + jac(x - e[s] - e[r])).max()
        / (4 * h * h)
        for s in range(d) for r in range(d)
    )
    for order, fd in ((2, order2), (3, order3)):
        assert fd <= a0.derivative_sup(g, order) <= 3.0 * fd


def test_control_nodes_are_one_read_only_array():
    timegrid = tg(nt=6)
    rng = np.random.default_rng(8)
    u1, u2 = rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
    ctrl = ControlPath(timegrid, u1, u2)
    assert ctrl.stacked() is ctrl.nodes
    assert ctrl.nodes.shape == (7, 4)
    assert np.array_equal(ctrl.nodes, np.hstack([u1, u2]))
    assert np.shares_memory(ctrl.u1, ctrl.nodes) and np.shares_memory(ctrl.u2, ctrl.nodes)
    assert np.array_equal(ctrl.u1, u1) and np.array_equal(ctrl.u2, u2)
    for view in (ctrl.nodes, ctrl.u1, ctrl.u2):
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 1.0
    # the caller's arrays are copied, not aliased
    u1[0, 0] = 99.0
    assert ctrl.u1[0, 0] != 99.0


def test_control_linear_interpolation_between_nodes():
    t = make_timegrid(1.0, 4)
    u1 = np.array([[0.0], [1.0], [0.0], [1.0], [0.0]])
    ctrl = ControlPath(t, u1, np.zeros_like(u1))
    v1, _ = ctrl.value_at(0.125)
    assert v1[0] == pytest.approx(0.5, abs=1e-14)


def bits_equal(a, b):
    """Equal shapes and equal bit patterns (so -0.0 differs from 0.0)."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def scalar_value_at(control, t):
    """The lookup one time at a time in Python floats, for comparison."""
    dt, nt = control.timegrid.dt, control.timegrid.nt
    s = min(max(t / dt, 0.0), float(nt))
    i = min(int(s), nt - 1)
    w = s - i
    return (
        (1.0 - w) * control.u1[i] + w * control.u1[i + 1],
        (1.0 - w) * control.u2[i] + w * control.u2[i + 1],
    )


@pytest.mark.parametrize("d", [1, 2])
def test_value_at_on_arrays_of_times_matches_the_scalar_lookup(d):
    timegrid = tg(nt=12, T=1.3)
    dt = timegrid.dt
    rng = np.random.default_rng(5)
    u1, u2 = rng.normal(size=(13, d)), rng.normal(size=(13, d))
    # nodes of both signed zeros, alone and next to each other
    u1[3], u1[4], u2[4], u2[9] = 0.0, -0.0, -0.0, 0.0
    ctrl = ControlPath(timegrid, u1, u2)
    times = [n * dt for n in range(13)] + [(n + 0.5) * dt for n in range(12)]
    for n in range(12):  # the forward solve's stage times
        for substeps in (1, 3, 7):
            h = dt / substeps
            for j in range(substeps):
                times += [n * dt + j * h, (n * dt + j * h) + h]
    times += [-0.4, -1e-300, timegrid.T, timegrid.T * (1.0 + 1e-15), 7.0]
    u1, u2 = ctrl.value_at(np.array(times))
    assert u1.shape == u2.shape == (len(times), d)
    for k, t in enumerate(times):
        r1, r2 = scalar_value_at(ctrl, t)
        assert bits_equal(u1[k], r1) and bits_equal(u2[k], r2)
        s1, s2 = ctrl.value_at(t)
        assert bits_equal(s1, r1) and bits_equal(s2, r2)
    grid_of_times = np.array(times[:24]).reshape(6, 4)
    g1, g2 = ctrl.value_at(grid_of_times)
    assert bits_equal(g1, u1[:24].reshape(6, 4, d)) and bits_equal(g2, u2[:24].reshape(6, 4, d))


@pytest.mark.parametrize("name, params, d", DRIFT_CASES, ids=[f"{n}-{d}d" for n, _, d in DRIFT_CASES])
def test_eval_drift_takes_one_time_per_block_of_rows(name, params, d):
    timegrid = tg(nt=10)
    s = np.linspace(0.0, 1.0, 11)[:, None]
    ctrl = ControlPath(timegrid, np.sin(3.0 * s + np.arange(d)), 0.5 - s * np.arange(1, d + 1))
    spec = DriftSpec(DriftPreset(name, params), ctrl)
    pts = np.random.default_rng(2).normal(size=(9, d)) * 2.0
    times = np.array([0.0, 0.37, 0.05, 1.0])
    got = eval_drift(spec, times, np.tile(pts, (times.size, 1)))
    for b, t in enumerate(times):
        assert bits_equal(got[9 * b:9 * (b + 1)], eval_drift(spec, float(t), pts))
    if d == 1:  # flat points are d = 1 points
        flat = eval_drift(spec, times, np.tile(pts[:, 0], times.size))
        assert bits_equal(flat, got[:, 0])
        # and at one time, with the control rows looked up here or not
        for control in (None, spec.control.value_at(0.37)):
            one = eval_drift(spec, 0.37, pts[:, 0], control)
            assert one.shape == (9,) and bits_equal(one, eval_drift(spec, 0.37, pts, control)[:, 0])


# coordinates with both signed zeros, ordinary values, and values whose
# squares are huge or overflow (the tests that take them let numpy's
# overflow warning pass)
EDGE_COORDS = np.array([0.0, -0.0, 1.5, -2.25, 1e150, -3e200, 7e-160])
overflowing = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


def edge_points(d, n=9):
    """Every edge coordinate in 1D, every pair of them in 2D, then n random
    points; shape (len(EDGE_COORDS)**d + n, d)."""
    grid = np.stack(np.meshgrid(*[EDGE_COORDS] * d, indexing="ij"), axis=-1).reshape(-1, d)
    return np.vstack([grid, np.random.default_rng(4).normal(size=(n, d)) * 3.0])


def broadcast_drift(spec, t, pts, control=None):
    """eval_drift as one broadcast expression over (B, M, d), the reference
    whose bits the per-coordinate kernel must give."""
    d = pts.shape[-1]
    u1, u2 = (np.reshape(u, (-1, 1, d)) for u in (spec.control.value_at(t) if control is None else control))
    x = pts.reshape(u1.shape[0], -1, d)
    return ((spec.a0.eval(pts).reshape(x.shape) + u1) + x * u2).reshape(pts.shape)


@overflowing
@pytest.mark.parametrize("name, params, d", DRIFT_CASES, ids=[f"{n}-{d}d" for n, _, d in DRIFT_CASES])
def test_eval_drift_keeps_the_bits_of_the_broadcast_expression(name, params, d):
    timegrid = tg(nt=4)
    # nodes with signed zeros, so that the order of the additions shows
    u1 = np.array([[0.0, -0.0], [-0.0, -0.0], [0.3, 0.0], [-0.0, 1e200], [0.25, -1.5]])[:, :d]
    u2 = np.array([[-0.0, 0.0], [-0.0, -0.0], [0.5, -0.0], [2.0, -1e-300], [0.0, 0.75]])[:, :d]
    spec = DriftSpec(DriftPreset(name, params), ControlPath(timegrid, u1, u2))
    pts = edge_points(d)
    frozen = pts.copy()
    for t in (0.0, 0.25, 0.4, 1.0):
        assert bits_equal(eval_drift(spec, t, pts), broadcast_drift(spec, t, pts))
        control = spec.control.value_at(t)
        assert bits_equal(eval_drift(spec, t, pts, control), broadcast_drift(spec, t, pts, control))
    times = np.array([0.0, 0.25, 0.4, 1.0])
    block = np.tile(pts, (times.size, 1))
    control = spec.control.value_at(times)
    assert bits_equal(eval_drift(spec, times, block), broadcast_drift(spec, times, block))
    assert bits_equal(eval_drift(spec, times, block, control), broadcast_drift(spec, times, block, control))
    # the points and the control rows are read, never written
    assert bits_equal(pts, frozen) and all(map(bits_equal, control, spec.control.value_at(times)))


@overflowing
@pytest.mark.parametrize("name, params", [(n, p) for n, p, d in DRIFT_CASES if d == 2])
def test_drift_preset_eval_returns_a_new_array(name, params):
    a0 = DriftPreset(name, params)
    pts = edge_points(2)
    first = a0.eval(pts)
    assert first.flags.writeable and not np.shares_memory(first, pts)
    assert not any(np.shares_memory(first, c) for c in a0.coefficients(2) if isinstance(c, np.ndarray))
    kept = first.copy()
    first[...] = np.nan
    assert bits_equal(a0.eval(pts), kept)


@overflowing
def test_bump_keeps_the_bits_of_the_summed_squares():
    c, sig = np.array([0.5, -0.3]), 1.2
    for d in (1, 2):
        pts = edge_points(d)
        g = np.exp(-(pts**2).sum(axis=-1) / (2.0 * sig * sig))
        a0 = DriftPreset("gaussian-bump", {"c": list(c[:d]), "sigma": sig})
        assert bits_equal(a0.eval(pts), g[..., None] * c[:d])
        jac = -c[:d, None] * pts[..., None, :] / sig**2 * g[..., None, None]
        assert bits_equal(a0.jacobian(pts), jac)


def test_project_box():
    t = tg()
    ctrl = ControlPath.constant(t, [5.0], [0.2])
    b = BoxBounds.symmetric(1.0, 1)
    proj = project_box(ctrl, b)
    assert np.all(proj.u1 == 1.0)
    assert np.all(proj.u2 == 0.2)
    again = project_box(proj, b)
    assert np.array_equal(again.stacked(), proj.stacked())


def test_project_box_is_euclidean_projection():
    rng = np.random.default_rng(5)
    t = tg()
    b = BoxBounds((-1.0, -0.5), (1.0, 0.75))
    for _ in range(25):
        v = ControlPath(t, rng.normal(size=(9, 1)) * 3, rng.normal(size=(9, 1)) * 3)
        p = project_box(v, b)
        w = ControlPath(
            t,
            rng.uniform(-1.0, 1.0, size=(9, 1)),
            rng.uniform(-0.5, 0.75, size=(9, 1)),
        )
        dp = np.linalg.norm(v.stacked() - p.stacked())
        dw = np.linalg.norm(v.stacked() - w.stacked())
        assert dp <= dw + 1e-12


def test_cost_terms_constant_path():
    t = make_timegrid(2.0, 16)
    ctrl = ControlPath.constant(t, [0.5], [0.0])
    l2sq, l1, h1sq = control_cost_terms(ctrl)
    assert l2sq == pytest.approx(0.25 * 2.0, abs=1e-14)
    assert l1 == pytest.approx(0.5 * 2.0, abs=1e-14)
    assert h1sq == 0.0


def test_cost_terms_unit_slope():
    t = make_timegrid(1.0, 32)
    nodes = t.nodes()
    ctrl = ControlPath(t, nodes[:, None], np.zeros((33, 1)))
    l2sq, l1, h1sq = control_cost_terms(ctrl)
    assert h1sq == pytest.approx(1.0, abs=1e-12)
    assert l1 == pytest.approx(0.5, abs=1e-12)  # exact per-segment integral of |t|


def test_cost_terms_zero():
    assert control_cost_terms(ControlPath.zeros(tg(), 1)) == (0.0, 0.0, 0.0)


def test_cost_terms_sign_change_exact():
    t = make_timegrid(1.0, 2)
    ctrl = ControlPath(t, np.array([[-0.75], [0.25], [1.25]]), np.zeros((3, 1)))
    _, l1, _ = control_cost_terms(ctrl)
    # segment 1 crosses zero: (a^2 + b^2) / (2 (|a| + |b|)) dt, segment 2 is one-signed
    assert l1 == pytest.approx(0.15625 + 0.375, abs=1e-14)


def test_cost_terms_scaling():
    rng = np.random.default_rng(2)
    t = make_timegrid(1.0, 12)
    ctrl = ControlPath(t, rng.normal(size=(13, 1)), rng.normal(size=(13, 1)))
    base = control_cost_terms(ctrl)
    alpha = -1.7
    scaled = control_cost_terms(ControlPath(t, alpha * ctrl.u1, alpha * ctrl.u2))
    assert scaled[0] == pytest.approx(alpha**2 * base[0], rel=1e-12)
    assert scaled[1] == pytest.approx(abs(alpha) * base[1], rel=1e-12)
    assert scaled[2] == pytest.approx(alpha**2 * base[2], rel=1e-12)


def test_cost_terms_component_l1():
    t = make_timegrid(1.0, 16)
    ctrl = ControlPath.constant(t, [0.3], [0.4])
    _, l1c, _ = control_cost_terms(ctrl)
    assert l1c == pytest.approx(0.7, abs=1e-13)


def test_cost_total_adds_the_control_terms_in_order():
    rng = np.random.default_rng(5)
    t = make_timegrid(1.0, 12)
    ctrl = ControlPath(t, rng.normal(size=(13, 2)), rng.normal(size=(13, 2)))
    cost = CostSpec(gamma=0.3, delta=0.07, nu=0.011)
    l2sq, l1, h1sq = control_cost_terms(ctrl)
    for state in (0.0, 1.234567, -3.5e-3):
        expected = ((state + 0.5 * 0.3 * l2sq) + 0.07 * l1) + 0.5 * 0.011 * h1sq
        assert bits_equal(cost.total(state, ctrl), expected)


def test_costspec_validates_weights():
    with pytest.raises(SchemaError):
        CostSpec(gamma=0.0)
    with pytest.raises(SchemaError):
        CostSpec(gamma=1.0, delta=-0.1)
    CostSpec(gamma=1.0, delta=0.0, nu=0.0)


def test_potential_eval_presets():
    assert potential_eval(Potential("gaussian-well"), np.array(0.0)) == pytest.approx(0.0)
    assert potential_eval(Potential("quadratic"), np.array(2.0)) == pytest.approx(4.0)
    track = Potential.tracking([[0.0, 0.0], [2.0, 2.0]])
    assert potential_eval(track, np.array(1.0), t=1.0) == pytest.approx(0.0, abs=1e-14)
    track2d = Potential.tracking([[0.0, [0.0, 0.0]], [1.0, [1.0, 0.0]]])
    assert potential_eval(track2d, np.array([[1.0, 1.0]]), t=1.0)[0] == pytest.approx(1.0)


def test_potential_eval_rejects_a_flat_points_array():
    # (0.5, 3.0) is one 2D point, not two 1D points against the target's x
    track2d = Potential.tracking([[0.0, [0.0, 0.0]], [1.0, [1.0, 0.0]]])
    assert potential_eval(track2d, np.array([[0.5, 3.0]]), 1.0)[0] == pytest.approx(9.25)
    for pot in (track2d, Potential("quadratic")):
        with pytest.raises(ValueError, match=r"\(\.\.\., d\)"):
            potential_eval(pot, np.array([0.5, 3.0]), 1.0)


@pytest.mark.parametrize("track, points", [
    ([[0.0, [0.5, 3.0]], [1.0, [0.5, 3.0]]], [[0.0]]),
    ([[0.0, [0.5, 3.0]], [1.0, [0.5, 3.0]]], 0.0),
    ([[0.0, 0.5], [1.0, 0.5]], [[0.0, 0.0]]),
], ids=["2d-track-1d-points", "2d-track-scalar", "1d-track-2d-points"])
def test_potential_eval_rejects_a_track_of_another_dimension(track, points):
    # the track's points and the evaluation points must have the same d:
    # no coordinate of either is dropped or broadcast
    with pytest.raises(ValueError, match=r"\(\.\.\., d\) with the track's d = " + str(len(np.ravel(track[0][1])))):
        potential_eval(Potential.tracking(track), np.array(points), 1.0)


@pytest.mark.parametrize("times", [(), (0.5,), (0.0, 0.0), (0.0, 1.0, 0.5)])
def test_tracking_potential_needs_a_track(times):
    points = tuple((0.0,) for _ in times)
    with pytest.raises(SchemaError, match="track_path needs at least two strictly increasing times"):
        Potential("tracking", track_t=times, track_x=points)
    with pytest.raises(SchemaError, match="track_path needs at least two strictly increasing times"):
        Potential.tracking([[t, 0.0] for t in times])
    # a potential that does not depend on time needs no track
    Potential("quadratic", track_t=times, track_x=points)


@pytest.mark.parametrize("points", [(), ((0.0,),), ((0.0,), (1.0,), (2.0,))])
def test_tracking_potential_needs_a_point_per_time(points):
    with pytest.raises(SchemaError, match="each with a point"):
        Potential("tracking", track_t=(0.0, 1.0), track_x=points)


def test_potential_rows_give_the_flags():
    flags = {
        "zero": (True, False, False),
        "gaussian-well": (False, False, False),
        "quadratic": (False, False, True),
        "tracking": (False, True, True),
    }
    track = Potential.tracking([[0.0, 0.5], [1.0, -0.5]])
    for name, expected in flags.items():
        pot = track if name == "tracking" else Potential(name)
        assert (pot.is_zero, pot.time_dependent, pot.confining) == expected
    assert not CostSpec(theta=Potential("gaussian-well")).confining
    assert CostSpec(theta=Potential("gaussian-well"), phi=Potential("quadratic")).confining
    assert CostSpec(theta=track).confining


@pytest.mark.parametrize("name", ["zero", "gaussian-well", "quadratic", "tracking"])
def test_gaussian_closure_matches_quadrature_of_the_potential(name):
    # E[pot(X)] for X ~ N(m, S) by tensor Gauss-Hermite quadrature of
    # potential_eval, 80 points per axis, and its m and S derivatives by
    # central differences of that quadrature: in 1D, and in 2D with full
    # covariances and a 2D track.  S is perturbed symmetrically, in S_kl and
    # S_lk at once, which reads dE/dS_kl + dE/dS_lk
    tracks = {1: [[0.0, 0.5], [1.0, -0.5]], 2: [[0.0, [0.5, -0.2]], [1.0, [-0.5, 0.8]]]}
    cases = {
        1: [([0.0], [[1.0]], 0.0), ([0.7], [[0.3]], 0.25), ([-1.2], [[2.5]], 0.8)],
        2: [([0.3, -0.4], [[0.6, 0.25], [0.25, 0.9]], 0.3), ([-1.0, 0.7], [[1.5, -0.6], [-0.6, 0.5]], 0.8)],
    }
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    weights = weights / weights.sum()
    h = 1e-5
    for d, points in cases.items():
        pot = Potential.tracking(tracks[d]) if name == "tracking" else Potential(name)
        z = np.stack(np.meshgrid(*[nodes] * d, indexing="ij"), axis=-1).reshape(-1, d)
        wz = np.prod(np.meshgrid(*[weights] * d, indexing="ij"), axis=0).ravel()

        def expectation(m, S, t):
            return float((wz * potential_eval(pot, m + z @ np.linalg.cholesky(S).T, t)).sum())

        for m, S, t in points:
            m, S = np.array(m), np.array(S)
            e, de_dm, de_dS = pot.gaussian_moments(m, S, t)
            assert e == pytest.approx(expectation(m, S, t), rel=1e-12, abs=1e-13)
            for k in range(d):
                dm = h * np.eye(d)[k]
                assert de_dm[k] == pytest.approx((expectation(m + dm, S, t) - expectation(m - dm, S, t)) / (2 * h), abs=1e-8)
                for l in range(k, d):
                    dS = h * (np.outer(np.eye(d)[k], np.eye(d)[l]) + np.outer(np.eye(d)[l], np.eye(d)[k])) / (1 + (k == l))
                    fd = (expectation(m, S + dS, t) - expectation(m, S - dS, t)) / (2 * h)
                    assert (de_dS[k, l] + de_dS[l, k]) / (1 + (k == l)) == pytest.approx(fd, abs=1e-8)


def test_tracking_path_clamps_outside_horizon():
    track = Potential.tracking([[0.0, 1.0], [1.0, 3.0]])
    assert track.target_at(-0.5)[0] == 1.0
    assert track.target_at(0.5)[0] == 2.0
    assert track.target_at(2.0)[0] == 3.0


def tuple_target_at(pot, t):
    """target_at converting the stored tuples on every call."""
    ts = np.asarray(pot.track_t)
    xs = np.asarray(pot.track_x)
    tt = min(max(t, ts[0]), ts[-1])
    i = int(np.searchsorted(ts, tt, side="right") - 1)
    i = min(max(i, 0), len(ts) - 2)
    w = (tt - ts[i]) / (ts[i + 1] - ts[i])
    return (1.0 - w) * xs[i] + w * xs[i + 1]


@pytest.mark.parametrize("path", [
    [[0.0, 1.0], [0.3, -0.7], [0.55, 2.5], [1.0, -0.0]],
    [[0.1, [0.0, -1.0]], [0.4, [1.0 / 3.0, 2.0]], [0.9, [-2.5, 0.25]]],
], ids=["1d", "2d"])
def test_target_at_matches_the_tuple_version(path):
    pot = Potential.tracking(path)
    ts = pot.track_t
    between = [a + f * (b - a) for a, b in zip(ts, ts[1:]) for f in (1e-9, 0.3, 0.5, 0.999)]
    beyond = [-1.0, ts[0] - 1e-300, np.nextafter(ts[-1], 2.0), ts[-1] + 3.0]
    for t in [*ts, *between, *beyond]:
        assert bits_equal(pot.target_at(t), tuple_target_at(pot, t))
    same = Potential.tracking(path)
    assert same == pot and hash(same) == hash(pot) and "_track" not in repr(pot)
    assert dataclasses.replace(pot) == pot
    assert pot != Potential.tracking([[t, 0.0] for t, _ in path])


POTENTIAL_CASES = [
    (Potential("zero"), 1),
    (Potential("gaussian-well"), 1),
    (Potential("quadratic"), 1),
    (Potential.tracking([[0.1, 1.0], [0.3, -0.7], [0.55, 2.5], [0.9, -0.0]]), 1),
    (Potential("zero"), 2),
    (Potential("gaussian-well"), 2),
    (Potential("quadratic"), 2),
    (Potential.tracking([[0.1, [0.0, -1.0]], [0.4, [1.0 / 3.0, 2.0]], [0.9, [-2.5, 0.25]]]), 2),
]


@pytest.mark.parametrize("pot, dim", POTENTIAL_CASES, ids=[f"{p.name}-{d}d" for p, d in POTENTIAL_CASES])
def test_potential_at_an_array_of_times_matches_scalar_calls(pot, dim):
    # time nodes, their midpoints, the track's nodes, and times before and
    # after the track's ends (0.1 and 0.9 for the tracking presets)
    dt = 1.0 / 16
    nodes = np.arange(17) * dt
    times = np.concatenate([nodes, nodes[:-1] + 0.5 * dt, pot.track_t, [-1.0, 0.05, 0.95, 3.0]])
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3.0, 3.0, size=(11, dim))
    # one set of points shared by every time; a preset that does not
    # depend on time gives one row, which broadcasts over the times
    shared = np.broadcast_to(potential_eval(pot, pts, times), (times.size, 11))
    for b, t in enumerate(times):
        assert bits_equal(shared[b], potential_eval(pot, pts, float(t)))
    # each row of points at its own time
    pts_rows = rng.uniform(-3.0, 3.0, size=(times.size, 11, dim))
    per_time = potential_eval(pot, pts_rows, times)
    assert per_time.shape == (times.size, 11)
    for b, t in enumerate(times):
        assert bits_equal(per_time[b], potential_eval(pot, pts_rows[b], float(t)))
    if pot.name == "tracking":
        targets = pot.target_at(times)
        assert targets.shape == (times.size, dim)
        for b, t in enumerate(times):
            assert bits_equal(targets[b], pot.target_at(float(t)))
            assert bits_equal(targets[b], tuple_target_at(pot, float(t)))


def summed_squares_potential(pot, x, t):
    """A potential row with |v|^2 as ``(v**2).sum(axis=-1)``, the reference
    whose bits the per-coordinate kernel must give."""
    if pot.name == "tracking":
        return ((x - pot.target_at(t)[..., None, :]) ** 2).sum(axis=-1)
    sq = (x**2).sum(axis=-1)
    return {"zero": np.zeros(x.shape[:-1]), "gaussian-well": 1.0 - np.exp(-sq), "quadratic": sq}[pot.name]


@overflowing
@pytest.mark.parametrize("pot, dim", POTENTIAL_CASES, ids=[f"{p.name}-{d}d" for p, d in POTENTIAL_CASES])
def test_potentials_keep_the_bits_of_the_summed_squares(pot, dim):
    pts = edge_points(dim)
    for t in (0.0, 0.3, 0.9, 2.0):
        assert bits_equal(potential_eval(pot, pts, t), summed_squares_potential(pot, pts, t))
    times = np.array([0.0, 0.3, 0.9, 2.0])
    rows = np.stack([pts, -pts, 2.0 * pts, pts[::-1]])
    assert bits_equal(potential_eval(pot, rows, times), summed_squares_potential(pot, rows, times))
    assert bits_equal(potential_eval(pot, pts, times), summed_squares_potential(pot, pts, times))


@overflowing
@pytest.mark.parametrize("x0, d", [(0.0, 1), (-0.0, 1), (1.25, 1), (0.0, 2), (-0.0, 2), (1.25, 2), ([1.0, -0.5], 2)])
def test_gaussian_density_keeps_the_bits_of_the_summed_squares(x0, d):
    pts = edge_points(d)
    v0 = 0.3
    got = density_preset_eval("gaussian", {"x0": x0, "v0": v0}, pts)
    centre = np.atleast_1d(np.asarray(x0, dtype=float))
    want = (2.0 * np.pi * v0) ** (-d / 2.0) * np.exp(-((pts - centre) ** 2).sum(axis=-1) / (2.0 * v0))
    assert bits_equal(got, want)


def test_drift_bounds():
    g = make_grid(1, -8, 8, 64)
    t = tg()
    ctrl = ControlPath.constant(t, [0.7], [0.2])
    spec = DriftSpec(DriftPreset("affine", {"A": [[0.3]], "b": [0.0]}), ctrl)
    at0 = np.array([0.0])
    assert drift_grad_bound(spec, at0, g, 0) == pytest.approx([0.5], abs=1e-12)
    assert drift_div_bound(spec, at0, g) == pytest.approx([0.5], abs=1e-12)
    bump = DriftSpec(DriftPreset("gaussian-bump", {"c": [1.0], "sigma": 1.0}), ControlPath.zeros(t, 1))
    # discrete sup of |d/dx exp(-x^2/2)| over cell centers, just below the
    # continuous maximum exp(-1/2) attained at x = 1
    (val,) = drift_grad_bound(bump, at0, g, 0)
    assert 0.95 * np.exp(-0.5) <= val <= np.exp(-0.5)


@pytest.mark.parametrize("name, params, d", DRIFT_CASES, ids=[f"{n}-{d}d" for n, _, d in DRIFT_CASES])
def test_drift_bound_tables_match_the_per_time_loop(name, params, d):
    # one control lookup and one Jacobian for every time give the bits of
    # the bounds computed one time at a time from the full Jacobian table
    timegrid = tg(nt=5)
    u2 = np.array([[0.0, -0.0], [-0.4, 0.3], [1.5, -0.0], [-0.0, -2.0], [0.25, 0.75], [-3.0, 0.5]])[:, :d]
    spec = DriftSpec(DriftPreset(name, params), ControlPath(timegrid, np.zeros_like(u2), u2))
    g = make_grid(d, -4.0, 4.0, 12)
    times = np.concatenate([np.arange(timegrid.nt) * timegrid.dt, [0.05, 0.93, 1.0]])
    jac = spec.a0.jacobian(g.cell_centers())
    for m in (0, 1, 2):
        want = []
        for t in times:
            w2 = spec.control.value_at(t)[1]
            total = float(np.abs(jac + np.diag(w2)).max())
            for order in range(2, m + 2):
                total += spec.a0.derivative_sup(g, order)
            want.append(total)
        assert bits_equal(drift_grad_bound(spec, times, g, m), want)
    want = [float(np.abs(np.trace(jac, axis1=-2, axis2=-1) + spec.control.value_at(t)[1].sum()).max()) for t in times]
    assert bits_equal(drift_div_bound(spec, times, g), want)
