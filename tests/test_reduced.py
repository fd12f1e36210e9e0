import dataclasses
import inspect
import json
import math
import re
import weakref

import numpy as np
import pytest

from liouville_control import (
    BoxBounds,
    ControlPath,
    CostSpec,
    DriftPreset,
    GridMismatch,
    InvalidGrid,
    NotApplicable,
    Potential,
    Problem,
    ScalarField,
    fd_directional_derivative,
    fit_order,
    frechet_probe,
    h1_riesz,
    kkt_residual,
    make_grid,
    make_timegrid,
    partial_derivative,
    optimize,
    path_dot,
    potential_eval,
    reduced_cost,
    reduced_gradient,
    sample_function,
    sample_potential,
    smallness_certificate,
    weighted_sobolev_norm,
)
import liouville_control.cli as cli_module
import liouville_control.forward as forward_module
import liouville_control.reduced as reduced_module
from liouville_control.cli import parse_config, run_command, scenario_path
from liouville_control.optimize import OptimConfig
from liouville_control.grid import _block_nodes
from liouville_control.reduced import assemble_integral_path, metric_dot
from test_controls import bits_equal
from test_forward import DIAGNOSTIC_CASES, DIAGNOSTIC_IDS, diagnostic_setup


def build_problem(n=128, nt=64, gamma=1.0, delta=0.0, nu=0.0, theta=None, phi=None,
                  x0=0.0, v0=1.0, scheme="upwind-fv", radius=2.0):
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


def test_reduced_cost_zero_everything():
    prob = build_problem()
    assert reduced_cost(ControlPath.zeros(prob.timegrid, 1), prob) == 0.0


def test_reduced_cost_frozen_state_terminal_term():
    prob = build_problem(phi=Potential("gaussian-well"))
    u = ControlPath.zeros(prob.timegrid, 1)
    phi = sample_potential(prob.grid, prob.cost.phi, prob.timegrid.T)
    expected = float((phi.values * prob.rho0.values).sum() * prob.grid.cell_volume)
    assert reduced_cost(u, prob) == pytest.approx(expected, rel=1e-13)


def test_reduced_cost_pure_control_terms():
    prob = build_problem(gamma=2.0, delta=0.3)
    c = 0.4
    u = ControlPath.constant(prob.timegrid, [c], [0.0])
    expected = 0.5 * 2.0 * c * c * 1.0 + 0.3 * c * 1.0
    assert reduced_cost(u, prob) == pytest.approx(expected, rel=1e-13)


def test_gradient_is_gamma_u_for_zero_potentials():
    prob = build_problem(gamma=1.7)
    rng = np.random.default_rng(0)
    u = ControlPath(prob.timegrid, 0.5 * rng.normal(size=(65, 1)), 0.5 * rng.normal(size=(65, 1)))
    grad = reduced_gradient(u, prob)
    assert np.abs(grad.stacked() - 1.7 * u.stacked()).max() < 1e-14
    assert grad.metric == "L2"


def test_gradient_symmetry_zero_for_even_data():
    prob = build_problem(phi=Potential("gaussian-well"), theta=Potential("gaussian-well"))
    u = ControlPath.zeros(prob.timegrid, 1)
    grad = reduced_gradient(u, prob)
    # u1 channel (the first of the d = 1 stacked columns) pairs an odd
    # integrand over a symmetric grid
    assert np.abs(grad.values[:, 0]).max() < 1e-10


def test_gradient_matches_fd_and_improves_with_resolution():
    theta = Potential.tracking([[0.0, 0.0], [0.5, 0.4], [1.0, 0.7]])

    def rel_err(n):
        prob = build_problem(n=n, nt=128, gamma=0.1, theta=theta,
                             phi=Potential("gaussian-well"), scheme="muscl-fv")
        tg = prob.timegrid
        u = ControlPath.constant(tg, [0.2], [0.1])
        t = tg.nodes()
        d = ControlPath(tg, np.sin(np.pi * t)[:, None], 0.5 * np.cos(2 * np.pi * t)[:, None])
        fd = fd_directional_derivative(prob, u, d, 1e-4)
        an = path_dot(tg, reduced_gradient(u, prob).stacked(), d.stacked())
        return abs(fd - an) / abs(fd)

    e128, e256 = rel_err(128), rel_err(256)
    assert e256 < 5e-2
    assert e256 < e128


def test_ibp_cross_check_small_and_shrinking():
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.5]])

    def disc(n):
        prob = build_problem(n=n, nt=64, gamma=0.2, theta=theta, phi=Potential("gaussian-well"))
        u = ControlPath.constant(prob.timegrid, [0.3], [0.1])
        return reduced_gradient(u, prob).ibp_discrepancy

    d128, d256 = disc(128), disc(256)
    assert d256 < 1e-3
    assert d256 < d128


def blocked_config(dim):
    """The run configuration of ``blocked_problem`` under constant controls
    and a tracking running cost."""
    if dim == 1:
        grid, time = {"dim": 1, "lo": [-8.0], "hi": [8.0], "n": [1000]}, {"T": 1.0, "nt": 40}
        a0, x0, path = {"preset": "zero"}, 0.3, [[0.0, 0.0], [1.0, 0.5]]
    else:
        grid, time = {"dim": 2, "lo": [-4.0, -4.0], "hi": [4.0, 4.0], "n": [40, 40]}, {"T": 0.5, "nt": 25}
        a0, x0 = {"preset": "rotation", "params": {"omega": 1.0}}, [0.5, -0.3]
        path = [[0.0, [0.0, 0.5]], [0.5, [0.4, -0.2]]]
    return {
        "grid": grid, "time": time, "a0": a0, "rho0": {"preset": "gaussian", "params": {"x0": x0, "v0": 0.4}},
        "control": {"u1": 0.3, "u2": -0.1}, "bounds": {"ua": -2.0, "ub": 2.0}, "solver": {"scheme": "muscl-fv"},
        "cost": {"gamma": 0.5, "theta": "tracking", "phi": "gaussian-well", "track_path": path},
    }


def cli_report(tmp_path, command, cfg):
    """The report that ``liouctl command`` writes for ``cfg``."""
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps(cfg))
    assert run_command([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
    return json.loads((tmp_path / command / "report.json").read_text())


def per_node_assembly(problem, traj_rho, traj_q):
    """The integral terms assembled one node and one field at a time, for
    comparison."""
    grid = problem.grid
    d = grid.dim
    mesh = grid.meshgrid()
    vol = grid.cell_volume
    out = np.zeros((problem.timegrid.nt + 1, 2 * d))
    disc = 0.0
    for n, (rho_vals, q_vals) in enumerate(zip(traj_rho.nodes, traj_q.nodes)):
        rho = ScalarField(grid, rho_vals)
        q = ScalarField(grid, q_vals)
        for r in range(d):
            drho = partial_derivative(rho, r)
            i1 = float((drho.values * q.values).sum() * vol)
            xr_rho = ScalarField(grid, mesh[r] * rho.values)
            dxr = partial_derivative(xr_rho, r)
            i2 = float((dxr.values * q.values).sum() * vol)
            dq = partial_derivative(q, r)
            i1_ibp = -float((rho.values * dq.values).sum() * vol)
            i2_ibp = -float((xr_rho.values * dq.values).sum() * vol)
            disc = max(disc, abs(i1 - i1_ibp), abs(i2 - i2_ibp))
            out[n, r] = i1
            out[n, d + r] = i2
    return out, disc


def blocked_problem(dim):
    """A problem whose nodes fill several blocks, the last one ragged."""
    if dim == 1:
        g, tg = make_grid(1, -8, 8, 1000), make_timegrid(1.0, 40)
        a0, x0, theta = DriftPreset("zero"), 0.3, Potential.tracking([[0.0, 0.0], [1.0, 0.5]])
    else:
        g, tg = make_grid(2, (-4, -4), (4, 4), (40, 40)), make_timegrid(0.5, 25)
        a0, x0, theta = DriftPreset("rotation", {"omega": 1.0}), [0.5, -0.3], Potential("quadratic")
    size = _block_nodes(g.num_cells)
    assert 1 < size < tg.nt + 1 and (tg.nt + 1) % size
    prob = Problem(
        grid=g, timegrid=tg, rho0=sample_function(g, "gaussian", {"x0": x0, "v0": 0.4}), a0=a0,
        cost=CostSpec(gamma=0.5, theta=theta, phi=Potential("gaussian-well")),
        bounds=BoxBounds.symmetric(2.0, dim), scheme="muscl-fv",
    )
    s = np.linspace(0.0, 1.0, tg.nt + 1)[:, None]
    u = ControlPath(tg, 0.3 * np.sin(3.0 * s + np.arange(dim)), 0.1 - 0.2 * s * np.arange(1, dim + 1))
    return prob, u


@pytest.mark.parametrize("dim", [1, 2])
def test_blocked_assembly_matches_the_per_node_loop(dim):
    prob, u = blocked_problem(dim)
    traj_rho, traj_q = prob.solve_forward_for(u), prob.solve_adjoint_for(u)
    out, disc = assemble_integral_path(prob, traj_rho, traj_q)
    ref, ref_disc = per_node_assembly(prob, traj_rho, traj_q)
    assert bits_equal(out, ref)
    assert bits_equal(disc, ref_disc) and disc > 0.0
    assert reduced_gradient(u, prob).ibp_discrepancy == ref_disc
    plain, no_disc = assemble_integral_path(prob, traj_rho, traj_q, cross_check=False)
    assert bits_equal(plain, ref) and no_disc is None
    # the optimizer's gradient skips the cross-check and keeps every bit, in
    # the L2 metric and, with nu > 0, in the H1 one
    h1_prob = dataclasses.replace(prob, cost=dataclasses.replace(prob.cost, nu=0.05))
    for p, metric in ((prob, "L2"), (h1_prob, "H1tilde")):
        full, descent = reduced_gradient(u, p), p.descent_gradient(u)
        assert full.metric == descent.metric == metric and full.ibp_discrepancy == ref_disc
        assert bits_equal(descent.values, full.values) and descent.ibp_discrepancy is None


def running_cost_over(problem, items):
    """The trapezoid rule of int theta rho dx over (n, rho) pairs, each node
    evaluated on its own."""
    grid, dt = problem.grid, problem.timegrid.dt
    times, vals = [], []
    for n, rho in items:
        th = sample_potential(grid, problem.cost.theta, n * dt).values
        times.append(n * dt)
        vals.append(float((th * rho).sum() * grid.cell_volume))
    return float(np.trapezoid(np.asarray(vals), x=np.asarray(times)))


def captured_running_costs(monkeypatch):
    """The per-node running costs that every ``reduced_cost`` call reduces
    from here on, one array per call."""
    seen, running_cost = [], reduced_module._running_cost

    def captured(traj, theta):
        seen.append(running_cost(traj, theta))
        return seen[-1]

    monkeypatch.setattr(reduced_module, "_running_cost", captured)
    return seen


@pytest.mark.parametrize("dim", [1, 2])
def test_cost_and_grad_report_the_cost_over_every_node(dim, tmp_path, monkeypatch):
    # ``cost`` and ``grad`` report the same cost
    costs = [cli_report(tmp_path, command, blocked_config(dim))["cost"] for command in ("cost", "grad")]
    assert bits_equal(costs[1], costs[0])
    # the running term is the trapezoid over every node of the per-node
    # integrals, so the cost keeps its bits
    cfg = parse_config(json.dumps(blocked_config(dim)))
    prob, u = cfg.problem(), cfg.control
    running = captured_running_costs(monkeypatch)
    assert bits_equal(reduced_cost(u, prob), costs[0])
    traj, tg = prob.solve_forward_for(u), prob.timegrid
    assert bits_equal(float(np.trapezoid(running[0], x=np.arange(tg.nt + 1) * tg.dt)),
                      running_cost_over(prob, enumerate(traj.nodes)))


@pytest.mark.parametrize("g, nt, theta", DIAGNOSTIC_CASES, ids=DIAGNOSTIC_IDS)
def test_running_cost_is_reduced_a_block_of_nodes_at_a_time(g, nt, theta, monkeypatch):
    # reduced_cost tabulates theta once per block of node times, and each
    # node's running cost has the bits of the node's own sum; a zero theta
    # tabulates nothing
    rho0, drift, tg = diagnostic_setup(g, nt)
    prob = Problem(grid=g, timegrid=tg, rho0=rho0, a0=drift.a0, cost=CostSpec(gamma=0.5, theta=theta),
                   bounds=BoxBounds.symmetric(2.0, g.dim), scheme="muscl-fv")
    u, blocks = drift.control, []

    def counted(pot, points, times):
        blocks.append(len(times))
        return potential_eval(pot, points, times)

    monkeypatch.setattr(reduced_module, "potential_eval", counted)
    running = captured_running_costs(monkeypatch)
    cost = reduced_cost(u, prob)
    size = _block_nodes(2 * g.num_cells)
    assert blocks == ([] if theta.is_zero else [len(range(lo, min(lo + size, nt + 1))) for lo in range(0, nt + 1, size)])
    vol, pts = g.cell_volume, g.cell_centers()
    want = [float((potential_eval(theta, pts, n * tg.dt).reshape(g.shape) * vals).sum() * vol)
            for n, vals in enumerate(prob.solve_forward_for(u).nodes)]
    if theta.is_zero:
        assert running == [] and bits_equal(cost, prob.cost.total(0.0, u))
    else:
        assert len(running) == 1 and bits_equal(running[0], want)
        assert bits_equal(cost, prob.cost.total(float(np.trapezoid(want, x=np.arange(nt + 1) * tg.dt)), u))


@pytest.mark.parametrize("dim", [1, 2])
def test_a_memo_hit_cost_has_the_bits_of_the_miss(dim, monkeypatch):
    # the second call reads the memoized state and reduces its running cost
    # again, to the same bits
    prob, u = blocked_problem(dim)
    solves, _ = counted_solves(monkeypatch)
    running = captured_running_costs(monkeypatch)
    miss = reduced_cost(u, prob)
    assert len(solves) == 1 and bits_equal(reduced_cost(u, prob), miss)
    assert len(solves) == 1 and len(running) == 2 and bits_equal(running[1], running[0])


@pytest.mark.parametrize("which", ["rho", "q"])
@pytest.mark.parametrize("node", [0, 17, 40])
def test_assembly_rejects_a_field_that_is_not_finite(which, node):
    prob, u = blocked_problem(1)
    traj_rho, traj_q = prob.solve_forward_for(u), prob.solve_adjoint_for(u)
    (traj_rho if which == "rho" else traj_q).nodes[node, 500] = np.nan
    with pytest.raises(InvalidGrid, match="finite"):
        assemble_integral_path(prob, traj_rho, traj_q)


def test_replaced_problem_does_not_reuse_the_forward_memo():
    # the memo is keyed on the control only, so a variant of the problem
    # must start its own
    prob = build_problem(nt=64)
    u = ControlPath.constant(prob.timegrid, [0.3], [0.1])
    assert prob.solve_forward_for(u).scheme == "upwind-fv"
    assert prob.solve_forward_for(u) is prob.solve_forward_for(u)
    muscl = dataclasses.replace(prob, scheme="muscl-fv")
    assert muscl.solve_forward_for(u).scheme == "muscl-fv"
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.scheme = "muscl-fv"


def test_a_problem_hands_its_settings_to_every_forward_solve():
    prob = dataclasses.replace(build_problem(), scheme="muscl-fv", cfl=0.5, max_substeps=64)
    assert prob.solver == {"scheme": "muscl-fv", "cfl": 0.5, "max_substeps": 64}
    assert list(inspect.signature(Problem.solve_forward_for).parameters) == ["self", "control"]
    traj = prob.solve_forward_for(ControlPath.constant(prob.timegrid, [0.3], [0.1]))
    assert (traj.scheme, traj.cfl) == ("muscl-fv", 0.5)


@pytest.mark.parametrize("setting", [{"cfl": 0.0}, {"cfl": float("nan")}, {"max_substeps": 0}, {"scheme": "weno"}])
def test_a_problem_with_bad_solver_settings_fails_when_built(setting):
    (key,) = setting
    with pytest.raises(ValueError, match=f"^{key} "):
        dataclasses.replace(build_problem(), **setting)


def test_frechet_probe_solves_with_the_problems_settings():
    # the probe on a variant problem has the bits of the same probe with
    # every solve given those settings by hand
    settings = dict(scheme="muscl-fv", cfl=0.5, max_substeps=64)
    prob = dataclasses.replace(build_problem(n=64, nt=32, theta=Potential("gaussian-well")), **settings)
    tg = prob.timegrid
    u, d = ControlPath.constant(tg, [0.2], [0.1]), ControlPath.constant(tg, [0.5], [-0.3])
    eps = [0.2, 0.1, 0.05]
    rep = frechet_probe(u, d, eps, prob)

    def drift(scale):
        return prob.drift_for(ControlPath.from_stacked(tg, u.stacked() + scale * d.stacked()))

    plan = forward_module.solve_forward(prob.rho0, drift(0.0), None, tg, **settings).substeps
    for end in (eps[0], -eps[0]):
        plan = [max(a, b) for a, b in zip(plan, forward_module.required_substeps(prob.grid, drift(end), tg, 0.5))]
    base, w = forward_module.solve_linearized(prob.rho0, drift(0.0), d, None, tg, fixed_substeps=plan, **settings)
    remainders = []
    for e in eps:
        traj = forward_module.solve_forward(prob.rho0, drift(e), None, tg, fixed_substeps=plan, **settings)
        diffs = [a - b - e * c for a, b, c in zip(traj.nodes, base.nodes, w.nodes)]
        remainders.append(max(math.sqrt(float((x * x).sum() * prob.grid.cell_volume)) for x in diffs))
    assert rep.remainders == tuple(remainders)
    assert rep.remainders != frechet_probe(u, d, eps, build_problem(n=64, nt=32)).remainders


def test_frechet_probe_takes_the_remainders_a_block_of_nodes_at_a_time(monkeypatch):
    # the 33 nodes fit one block (the test above pins that against a
    # node-by-node pass); blocks of 5 nodes, the last one ragged, give the
    # same bits
    prob = build_problem(n=64, nt=32, theta=Potential("gaussian-well"))
    tg = prob.timegrid
    u, d = ControlPath.constant(tg, [0.2], [0.1]), ControlPath.constant(tg, [0.5], [-0.3])
    eps = [0.2, 0.1, 0.05]
    assert _block_nodes(prob.grid.num_cells) > tg.nt
    whole = frechet_probe(u, d, eps, prob)
    monkeypatch.setattr(reduced_module, "_block_nodes", lambda points: 5)
    assert frechet_probe(u, d, eps, prob).remainders == whole.remainders


def counted_solves(monkeypatch):
    """The drift of every FV solve, and the control path of every substep
    plan pass, from here on."""
    solves, plans = [], []
    solve, plan = forward_module._solve, forward_module._Stepper.plan

    def counted_solve(rho0, drift, *args, **kwargs):
        solves.append(drift)
        return solve(rho0, drift, *args, **kwargs)

    def counted_plan(stepper, *args):
        plans.append(stepper.drift.control)
        return plan(stepper, *args)

    monkeypatch.setattr(forward_module, "_solve", counted_solve)
    monkeypatch.setattr(forward_module._Stepper, "plan", counted_plan)
    return solves, plans


def test_fd_derivative_is_two_costs_and_memo_hits_are_not_solved_again(monkeypatch):
    prob = build_problem(n=128, nt=32, theta=Potential.tracking([[0.0, 0.0], [1.0, 0.5]]),
                         phi=Potential("gaussian-well"), scheme="muscl-fv")
    tg = prob.timegrid
    u, d = ControlPath.constant(tg, [0.2], [0.1]), ControlPath.constant(tg, [0.5], [-0.3])
    up, dn = (ControlPath.from_stacked(tg, u.stacked() + s * 1e-4 * d.stacked()) for s in (1.0, -1.0))
    fresh = dataclasses.replace(prob)
    expected = (reduced_cost(up, fresh) - reduced_cost(dn, fresh)) / (2.0 * 1e-4)
    solves, _ = counted_solves(monkeypatch)
    # the central difference has the bits of the two separate costs
    assert bits_equal(fd_directional_derivative(prob, u, d, 1e-4), expected)
    assert [drift.control.stacked().tobytes() for drift in solves] == [c.stacked().tobytes() for c in (up, dn)]
    # the memo keeps the most recent control's state: a cost there is a hit
    assert bits_equal(reduced_cost(dn, prob), reduced_cost(dn, fresh)) and len(solves) == 2
    # and the one before it was dropped, so the pair is solved again
    assert bits_equal(fd_directional_derivative(prob, u, d, 1e-4), expected) and len(solves) == 4


def test_grad_check_makes_seven_solves_and_five_plan_passes(monkeypatch, tmp_path):
    # the tangent, the eps ladder one solve each, and the finite-difference
    # pair; the tangent solve's state is the centre's, which the gradient
    # reads from the memo.  A plan pass per natural plan: the centre's, the
    # ladder's ends and the pair's solves
    solves, plans = counted_solves(monkeypatch)
    args = ["grad-check", "--config", scenario_path("gaussian-tracking-1d"), "--out", str(tmp_path)]
    assert run_command(args) == 0
    assert len(solves) == 7 and all(isinstance(drift.control, ControlPath) for drift in solves)
    assert len(plans) == 5


def test_the_memo_holds_one_state_across_an_optimize_run(monkeypatch):
    # every solve starts with no state alive, the memo's dropped, and ends
    # with the memo holding the new one
    prob = build_problem(n=128, nt=32, theta=Potential.tracking([[0.0, 0.0], [1.0, 0.5]]), phi=Potential("quadratic"))
    refs, held = [], []
    solve = forward_module._solve

    def alive():
        return sum(ref() is not None for ref in refs)

    def watched_solve(*args, **kwargs):
        held.append((alive(), len(prob._fwd_cache)))
        traj = solve(*args, **kwargs)
        refs.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(forward_module, "_solve", watched_solve)
    res = optimize(prob, OptimConfig(max_iters=6, step0=2.0, vi_tol=1e-12))
    assert res.iterations == 6 and len(held) > 7
    assert held == [(0, 0)] * len(held)
    assert alive() == len(prob._fwd_cache) == 1


@pytest.mark.parametrize("scale, own_plan", [(1.0, True), (5.0, False)])
def test_grad_check_reports_the_same_bits_whether_or_not_the_probe_plan_is_the_centres(
    monkeypatch, tmp_path, scale, own_plan
):
    # a direction five times the default needs more substeps at the ladder's
    # ends than the centre, so the tangent solve's state is not the centre's
    # and the gradient solves the centre itself.  Either way the report has
    # the bits of its parts, each taken on a problem of its own
    cfg = {
        "grid": {"dim": 1, "lo": [-8.0], "hi": [8.0], "n": [128]},
        "time": {"T": 1.0, "nt": 8},
        "rho0": {"preset": "gaussian", "params": {"x0": 1.0, "v0": 0.5}},
        "cost": {"gamma": 0.5, "theta": "tracking", "phi": "gaussian-well", "track_path": [[0.0, 1.0], [1.0, 0.5]]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    def fresh():
        return parse_config(json.dumps(cfg)).problem()

    prob = fresh()
    tg, (ua, ub) = prob.timegrid, prob.bounds.arrays()
    center = ControlPath.from_stacked(tg, np.tile(0.5 * (ua + ub), (tg.nt + 1, 1)))
    direction = ControlPath.from_stacked(tg, scale * cli_module._grad_check_direction(prob).stacked())
    eps = [0.2, 0.1, 0.05, 0.025]
    own = forward_module.required_substeps(prob.grid, prob.drift_for(center), tg, prob.cfl)
    ends = [forward_module.required_substeps(prob.grid, prob.drift_for(
        ControlPath.from_stacked(tg, center.stacked() + s * eps[0] * direction.stacked())), tg, prob.cfl)
        for s in (1.0, -1.0)]
    assert (own == [max(p) for p in zip(own, *ends)]) == own_plan

    monkeypatch.setattr(cli_module, "_grad_check_direction", lambda problem: direction)
    solves, _ = counted_solves(monkeypatch)
    assert run_command(["grad-check", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert len(solves) == (7 if own_plan else 8)
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    probe = frechet_probe(center, direction, eps, fresh())
    grad_prob = fresh()
    grad = reduced_gradient(center, grad_prob)
    fd = fd_directional_derivative(fresh(), center, direction, 1e-4)
    analytic = metric_dot(grad_prob, grad, direction)
    assert rep["remainders"] == list(probe.remainders) and rep["slope"] == probe.slope
    assert (rep["fd_directional"], rep["analytic_directional"]) == (fd, analytic)
    assert rep["fd_rel_err"] == abs(fd - analytic) / abs(fd) and rep["ibp_discrepancy"] == grad.ibp_discrepancy


def test_the_probe_leaves_the_centres_state_in_the_memo(monkeypatch):
    # the tangent solve's state has the bits of the centre's forward solve
    # in every array
    prob = build_problem(n=64, nt=32, theta=Potential.tracking([[0.0, 0.0], [1.0, 0.5]]), scheme="muscl-fv")
    tg = prob.timegrid
    u, d = ControlPath.constant(tg, [0.2], [0.1]), ControlPath.constant(tg, [0.05], [-0.03])
    frechet_probe(u, d, [0.2, 0.1], prob)
    solves, _ = counted_solves(monkeypatch)
    kept, solved = prob.solve_forward_for(u), dataclasses.replace(prob).solve_forward_for(u)
    assert len(solves) == 1
    for name in ("nodes", "mass", "source_mass", "boundary_outflux"):
        assert bits_equal(getattr(kept, name), getattr(solved, name))
    assert (kept.substeps, kept.scheme, kept.cfl) == (solved.substeps, solved.scheme, solved.cfl)


def test_assemble_rejects_grid_mismatch():
    prob = build_problem(n=128, nt=64)
    other = build_problem(n=64, nt=64)
    u = ControlPath.zeros(prob.timegrid, 1)
    traj = prob.solve_forward_for(u)
    qtraj = other.solve_adjoint_for(u)
    with pytest.raises(GridMismatch, match="different grids"):
        assemble_integral_path(prob, traj, qtraj)
    # the same grid, a different time grid
    qtraj = build_problem(n=128, nt=32).solve_adjoint_for(ControlPath.zeros(make_timegrid(1.0, 32), 1))
    with pytest.raises(GridMismatch, match="different time grids"):
        assemble_integral_path(prob, traj, qtraj)


def test_h1_riesz_basics():
    tg = make_timegrid(1.0, 64)
    assert np.all(h1_riesz(np.zeros(65), 1.0, 0.5, tg) == 0.0)
    with pytest.raises(NotApplicable):
        h1_riesz(np.zeros(65), 1.0, 0.0, tg)


def test_h1_riesz_manufactured_solution_order_two():
    errs = []
    nts = [64, 128, 256, 512]
    gamma, nu = 1.0, 0.5
    for nt in nts:
        tg = make_timegrid(1.0, nt)
        t = tg.nodes()
        rhs = (nu * math.pi**2 + gamma) * np.sin(np.pi * t)
        mu = h1_riesz(rhs, gamma, nu, tg)
        errs.append(np.abs(mu - np.sin(np.pi * t)).max())
    order = fit_order([1.0 / nt for nt in nts], errs)
    assert order == pytest.approx(2.0, abs=0.2)


def test_h1_riesz_small_nu_interior_limit():
    tg = make_timegrid(1.0, 128)
    t = tg.nodes()
    rhs = np.cos(2 * np.pi * t)
    mu = h1_riesz(rhs, 2.0, 1e-8, tg)
    interior = slice(16, -16)
    assert np.abs(mu[interior] - rhs[interior] / 2.0).max() < 1e-4


def test_h1_riesz_spd_and_linear():
    rng = np.random.default_rng(8)
    tg = make_timegrid(1.0, 48)
    f = rng.normal(size=49)
    g = rng.normal(size=49)
    Rf = h1_riesz(f, 1.3, 0.7, tg)
    Rg = h1_riesz(g, 1.3, 0.7, tg)
    assert float(Rf[1:-1] @ f[1:-1]) > 0.0
    mix = h1_riesz(2.0 * f - 3.0 * g, 1.3, 0.7, tg)
    assert np.abs(mix - (2.0 * Rf - 3.0 * Rg)).max() < 1e-12


def test_gradient_h1_metric_uses_riesz_representative():
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.4]])
    prob = build_problem(nu=0.05, gamma=0.5, theta=theta, phi=Potential("gaussian-well"),
                         scheme="muscl-fv")
    u = ControlPath.constant(prob.timegrid, [0.2], [0.1])
    grad = reduced_gradient(u, prob)
    assert grad.metric == "H1tilde"
    # directional derivative in the weighted H1 inner product matches fd
    t = prob.timegrid.nodes()
    d = ControlPath(prob.timegrid, np.sin(np.pi * t)[:, None], np.sin(2 * np.pi * t)[:, None])
    fd = fd_directional_derivative(prob, u, d, 1e-4)
    dt = prob.timegrid.dt
    sg = np.diff(grad.stacked(), axis=0) / dt
    sd = np.diff(d.stacked(), axis=0) / dt
    h1dot = prob.cost.gamma * path_dot(prob.timegrid, grad.stacked(), d.stacked())
    h1dot += prob.cost.nu * float((sg * sd).sum() * dt)
    assert h1dot == pytest.approx(fd, rel=5e-2)
    assert metric_dot(prob, grad, d) == h1dot


def test_metric_dot_of_an_l2_gradient_is_the_trapezoid_product():
    prob = build_problem(n=64, nt=16, gamma=0.5, theta=Potential.tracking([[0.0, 0.0], [1.0, 0.4]]))
    u = ControlPath.constant(prob.timegrid, [0.2], [0.1])
    grad = reduced_gradient(u, prob)
    assert grad.metric == "L2"
    t = prob.timegrid.nodes()
    d = ControlPath(prob.timegrid, np.sin(np.pi * t)[:, None], np.cos(np.pi * t)[:, None])
    assert metric_dot(prob, grad, d) == path_dot(prob.timegrid, grad.stacked(), d.stacked())


def test_kkt_zero_at_unconstrained_stationary_point():
    prob = build_problem(gamma=1.0)
    u = ControlPath.zeros(prob.timegrid, 1)
    res = kkt_residual(u, prob, reduced_gradient(u, prob))
    assert res.stationarity == 0.0
    assert res.vi_residual == 0.0


def test_kkt_zero_control_stationary_under_large_delta():
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.3]])
    prob = build_problem(gamma=1.0, delta=5.0, theta=theta, phi=Potential("gaussian-well"))
    u = ControlPath.zeros(prob.timegrid, 1)
    grad = reduced_gradient(u, prob)
    assert np.abs(grad.stacked()).max() < 5.0  # premise: delta dominates
    res = kkt_residual(u, prob, gradient=grad)
    assert res.vi_residual == 0.0
    assert res.stationarity < 1e-12
    # the sparsity multiplier is delta sign(u) off the zero set and within
    # delta on it, and the bound multipliers are zero off the active sets, by
    # construction: no sign-consistency or complementarity residual is kept
    assert set(dataclasses.asdict(res)) == {"stationarity", "vi_residual"}


def test_kkt_active_upper_bound():
    # saturate the box, then check the multiplier bookkeeping
    theta = Potential.tracking([[0.0, 2.0], [1.0, 2.0]])  # strong pull upward
    prob = build_problem(gamma=0.05, theta=theta, phi=Potential("zero"), radius=0.2, scheme="muscl-fv")
    res = optimize(prob, OptimConfig(max_iters=60, vi_tol=1e-6, step0=2.0))
    u = res.control.stacked()
    # all but the final node saturate; the adjoint vanishes at T (phi = 0),
    # so the last node is stationary at zero instead
    assert np.abs(u[:-1, 0] - 0.2).max() < 1e-12
    kkt = res.kkt
    assert kkt.vi_residual <= 1e-6
    assert kkt.stationarity < 1e-6


def test_frechet_probe_zero_direction():
    prob = build_problem(n=64, nt=32)
    u = ControlPath.constant(prob.timegrid, [0.2], [0.1])
    rep = frechet_probe(u, ControlPath.zeros(prob.timegrid, 1), [0.2, 0.1, 0.05, 0.025], prob)
    assert all(r == 0.0 for r in rep.remainders)


def test_frechet_probe_slope_two_interior():
    prob = build_problem(n=256, nt=256, x0=2.0, v0=0.5, gamma=0.1)
    tg = prob.timegrid
    u = ControlPath.constant(tg, [0.5], [0.25])
    t = tg.nodes()
    d = ControlPath(tg, np.sin(np.pi * t)[:, None], 0.3 * np.cos(np.pi * t)[:, None])
    rep = frechet_probe(u, d, [0.2, 0.1, 0.05, 0.025], prob)
    assert 1.8 <= rep.slope <= 2.2
    assert all(b < a for a, b in zip(rep.remainders, rep.remainders[1:]))


def test_frechet_probe_degrades_across_box_boundary():
    # at the box corner every positive perturbation is clipped away entirely:
    # the remainder becomes eps * ||DG du||, first order
    prob = build_problem(n=128, nt=64, x0=2.0, v0=0.5, radius=0.5)
    tg = prob.timegrid
    u = ControlPath.constant(tg, [0.5], [0.5])  # at the corner
    d = ControlPath.constant(tg, [1.0], [0.5])  # points outward
    rep = frechet_probe(u, d, [0.2, 0.1, 0.05, 0.025], prob)
    assert rep.slope < 1.3


def test_frechet_probe_validates_ladder():
    prob = build_problem(n=64, nt=32)
    u = ControlPath.zeros(prob.timegrid, 1)
    with pytest.raises(ValueError):
        frechet_probe(u, u, [0.1, 0.2], prob)


@pytest.mark.parametrize("ladder, bad", [([0.2, 0.1, -0.1], [-0.1]), ([0.2, 0.0], [0.0]), ([math.inf, 0.1], [math.inf])],
                         ids=["negative", "zero", "inf"])
def test_frechet_probe_rejects_a_step_that_is_not_positive(ladder, bad, monkeypatch):
    # the slope is fitted to log(eps), and a zero step has no remainder to
    # fit: the ladder is refused before any solve, naming the bad steps
    prob = build_problem(n=64, nt=32)
    u = ControlPath.zeros(prob.timegrid, 1)
    solves, _ = counted_solves(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(f"positive finite steps, got {bad}")):
        frechet_probe(u, u, ladder, prob)
    assert solves == []


def test_smallness_certificate_limits():
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.3]])
    prob = build_problem(gamma=1e9, theta=theta, phi=Potential("gaussian-well"), v0=0.5)
    rep = smallness_certificate(prob, C_universal=1.0)
    assert rep.passed
    assert rep.smallness_ratio < 1e-3
    # zero potentials: no potential term, so K = 0
    rep0 = smallness_certificate(build_problem(), C_universal=1.0)
    assert rep0.smallness_K == 0.0
    assert rep0.smallness_ratio == 0.0
    small = build_problem(gamma=0.01, theta=theta, phi=Potential("gaussian-well"))
    assert not smallness_certificate(small, C_universal=1.0).passed


@pytest.mark.parametrize("radius", [500.0, 600.0])
def test_smallness_certificate_past_the_float_range(radius):
    # at radius 600 the growth factor overflows, at 500 the product: K and
    # the ratio are inf and fail, and a zero potential term still gives 0
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.3]])
    rep = smallness_certificate(build_problem(theta=theta, radius=radius), 1.0)
    assert rep.smallness_K == rep.smallness_ratio == math.inf and rep.passed is False
    rep0 = smallness_certificate(build_problem(radius=radius), 1.0)
    assert rep0.smallness_K == rep0.smallness_ratio == 0.0 and rep0.passed is True


def test_smallness_certificate_counts_a_source():
    # a source adds T ||s||_{2,2} to the data term rho0's ||rho0||_{2,2}
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.3]])
    prob = build_problem(theta=theta, phi=Potential("gaussian-well"))
    source = sample_function(prob.grid, "gaussian", {"x0": 1.0, "v0": 0.5})
    with_source = dataclasses.replace(prob, source=source.values)
    data = weighted_sobolev_norm(prob.rho0, 2, 2)
    extra = prob.timegrid.T * weighted_sobolev_norm(source, 2, 2)
    assert extra > 0
    base, rep = smallness_certificate(prob, 1.0), smallness_certificate(with_source, 1.0)
    assert rep.smallness_K == pytest.approx(base.smallness_K * (data + extra) / data, rel=1e-12)
    assert rep.smallness_ratio > base.smallness_ratio


def test_smallness_ratio_scales_inversely_with_gamma():
    theta = Potential.tracking([[0.0, 0.0], [1.0, 0.3]])
    r1 = smallness_certificate(build_problem(gamma=1.0, theta=theta), 1.0).smallness_ratio
    r2 = smallness_certificate(build_problem(gamma=2.0, theta=theta), 1.0).smallness_ratio
    assert r1 == pytest.approx(2.0 * r2, rel=1e-12)
