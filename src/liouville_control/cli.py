"""Command-line entry point: strict JSON configuration, scenario runs, and
artifact emission.

Subcommands: forward, adjoint, cost, grad, grad-check, optimize,
multistart, oracle-compare, certify.  ``_DEFAULTS`` names every
configuration key with its default; ``parse_config`` merges each section
with it, checks every value by the kind of its default, builds the run's
one ``Problem`` and echoes the merged configuration, which every run writes
to its output directory.  Every command solves through that ``Problem``;
repeated runs of one configuration produce byte-identical CSV artifacts.

Exit codes: 0 success, 1 configuration error, 2 numerical failure (a
diagnostic JSON is written when the output directory is known).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import fileio
from .adjoint import adjoint_energy_certificate, confining_weight_index
from .controls import BoxBounds, ControlPath, CostSpec, DriftPreset, Potential
from .errors import DegenerateProbe, LinesearchFailure, LiouvilleControlError, SchemaError
from .forward import boundary_leak, energy_certificate
from .grid import ScalarField, TimeGrid, is_count, is_finite_number, make_grid, sample_function
from .optimize import UNIQUENESS_TOL, OptimConfig, multi_start, optimize
from .oracles import affine_exact_density, fd_directional_derivative
from .reduced import (
    Problem,
    fit_order,
    frechet_probe,
    kkt_residual,
    metric_dot,
    path_norm,
    reduced_cost,
    reduced_gradient,
    smallness_certificate,
)

# Every configuration key, by section, with its default; any other key is a
# configuration error.  A type in place of a default marks a key that every
# configuration must give.  A value must be of its default's kind: an int
# default takes a count (a JSON integer), a float a finite JSON number, a str
# a name and a dict an object; a list default also takes a list of them.
# cost.track_path (default None) goes to Potential.tracking as given, for a
# cost.theta or cost.phi of "tracking".
_DEFAULTS = {
    "grid": {"dim": int, "lo": [float], "hi": [float], "n": [int]},
    "time": {"T": float, "nt": int},
    "rho0": {"preset": "gaussian", "params": {}},
    "source": {"preset": "zero", "params": {}},
    "a0": {"preset": "zero", "params": {}},
    "control": {"u1": [0.0], "u2": [0.0]},
    "cost": {"gamma": 1.0, "delta": 0.0, "nu": 0.0, "theta": "zero", "phi": "zero", "track_path": None},
    "bounds": {"ua": [-1.0], "ub": [1.0]},
    "optim": {"max_iters": 200, "step0": 1.0, "vi_tol": 1e-6, "seeds": [0, 1, 2, 3, 4]},
    "solver": {"scheme": "upwind-fv", "cfl": 0.9, "max_substeps": 4096},
    "output": {"dir": "out", "stride": 1},
    "constants": {"C_universal": 1.0, "C_cert": 2.0},
}

# A run's largest arrays hold one float per cell, axis and time node (the
# adjoint's stored feet).  Counts that make them larger than numpy can
# describe are rejected before anything is allocated.
_MAX_BYTES = sys.maxsize

# kind -> (what a value must be, test of one value)
_KINDS = {
    int: ("an integer", is_count),
    float: ("a finite number", is_finite_number),
    str: ("a string", lambda v: isinstance(v, str)),
    dict: ("an object", lambda v: isinstance(v, dict)),
}


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration: the run's one Problem, the start control,
    what only some commands read, and the resolved configuration echoed into
    the output directory."""

    _problem: Problem
    control: ControlPath
    rho0: tuple  # (preset, params) for the exact-solution oracle
    optim: OptimConfig
    out_dir: str
    stride: int  # forward and adjoint write node nt and every stride-th node
    C_universal: float
    C_cert: float
    resolved: dict

    def problem(self) -> Problem:
        return self._problem


@contextmanager
def _section(name: str):
    """Report a malformed value in one configuration section as a
    SchemaError naming the section (errors that name it already pass)."""
    try:
        yield
    except (ValueError, TypeError, IndexError, OverflowError, LiouvilleControlError) as err:
        if isinstance(err, SchemaError) and str(err).startswith(name):
            raise
        raise SchemaError(f"{name}: {err}") from err


@contextmanager
def _preset(section: str, name: str):
    """Build a preset and evaluate it on the grid inside this block, so that
    a bad name, parameter or value fails naming ``<section>.preset``."""
    with _section(f"{section}.preset {name!r}"), np.errstate(all="ignore"):
        yield


def _checked(key: str, value, kind: type, listed: bool = False):
    """``value`` if it is of ``kind`` (or, if ``listed``, a list of such
    values), with finite numbers as floats; else a SchemaError naming the key."""
    if listed and isinstance(value, list):
        return [_checked(key, v, kind) for v in value]
    what, ok = _KINDS[kind]
    if not ok(value):
        raise SchemaError(f"{key} must be {what}, got {value!r}")
    return float(value) if kind is float else dict(value) if kind is dict else value


def _resolve(section: str, given) -> dict:
    """One configuration section merged with its defaults, every value checked."""
    defaults = _DEFAULTS[section]
    if not isinstance(given, dict):
        raise SchemaError(f"section '{section}' must be an object")
    for key in given:
        if key not in defaults:
            raise SchemaError(f"unknown key '{section}.{key}'")
    out = {}
    for key, default in defaults.items():
        listed = isinstance(default, list)
        sample = default[0] if listed else default
        required = isinstance(sample, type)
        if required and key not in given:
            raise SchemaError(f"missing key '{section}.{key}'")
        value = given.get(key, default)
        if default is not None:
            value = _checked(f"{section}.{key}", value, sample if required else type(sample), listed)
        out[key] = value
    return out


def _broadcast(key: str, values, size: int, what: str) -> list:
    """``values``, one number or a list of 1 or ``size`` (``what``) numbers,
    as ``size`` floats; else a SchemaError naming the key."""
    values = np.atleast_1d(values)
    if len(values) not in (1, size):
        raise SchemaError(f"{key} needs 1 or {what} = {size} values, got {len(values)}")
    return [float(v) for v in np.broadcast_to(values, (size,))]


def _sample(section: str, grid, preset: str, params: dict) -> ScalarField:
    with _preset(section, preset):
        return sample_function(grid, preset, params)  # ScalarField rejects non-finite values


def _tracking(track_path, dim: int) -> Potential | None:
    """The tracking potential of ``cost.track_path``, checked whenever it is
    given, with a one-coordinate point used on every axis; None if it is
    not given."""
    if track_path is None:
        return None
    if not isinstance(track_path, list):
        raise SchemaError(f"cost.track_path must be a list of [t, x] nodes, got {track_path!r}")
    for i, node in enumerate(track_path):
        if not (isinstance(node, list) and len(node) == 2):
            raise SchemaError(f"cost.track_path[{i}]: a node must be [t, x], a time and a point, got {node!r}")
    with _section("cost.track_path"):
        pot = Potential.tracking(track_path)
    sizes = {len(x) for x in pot.track_x}
    if sizes not in ({1}, {dim}):
        raise SchemaError(f"cost.track_path: each point needs 1 or grid.dim = {dim} coordinates")
    if sizes != {dim}:
        pot = dataclasses.replace(pot, track_x=tuple(x * dim for x in pot.track_x))
    return pot


def _potential(cost: dict, which: str, tracking: Potential | None) -> Potential:
    if cost[which] == "tracking" and tracking is not None:
        return tracking
    with _section(f"cost.{which}"):
        return Potential(cost[which])  # a preset that depends on time needs cost.track_path


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration (strict keys, the
    defaults of ``_DEFAULTS``); raises SchemaError naming the offending
    section or key."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"configuration is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise SchemaError("configuration must be a JSON object")
    for section in raw:
        if section not in _DEFAULTS:
            raise SchemaError(f"unknown key '{section}'")
    cfg = {section: _resolve(section, raw.get(section, {})) for section in _DEFAULTS}

    with _section("grid"):
        grid = make_grid(**cfg["grid"])
    cfg["grid"] = {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(grid).items()}
    d = grid.dim
    field_bytes = 8 * d * math.prod(grid.n)
    if field_bytes > _MAX_BYTES:
        raise SchemaError("grid.n: too many cells for an array to hold")
    with _section("time"):
        timegrid = TimeGrid(**cfg["time"])
    if (timegrid.nt + 1) * field_bytes > _MAX_BYTES:
        raise SchemaError("time.nt: too many time steps for an array of every node to hold")
    rho0 = _sample("rho0", grid, **cfg["rho0"])
    source = _sample("source", grid, **cfg["source"])
    asec = cfg["a0"]
    with _preset("a0", asec["preset"]):
        a0 = DriftPreset(asec["preset"], asec["params"])
        if not np.all(np.isfinite(a0.eval(grid.cell_centers()))):
            raise ValueError("non-finite values on the grid")

    with _section("control"):
        cfg["control"] = {k: _broadcast(f"control.{k}", v, d, "grid.dim") for k, v in cfg["control"].items()}
        control = ControlPath.constant(timegrid, **cfg["control"])
    with _section("bounds"):
        cfg["bounds"] = {k: _broadcast(f"bounds.{k}", v, 2 * d, "2 * grid.dim") for k, v in cfg["bounds"].items()}
        bounds = BoxBounds(**{k: tuple(v) for k, v in cfg["bounds"].items()})
    with _section("cost"):
        ksec = cfg["cost"]
        tracking = _tracking(ksec["track_path"], d)
        if tracking is not None and "tracking" not in (ksec["theta"], ksec["phi"]):
            raise SchemaError("cost.track_path is given, but neither cost.theta nor cost.phi is 'tracking'")
        cost = CostSpec(
            gamma=ksec["gamma"], delta=ksec["delta"], nu=ksec["nu"], theta=_potential(ksec, "theta", tracking),
            phi=_potential(ksec, "phi", tracking),
        )
    with _section("optim"):
        optim = OptimConfig(**dict(cfg["optim"], seeds=tuple(cfg["optim"]["seeds"])))

    output = cfg["output"]
    if output["stride"] < 1:
        raise SchemaError("output.stride must be >= 1")
    constants = cfg["constants"]
    if constants["C_cert"] < 0:
        raise SchemaError(f"constants.C_cert must be >= 0 (got {constants['C_cert']})")
    if not constants["C_universal"] > 0:
        raise SchemaError(f"constants.C_universal must be positive (got {constants['C_universal']})")

    try:
        problem = Problem(
            grid=grid, timegrid=timegrid, rho0=rho0, a0=a0, cost=cost, bounds=bounds,
            source=None if cfg["source"]["preset"] == "zero" else source.values, **cfg["solver"],
        )
    except ValueError as err:  # forward.check_solver's message names the setting
        raise SchemaError(f"solver.{err}") from err
    resolved = {s: {k: v for k, v in sec.items() if v is not None} for s, sec in cfg.items()}
    return RunConfig(
        _problem=problem, control=control, rho0=tuple(cfg["rho0"].values()), optim=optim,
        out_dir=output["dir"], stride=output["stride"], resolved=resolved, **cfg["constants"],
    )


def _write_snapshots(traj, stride: int, out_dir: str, prefix: str) -> None:
    """The nodes at node nt and every ``stride``-th node."""
    snap_dir = os.path.join(out_dir, "snapshots")
    fileio.ensure_dir(snap_dir)
    nt = traj.timegrid.nt
    for n in sorted({*range(0, nt + 1, stride), nt}):
        fileio.write_field_csv(
            ScalarField(traj.grid, traj.nodes[n]), os.path.join(snap_dir, f"{prefix}_{n:06d}.csv")
        )


def _cmd_forward(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    traj = prob.solve_forward_for(cfg.control)
    summary = fileio.write_trajectory_summary(traj, os.path.join(out_dir, "trajectory_summary.csv"))
    _write_snapshots(traj, cfg.stride, out_dir, "rho")
    return {
        "command": "forward",
        "scheme": traj.scheme,
        "cfl": traj.cfl,
        "substeps_max": max(traj.substeps),
        "substeps_total": int(sum(traj.substeps)),
        "mass_initial": traj.mass[0],
        "mass_final": traj.mass[-1],
        "min_value": float(summary["min"].min()),
        "leak": boundary_leak(traj),
    }


def _cmd_adjoint(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    traj = prob.solve_adjoint_for(cfg.control)
    neg_k = confining_weight_index(prob.grid.dim) if prob.cost.confining else None
    summary = fileio.write_adjoint_summary(traj, neg_k, os.path.join(out_dir, "trajectory_summary.csv"))
    _write_snapshots(traj, cfg.stride, out_dir, "q")
    report = {"command": "adjoint", "l2_initial": summary["l2"][0], "l2_terminal": summary["l2"][-1]}
    if neg_k is not None:
        report["neg_k"] = neg_k
        report["h0_negk_max"] = float(summary["h0_negk"].max())
    return report


def _cmd_cost(cfg: RunConfig, out_dir: str) -> dict:
    return {"command": "cost", "cost": reduced_cost(cfg.control, cfg.problem())}


def _cmd_grad(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    u = cfg.control
    grad = reduced_gradient(u, prob)
    kkt = kkt_residual(u, prob, gradient=grad)
    fileio.write_control_csv(
        ControlPath.from_stacked(prob.timegrid, grad.values), os.path.join(out_dir, "control_gradient.csv")
    )
    return {
        "command": "grad",
        "cost": reduced_cost(u, prob),
        "grad_l2_norm": path_norm(prob.timegrid, grad.values),
        "metric": grad.metric,
        "ibp_discrepancy": grad.ibp_discrepancy,
        "vi_residual": kkt.vi_residual,
        "kkt": dataclasses.asdict(kkt),
    }


def _probe_amplitude(prob: Problem) -> np.ndarray:
    """A tenth of each control component's box width (0 where the box pins it), u1's then u2's:
    grad-check's direction and oracle-compare's control for a zero drift."""
    ua, ub = prob.bounds.arrays()
    return 0.2 * (ub - ua) / 2.0


def _grad_check_direction(prob: Problem) -> ControlPath:
    amp = _probe_amplitude(prob)
    t = prob.timegrid.nodes() / prob.timegrid.T
    d = prob.grid.dim
    u1 = amp[:d] * np.sin(np.pi * t)[:, None]
    u2 = amp[d:] * np.cos(np.pi * t)[:, None]
    return ControlPath(prob.timegrid, u1, u2)


def _cmd_grad_check(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    tg = prob.timegrid
    ua, ub = prob.bounds.arrays()
    center = ControlPath.from_stacked(tg, np.tile(0.5 * (ua + ub), (tg.nt + 1, 1)))
    direction = _grad_check_direction(prob)
    probe = frechet_probe(center, direction, [0.2, 0.1, 0.05, 0.025], prob)
    grad = reduced_gradient(center, prob)
    fd = fd_directional_derivative(prob, center, direction, 1e-4)
    analytic = metric_dot(prob, grad, direction)
    rel = abs(fd - analytic) / max(abs(fd), 1e-300)
    return {
        "command": "grad-check",
        "slope": probe.slope,
        "remainders": list(probe.remainders),
        "epsilons": list(probe.epsilons),
        "fd_directional": fd,
        "analytic_directional": analytic,
        "fd_rel_err": rel,
        "ibp_discrepancy": grad.ibp_discrepancy,
    }


def _json_number(x: float) -> float | None:
    """``x``, or None (JSON null) if it is not finite, which strict JSON cannot hold."""
    return x if math.isfinite(x) else None


def _cmd_optimize(cfg: RunConfig, out_dir: str) -> dict:
    result = optimize(cfg.problem(), cfg.optim, u0=cfg.control)
    fileio.write_control_csv(cfg.control, os.path.join(out_dir, "control_init.csv"))
    fileio.write_control_csv(result.control, os.path.join(out_dir, "control_final.csv"))
    fileio.write_iterations_csv(
        result.cost_history, result.vi_history, result.steps, os.path.join(out_dir, "iterations.csv")
    )
    if result.termination == "linesearch_failure":
        raise LinesearchFailure(
            f"line search stalled after {result.iterations} iterations "
            f"(vi_residual {result.kkt.vi_residual:.3e} > tol {cfg.optim.vi_tol:.1e})"
        )
    return {
        "command": "optimize",
        "cost": result.cost_history[-1],
        "iterations": result.iterations,
        "termination": result.termination,
        "vi_residual": result.kkt.vi_residual,
        "kkt": dataclasses.asdict(result.kkt),
    }


def _cmd_multistart(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    report = multi_start(prob, cfg.optim)
    small = smallness_certificate(prob, cfg.C_universal)
    return {
        "command": "multistart",
        "seeds": list(report.seeds),
        "max_pairwise_distance": report.max_pairwise_distance,
        "uniqueness_tol": UNIQUENESS_TOL,
        "within_tol": report.within_tol,
        "terminations": list(report.terminations),
        "final_costs": list(report.final_costs),
        "smallness_ratio": _json_number(small.smallness_ratio),
        "smallness_pass": small.passed,
    }


def _cmd_oracle_compare(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    base = prob.grid
    u1, u2 = cfg.control.u1[0], cfg.control.u2[0]
    ab = prob.a0.affine_part(base.dim)
    if ab is not None and not (np.any(ab[0]) or np.any(ab[1]) or np.any(cfg.control.nodes)):
        # a zero drift moves nothing, and every error would be 0.0
        u1, u2 = np.split(_probe_amplitude(prob), 2)
    base_n = base.n[0]
    resolutions = sorted({max(8, base_n // 4), max(8, base_n // 2), base_n})
    errors = []
    hs = []
    for n in resolutions:
        factor = n / base_n
        grid = make_grid(base.dim, base.lo, base.hi, tuple(max(8, int(m * factor)) for m in base.n))
        nt = max(2, int(prob.timegrid.nt * factor))
        tg = TimeGrid(prob.timegrid.T, nt)
        coarse = dataclasses.replace(
            prob, grid=grid, timegrid=tg, rho0=sample_function(grid, *cfg.rho0), source=None
        )
        control = ControlPath.constant(tg, u1, u2)
        traj = coarse.solve_forward_for(control)
        exact = affine_exact_density(*cfg.rho0, coarse.drift_for(control), tg.T, grid.cell_centers())
        err = float(np.abs(traj.nodes[-1].ravel() - exact).sum() * grid.cell_volume)
        errors.append(err)
        hs.append(grid.h[0])
    try:
        order = fit_order(hs, errors)
    except DegenerateProbe:  # fewer than two resolutions with a positive error
        order = None
    return {"command": "oracle-compare", "control": {"u1": u1.tolist(), "u2": u2.tolist()},
            "resolutions": resolutions, "errors": errors, "order": order}


def _cmd_certify(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    u = cfg.control
    drift = prob.drift_for(u)
    traj = prob.solve_forward_for(u)
    summary = fileio.write_trajectory_summary(traj, os.path.join(out_dir, "trajectory_summary.csv"))
    certs = {}
    all_pass = True
    for m in (0, 1):
        for k in (0, 2):
            cert = energy_certificate(traj, drift, prob.source, m, k, C_cert=cfg.C_cert)
            certs[f"m{m}k{k}"] = {
                "fitted_C": _json_number(cert.fitted_C),
                "C_cert": cert.C_cert,
                "passed": cert.passed,
            }
            all_pass = all_pass and cert.passed
    report = {
        "command": "certify",
        "energy_certificates": certs,
        "energy_all_passed": all_pass,
        "leak": boundary_leak(traj),
        "min_value": float(summary["min"].min()),
    }
    if prob.cost.confining:
        qtraj = prob.solve_adjoint_for(u)
        acert = adjoint_energy_certificate(qtraj, drift, prob.cost, C_cert=cfg.C_cert)
        report["adjoint_certificate"] = {
            "neg_k": confining_weight_index(prob.grid.dim),
            "fitted_C": _json_number(acert.fitted_C),
            "passed": acert.passed,
        }
    small = smallness_certificate(prob, cfg.C_universal)
    report["smallness_ratio"] = _json_number(small.smallness_ratio)
    report["smallness_K"] = _json_number(small.smallness_K)
    report["smallness_pass"] = small.passed
    return report


_DISPATCH = {
    "forward": _cmd_forward,
    "adjoint": _cmd_adjoint,
    "cost": _cmd_cost,
    "grad": _cmd_grad,
    "grad-check": _cmd_grad_check,
    "optimize": _cmd_optimize,
    "multistart": _cmd_multistart,
    "oracle-compare": _cmd_oracle_compare,
    "certify": _cmd_certify,
}
COMMANDS = tuple(_DISPATCH)


def scenario_path(name: str) -> str:
    """Filesystem path of a shipped scenario configuration."""
    from importlib import resources

    base = resources.files("liouville_control") / "scenarios" / f"{name}.json"
    return str(base)


def load_scenario(name: str) -> RunConfig:
    with open(scenario_path(name)) as fh:
        return parse_config(fh.read())


def run_command(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="liouctl",
        description="Ensemble optimal control of Liouville-transported densities.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides output.dir)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 1 if err.code else 0

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as err:
        print(f"error: cannot read config file '{args.config}': {err}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text)
    except LiouvilleControlError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1

    out_dir = args.out if args.out is not None else cfg.out_dir
    try:
        fileio.ensure_dir(out_dir)
        fileio.write_json(cfg.resolved, os.path.join(out_dir, "resolved_config.json"))
    except OSError as err:
        print(f"configuration error: cannot write to '{out_dir}': {err}", file=sys.stderr)
        return 1

    try:
        report = _DISPATCH[args.command](cfg, out_dir)
    except Exception as err:  # malformed configs must never produce a traceback
        diagnostic = {"error": type(err).__name__, "message": str(err), "command": args.command}
        fileio.write_json(diagnostic, os.path.join(out_dir, "report.json"))
        what = err if isinstance(err, LiouvilleControlError) else f"{type(err).__name__}: {err}"
        print(f"numerical failure: {what}", file=sys.stderr)
        return 2

    fileio.write_json(report, os.path.join(out_dir, "report.json"))
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
