"""Command-line entry point: strict JSON configuration, scenario runs, and
artifact emission.

Subcommands: forward, adjoint, cost, grad, grad-check, optimize,
multistart, oracle-compare, certify.  Every run echoes the fully resolved
configuration into the output directory; repeated runs of one configuration
produce byte-identical CSV artifacts.

Exit codes: 0 success, 1 configuration error, 2 numerical failure (a
diagnostic JSON is written when the output directory is known).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import fileio
from .adjoint import adjoint_energy_certificate, confining_weight_index, solve_adjoint
from .controls import BoxBounds, ControlPath, CostSpec, DriftPreset, DriftSpec, Potential
from .errors import LinesearchFailure, LiouvilleControlError, SchemaError
from .forward import boundary_leak, energy_certificate, solve_forward
from .grid import GridSpec, ScalarField, TimeGrid, is_count, make_grid, sample_function
from .optimize import OptimConfig, multi_start, optimize
from .oracles import affine_exact_density, fd_directional_derivative, fit_order
from .reduced import (
    Problem,
    frechet_probe,
    kkt_residual,
    path_dot,
    path_norm,
    reduced_cost,
    reduced_gradient,
    smallness_certificate,
)

# allowed keys per section; unknown keys anywhere are configuration errors
_SCHEMA = {
    "grid": {"dim", "lo", "hi", "n"},
    "time": {"T", "nt"},
    "rho0": {"preset", "params"},
    "source": {"preset", "params"},
    "a0": {"preset", "params"},
    "control": {"u1", "u2"},
    "cost": {"gamma", "delta", "nu", "theta", "phi", "track_path", "l1_norm"},
    "bounds": {"ua", "ub"},
    "optim": {"max_iters", "step0", "c1", "backtrack", "vi_tol", "seeds"},
    "solver": {"scheme", "cfl", "max_substeps"},
    "output": {"dir", "stride"},
    "constants": {"C_universal", "C_cert"},
}


@dataclass
class RunConfig:
    """Fully resolved run configuration."""

    grid: GridSpec
    timegrid: TimeGrid
    rho0_preset: str
    rho0_params: dict
    source_preset: str
    source_params: dict
    a0: DriftPreset
    control_u1: list
    control_u2: list
    cost: CostSpec
    bounds: BoxBounds
    optim: OptimConfig
    scheme: str
    cfl: float
    max_substeps: int
    out_dir: str
    stride: int
    C_universal: float
    C_cert: float
    resolved: dict

    def rho0_field(self) -> ScalarField:
        return sample_function(self.grid, self.rho0_preset, self.rho0_params)

    def source_eval(self):
        if self.source_preset == "zero":
            return None
        vals = sample_function(self.grid, self.source_preset, self.source_params).values
        return lambda t: vals

    def initial_control(self) -> ControlPath:
        return ControlPath.constant(self.timegrid, self.control_u1, self.control_u2)

    def problem(self) -> Problem:
        return Problem(
            grid=self.grid, timegrid=self.timegrid, rho0=self.rho0_field(), a0=self.a0,
            cost=self.cost, bounds=self.bounds, g_eval=self.source_eval(), scheme=self.scheme,
            cfl=self.cfl, stride=self.stride, max_substeps=self.max_substeps,
        )


def _check_keys(section: str, value, allowed) -> None:
    if not isinstance(value, dict):
        raise SchemaError(f"section '{section}' must be an object")
    for key in value:
        if key not in allowed:
            raise SchemaError(f"unknown key '{section}.{key}'" if section else f"unknown key '{key}'")


@contextmanager
def _section(name: str):
    """Report a malformed value in one configuration section as a
    SchemaError naming the section (errors that name it already pass)."""
    try:
        yield
    except (ValueError, TypeError, IndexError, LiouvilleControlError) as err:
        if isinstance(err, SchemaError) and str(err).startswith(name):
            raise
        raise SchemaError(f"{name}: {err}") from err


def _potential_from(name, track_path, which: str, dim: int) -> Potential:
    if name != "tracking":
        with _section(f"cost.{which}"):
            return Potential(name)
    if not track_path:
        raise SchemaError(f"cost.{which} = 'tracking' needs cost.track_path")
    pot = Potential.tracking(track_path)
    if {len(x) for x in pot.track_x} not in ({1}, {dim}):
        raise SchemaError(f"cost.track_path: each point needs 1 or grid.dim = {dim} coordinates")
    return pot


@contextmanager
def _preset(section: str, name: str):
    """Build a preset and evaluate it on the grid inside this block, so that
    a bad name, parameter or value fails naming ``<section>.preset``."""
    with _section(f"{section}.preset {name!r}"), np.errstate(all="ignore"):
        yield


def _count(key: str, value):
    """A count, or a list of counts: JSON integers only, so that 64.9 is not
    truncated and true is not read as 1."""
    if isinstance(value, list):
        return [_count(key, v) for v in value]
    if not is_count(value):
        raise SchemaError(f"{key} must be an integer, got {value!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration (strict keys, documented
    defaults); raises SchemaError naming the offending section or key."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"configuration is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise SchemaError("configuration must be a JSON object")
    _check_keys("", raw, set(_SCHEMA))
    for section, allowed in _SCHEMA.items():
        if section in raw:
            _check_keys(section, raw[section], allowed)
    for required, keys in (("grid", ("dim", "lo", "hi", "n")), ("time", ("T", "nt"))):
        if required not in raw:
            raise SchemaError(f"missing required section '{required}'")
        for key in keys:
            if key not in raw[required]:
                raise SchemaError(f"missing key '{required}.{key}'")

    with _section("grid"):
        gsec = raw["grid"]
        grid = make_grid(_count("grid.dim", gsec["dim"]), gsec["lo"], gsec["hi"], _count("grid.n", gsec["n"]))
    d = grid.dim

    with _section("time"):
        timegrid = TimeGrid(T=float(raw["time"]["T"]), nt=_count("time.nt", raw["time"]["nt"]))

    with _section("rho0"):
        rsec = raw.get("rho0", {})
        rho0_preset = rsec.get("preset", "gaussian")
        rho0_params = dict(rsec.get("params", {"x0": 0.0, "v0": 1.0}))
        with _preset("rho0", rho0_preset):
            sample_function(grid, rho0_preset, rho0_params)  # ScalarField rejects non-finite values

    with _section("source"):
        ssec = raw.get("source", {})
        source_preset = ssec.get("preset", "zero")
        source_params = dict(ssec.get("params", {}))
        with _preset("source", source_preset):
            sample_function(grid, source_preset, source_params)

    with _section("a0"):
        asec = raw.get("a0", {})
        a0_name = asec.get("preset", "zero")
        with _preset("a0", a0_name):
            a0 = DriftPreset(a0_name, dict(asec.get("params", {})))
            if not np.all(np.isfinite(a0.eval(0.0, grid.cell_centers()))):
                raise ValueError("non-finite values on the grid")

    with _section("control"):
        csec = raw.get("control", {})
        control_u1 = list(np.broadcast_to(np.atleast_1d(csec.get("u1", 0.0)), (d,)).astype(float))
        control_u2 = list(np.broadcast_to(np.atleast_1d(csec.get("u2", 0.0)), (d,)).astype(float))

    with _section("cost"):
        ksec = raw.get("cost", {})
        track_path = ksec.get("track_path")
        cost = CostSpec(
            gamma=float(ksec.get("gamma", 1.0)),
            delta=float(ksec.get("delta", 0.0)),
            nu=float(ksec.get("nu", 0.0)),
            theta=_potential_from(ksec.get("theta", "zero"), track_path, "theta", d),
            phi=_potential_from(ksec.get("phi", "zero"), track_path, "phi", d),
            l1_mode=ksec.get("l1_norm", "component"),
        )

    with _section("bounds"):
        bsec = raw.get("bounds", {})
        ua = list(np.broadcast_to(np.atleast_1d(bsec.get("ua", -1.0)), (2 * d,)).astype(float))
        ub = list(np.broadcast_to(np.atleast_1d(bsec.get("ub", 1.0)), (2 * d,)).astype(float))
        bounds = BoxBounds(tuple(ua), tuple(ub))

    with _section("optim"):
        osec = raw.get("optim", {})
        optim = OptimConfig(
            max_iters=_count("optim.max_iters", osec.get("max_iters", 200)),
            step0=float(osec.get("step0", 1.0)),
            c1=float(osec.get("c1", 1e-4)),
            backtrack=float(osec.get("backtrack", 0.5)),
            vi_tol=float(osec.get("vi_tol", 1e-6)),
            seeds=tuple(_count("optim.seeds", osec.get("seeds", [0, 1, 2, 3, 4]))),
        )

    with _section("solver"):
        vsec = raw.get("solver", {})
        scheme = vsec.get("scheme", "upwind-fv")
        if scheme not in ("upwind-fv", "muscl-fv"):
            raise SchemaError(f"solver.scheme must be upwind-fv or muscl-fv (got '{scheme}')")
        cfl = float(vsec.get("cfl", 0.9))
        if not (math.isfinite(cfl) and cfl > 0):
            raise SchemaError(f"solver.cfl must be finite and positive (got {cfl})")
        max_substeps = _count("solver.max_substeps", vsec.get("max_substeps", 4096))
        if max_substeps < 1:
            raise SchemaError(f"solver.max_substeps must be >= 1 (got {max_substeps})")

    with _section("output"):
        out = raw.get("output", {})
        out_dir = out.get("dir", "out")
        if not isinstance(out_dir, str):
            raise SchemaError("output.dir must be a string")
        stride = _count("output.stride", out.get("stride", 1))
        if stride < 1:
            raise SchemaError("output.stride must be >= 1")

    with _section("constants"):
        ksec2 = raw.get("constants", {})
        C_universal = float(ksec2.get("C_universal", 1.0))
        C_cert = float(ksec2.get("C_cert", 2.0))

    resolved = {
        "grid": {"dim": grid.dim, "lo": list(grid.lo), "hi": list(grid.hi), "n": list(grid.n)},
        "time": {"T": timegrid.T, "nt": timegrid.nt},
        "rho0": {"preset": rho0_preset, "params": rho0_params},
        "source": {"preset": source_preset, "params": source_params},
        "a0": {"preset": a0.name, "params": a0.params},
        "control": {"u1": control_u1, "u2": control_u2},
        "cost": {
            "gamma": cost.gamma,
            "delta": cost.delta,
            "nu": cost.nu,
            "theta": cost.theta.name,
            "phi": cost.phi.name,
            "track_path": track_path,
            "l1_norm": cost.l1_mode,
        },
        "bounds": {"ua": ua, "ub": ub},
        "optim": {
            "max_iters": optim.max_iters,
            "step0": optim.step0,
            "c1": optim.c1,
            "backtrack": optim.backtrack,
            "vi_tol": optim.vi_tol,
            "seeds": list(optim.seeds),
        },
        "solver": {"scheme": scheme, "cfl": cfl, "max_substeps": max_substeps},
        "output": {"dir": out_dir, "stride": stride},
        "constants": {"C_universal": C_universal, "C_cert": C_cert},
    }
    if track_path is None:
        resolved["cost"].pop("track_path")

    return RunConfig(
        grid=grid, timegrid=timegrid, rho0_preset=rho0_preset, rho0_params=rho0_params,
        source_preset=source_preset, source_params=source_params, a0=a0,
        control_u1=control_u1, control_u2=control_u2, cost=cost, bounds=bounds, optim=optim,
        scheme=scheme, cfl=cfl, max_substeps=max_substeps, out_dir=out_dir, stride=stride,
        C_universal=C_universal, C_cert=C_cert, resolved=resolved,
    )


def _kkt_dict(kkt) -> dict:
    return {
        "stationarity": kkt.stationarity,
        "complement_upper": kkt.complement_upper,
        "complement_lower": kkt.complement_lower,
        "sign_consistency": kkt.sign_consistency,
        "vi_residual": kkt.vi_residual,
    }


def _write_snapshots(traj, out_dir: str, prefix: str) -> None:
    snap_dir = os.path.join(out_dir, "snapshots")
    fileio.ensure_dir(snap_dir)
    for n, vals in traj.stored_items():
        fileio.write_field_csv(
            ScalarField(traj.grid, np.array(vals)), os.path.join(snap_dir, f"{prefix}_{n:06d}.csv")
        )


def _cmd_forward(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    traj = prob.solve_forward_for(cfg.initial_control())
    fileio.write_trajectory_summary(traj, os.path.join(out_dir, "trajectory_summary.csv"))
    _write_snapshots(traj, out_dir, "rho")
    return {
        "command": "forward",
        "scheme": traj.scheme,
        "cfl": traj.cfl,
        "substeps_max": max(traj.substeps),
        "substeps_total": int(sum(traj.substeps)),
        "mass_initial": traj.mass[0],
        "mass_final": traj.mass[-1],
        "min_value": float(traj.min_value.min()),
        "leak": boundary_leak(traj),
    }


def _cmd_adjoint(cfg: RunConfig, out_dir: str) -> dict:
    drift = DriftSpec(cfg.a0, cfg.initial_control())
    traj = solve_adjoint(cfg.cost, drift, cfg.timegrid, cfg.grid, stride=cfg.stride)
    report = {
        "command": "adjoint",
        "l2_initial": traj.l2[0],
        "l2_terminal": traj.l2[-1],
    }
    h0_negk = None
    if cfg.cost.theta.confining or cfg.cost.phi.confining:
        report["neg_k"] = confining_weight_index(cfg.grid.dim)
        h0_negk = traj.norm_history(0, -report["neg_k"])
        report["h0_negk_max"] = float(h0_negk.max())
    fileio.write_adjoint_summary(traj, h0_negk, os.path.join(out_dir, "trajectory_summary.csv"))
    _write_snapshots(traj, out_dir, "q")
    return report


def _cmd_cost(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    value = reduced_cost(cfg.initial_control(), prob)
    return {"command": "cost", "cost": value}


def _cmd_grad(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    u = cfg.initial_control()
    grad = reduced_gradient(u, prob)
    kkt = kkt_residual(u, prob, gradient=grad)
    fileio.write_control_csv(
        ControlPath(cfg.timegrid, grad.u1, grad.u2), os.path.join(out_dir, "control_gradient.csv")
    )
    return {
        "command": "grad",
        "cost": reduced_cost(u, prob),
        "grad_l2_norm": path_norm(cfg.timegrid, grad.stacked()),
        "metric": grad.metric,
        "ibp_discrepancy": grad.ibp_discrepancy,
        "vi_residual": kkt.vi_residual,
        "kkt": _kkt_dict(kkt),
    }


def _grad_check_direction(cfg: RunConfig) -> ControlPath:
    ua, ub = cfg.bounds.arrays()
    amp = 0.2 * float((ub - ua).min()) / 2.0
    t = cfg.timegrid.nodes() / cfg.timegrid.T
    d = cfg.grid.dim
    u1 = amp * np.sin(np.pi * t)[:, None] * np.ones((1, d))
    u2 = amp * np.cos(np.pi * t)[:, None] * np.ones((1, d))
    return ControlPath(cfg.timegrid, u1, u2)


def _cmd_grad_check(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    ua, ub = cfg.bounds.arrays()
    center = ControlPath.from_stacked(
        cfg.timegrid, np.tile(0.5 * (ua + ub), (cfg.timegrid.nt + 1, 1))
    )
    direction = _grad_check_direction(cfg)
    probe = frechet_probe(center, direction, [0.2, 0.1, 0.05, 0.025], prob)
    grad = reduced_gradient(center, prob)
    fd = fd_directional_derivative(prob, center, direction, 1e-4)
    if grad.metric == "H1tilde":
        slopes_g = np.diff(grad.stacked(), axis=0) / cfg.timegrid.dt
        slopes_d = np.diff(direction.stacked(), axis=0) / cfg.timegrid.dt
        analytic = cfg.cost.gamma * path_dot(cfg.timegrid, grad.stacked(), direction.stacked())
        analytic += cfg.cost.nu * float((slopes_g * slopes_d).sum() * cfg.timegrid.dt)
    else:
        analytic = path_dot(cfg.timegrid, grad.stacked(), direction.stacked())
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


def _cmd_optimize(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    u0 = cfg.initial_control()
    result = optimize(prob, cfg.optim, u0=u0)
    fileio.write_control_csv(u0, os.path.join(out_dir, "control_init.csv"))
    fileio.write_control_csv(result.control, os.path.join(out_dir, "control_final.csv"))
    fileio.write_iterations_csv(
        result.cost_history, result.vi_history, result.steps, os.path.join(out_dir, "iterations.csv")
    )
    if result.termination == "linesearch_failure":
        raise LinesearchFailure(
            f"line search stalled after {result.iterations} iterations "
            f"(vi_residual {result.vi_history[-1]:.3e} > tol {cfg.optim.vi_tol:.1e})"
        )
    return {
        "command": "optimize",
        "cost": result.cost_history[-1],
        "iterations": result.iterations,
        "termination": result.termination,
        "vi_residual": result.vi_history[-1] if result.vi_history else 0.0,
        "kkt": _kkt_dict(result.kkt),
    }


def _cmd_multistart(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    report = multi_start(prob, cfg.optim)
    out = {
        "command": "multistart",
        "seeds": list(report.seeds),
        "max_pairwise_distance": report.max_pairwise_distance,
        "uniqueness_tol": report.uniqueness_tol,
        "within_tol": report.within_tol,
        "terminations": list(report.terminations),
        "final_costs": list(report.final_costs),
        "smallness_ratio": report.smallness_ratio,
        "smallness_pass": report.smallness_pass,
    }
    fileio.write_json(out, os.path.join(out_dir, "multistart_report.json"))
    return out


def _cmd_oracle_compare(cfg: RunConfig, out_dir: str) -> dict:
    base_n = cfg.grid.n[0]
    resolutions = sorted({max(8, base_n // 4), max(8, base_n // 2), base_n})
    errors = []
    hs = []
    for n in resolutions:
        factor = n / base_n
        grid = make_grid(cfg.grid.dim, cfg.grid.lo, cfg.grid.hi, tuple(max(8, int(m * factor)) for m in cfg.grid.n))
        nt = max(2, int(cfg.timegrid.nt * factor))
        tg = TimeGrid(cfg.timegrid.T, nt)
        control = ControlPath.constant(tg, cfg.control_u1, cfg.control_u2)
        drift = DriftSpec(cfg.a0, control)
        rho0 = sample_function(grid, cfg.rho0_preset, cfg.rho0_params)
        traj = solve_forward(
            rho0, drift, None, tg, scheme=cfg.scheme, cfl=cfg.cfl,
            stride=max(1, nt), max_substeps=cfg.max_substeps,
        )
        exact = affine_exact_density(
            cfg.rho0_preset, cfg.rho0_params, drift, tg.T, grid.cell_centers()
        )
        err = float(np.abs(traj.snapshots[-1].ravel() - exact).sum() * grid.cell_volume)
        errors.append(err)
        hs.append(grid.h[0])
    return {
        "command": "oracle-compare",
        "resolutions": resolutions,
        "errors": errors,
        "order": fit_order(hs, errors),
    }


def _cmd_certify(cfg: RunConfig, out_dir: str) -> dict:
    prob = cfg.problem()
    u = cfg.initial_control()
    drift = DriftSpec(cfg.a0, u)
    traj = prob.solve_forward_for(u)
    fileio.write_trajectory_summary(traj, os.path.join(out_dir, "trajectory_summary.csv"))
    certs = {}
    all_pass = True
    for m in (0, 1):
        for k in (0, 2):
            cert = energy_certificate(traj, drift, prob.g_eval, m, k, C_cert=cfg.C_cert)
            certs[f"m{m}k{k}"] = {
                "fitted_C": cert.fitted_C if math.isfinite(cert.fitted_C) else None,
                "C_cert": cert.C_cert,
                "passed": cert.passed,
            }
            all_pass = all_pass and cert.passed
    report = {
        "command": "certify",
        "energy_certificates": certs,
        "energy_all_passed": all_pass,
        "leak": boundary_leak(traj),
        "mass_drift": float(abs(traj.mass[-1] - traj.mass[0] - traj.source_mass[-1])),
        "min_value": float(traj.min_value.min()),
    }
    if cfg.cost.theta.confining or cfg.cost.phi.confining:
        qtraj = solve_adjoint(cfg.cost, drift, cfg.timegrid, cfg.grid, stride=cfg.stride)
        acert = adjoint_energy_certificate(qtraj, drift, cfg.cost, C_cert=cfg.C_cert)
        report["adjoint_certificate"] = {
            "neg_k": confining_weight_index(cfg.grid.dim),
            "fitted_C": acert.fitted_C if math.isfinite(acert.fitted_C) else None,
            "passed": acert.passed,
        }
    small = smallness_certificate(prob, cfg.C_universal)
    report["smallness_ratio"] = small.smallness_ratio
    report["smallness_K"] = small.smallness_K
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
    except LiouvilleControlError as err:
        diagnostic = {"error": type(err).__name__, "message": str(err), "command": args.command}
        fileio.write_json(diagnostic, os.path.join(out_dir, "report.json"))
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # malformed configs must never produce a traceback
        diagnostic = {"error": type(err).__name__, "message": str(err), "command": args.command}
        fileio.write_json(diagnostic, os.path.join(out_dir, "report.json"))
        print(f"numerical failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 2

    fileio.write_json(report, os.path.join(out_dir, "report.json"))
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
