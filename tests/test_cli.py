import json
import os
import re

import pytest

from liouville_control import SchemaError
from liouville_control.cli import COMMANDS, load_scenario, parse_config, run_command, scenario_path
from liouville_control.fileio import read_control_csv


MINIMAL = {
    "grid": {"dim": 1, "lo": [-8.0], "hi": [8.0], "n": [64]},
    "time": {"T": 1.0, "nt": 32},
}


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_parse_minimal_resolves_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.rho0_preset == "gaussian"
    assert cfg.cost.gamma == 1.0
    assert cfg.scheme == "upwind-fv"
    assert cfg.stride == 1
    assert cfg.resolved["bounds"]["ua"] == [-1.0, -1.0]


def test_parse_roundtrip_of_resolved_config():
    cfg = parse_config(json.dumps(MINIMAL))
    again = parse_config(json.dumps(cfg.resolved))
    assert again.resolved == cfg.resolved


def test_parse_rejects_unknown_keys():
    bad = dict(MINIMAL)
    bad["gamm"] = 1.0
    with pytest.raises(SchemaError, match="gamm"):
        parse_config(json.dumps(bad))
    bad2 = dict(MINIMAL)
    bad2["cost"] = {"gama": 1.0}
    with pytest.raises(SchemaError, match="cost.gama"):
        parse_config(json.dumps(bad2))


def test_parse_rejects_nonpositive_gamma():
    bad = dict(MINIMAL)
    bad["cost"] = {"gamma": 0.0}
    with pytest.raises(SchemaError, match="gamma"):
        parse_config(json.dumps(bad))


@pytest.mark.parametrize(
    "solver, key",
    [
        ({"cfl": -1.0}, "solver.cfl"),
        ({"cfl": 0.0}, "solver.cfl"),
        ({"cfl": float("inf")}, "solver.cfl"),
        ({"max_substeps": 0}, "solver.max_substeps"),
    ],
)
def test_bad_solver_settings_exit_one(tmp_path, solver, key):
    bad = dict(MINIMAL, solver=solver)
    with pytest.raises(SchemaError, match=re.escape(key)):
        parse_config(json.dumps(bad))
    cfgp = write_config(tmp_path, bad)
    assert run_command(["forward", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1


# preset parameters that the named preset does not take
UNKNOWN_PARAMETERS = [
    ("rho0", {"preset": "gaussian", "params": {"xo": 1.0}}),
    ("a0", {"preset": "constant", "params": {"B": 1.0}}),
    ("rho0", {"preset": "gaussian", "params": {"sigma": 3}}),
]


@pytest.mark.parametrize(
    "section, entry",
    [
        ("rho0", {"preset": "gauss"}),
        ("source", {"preset": "bump"}),
        ("a0", {"preset": "spiral"}),
        ("a0", {"preset": "rotation"}),  # the grid is 1D
        ("a0", {"preset": "affine"}),  # no A
        ("rho0", {"preset": "gaussian", "params": {"x0": 0.0, "v0": 0.0}}),
        ("rho0", {"preset": "gaussian", "params": {"x0": 0.0, "v0": -1.0}}),
        # a centre or a target with more coordinates than the grid has axes
        ("rho0", {"preset": "gaussian", "params": {"x0": [0.0, 5.0], "v0": 1.0}}),
        ("rho0", {"preset": "bimodal-gaussian", "params": {"x0b": [2.0, 5.0]}}),
        ("cost", {"track_path": [[0.0, [0.0, 1.0]], [1.0, [0.3, 1.0]]], "theta": "tracking"}),
        *UNKNOWN_PARAMETERS,
        ("cost", {"theta": "quadratic-well"}),
    ],
)
def test_bad_presets_exit_one(tmp_path, section, entry):
    bad = dict(MINIMAL, **{section: entry})
    with pytest.raises(SchemaError, match=re.escape(f"{section}.{next(iter(entry))}")):
        parse_config(json.dumps(bad))
    cfgp = write_config(tmp_path, bad)
    assert run_command(["forward", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("section, entry", UNKNOWN_PARAMETERS)
def test_unknown_preset_parameter_is_named(section, entry):
    (key,) = entry["params"]
    with pytest.raises(SchemaError, match=re.escape(f"{section}.preset") + f".*no parameter '{key}'"):
        parse_config(json.dumps(dict(MINIMAL, **{section: entry})))


def test_coordinate_counts_follow_the_grid_in_2d():
    grid2 = {"dim": 2, "lo": [-6.0, -6.0], "hi": [6.0, 6.0], "n": [16, 16]}
    for x0 in (0.5, [0.5, -0.5]):
        cfg = dict(MINIMAL, grid=grid2, rho0={"preset": "gaussian", "params": {"x0": x0}})
        parse_config(json.dumps(cfg))
    cfg = dict(MINIMAL, grid=grid2, rho0={"preset": "gaussian", "params": {"x0": [0.5, -0.5, 1.0]}})
    with pytest.raises(SchemaError, match=re.escape("rho0.preset")):
        parse_config(json.dumps(cfg))
    for target, ok in ((0.3, True), ([0.3, 0.1], True), ([0.3, 0.1, 0.0], False)):
        cost = {"theta": "tracking", "track_path": [[0.0, target], [1.0, target]]}
        text = json.dumps(dict(MINIMAL, grid=grid2, cost=cost))
        if ok:
            parse_config(text)
        else:
            with pytest.raises(SchemaError, match=re.escape("cost.track_path")):
                parse_config(text)


@pytest.mark.parametrize(
    "section, patch",
    [
        ("control", {"control": {"u1": [0.1, 0.2, 0.3]}}),
        ("bounds", {"bounds": {"ua": [-1.0, -1.0, -1.0]}}),
        ("time", {"time": {"T": 1.0, "nt": "abc"}}),
        ("grid", {"grid": {"dim": 1, "lo": [-8.0], "hi": [8.0], "n": "abc"}}),
        ("output", {"output": {"stride": "x"}}),
        ("output", {"output": {"dir": 5}}),
        ("cost", {"cost": {"gamma": "x"}}),
        ("rho0", {"rho0": {"preset": "gaussian", "params": [1, 2]}}),
        ("cost", {"cost": {"theta": "tracking", "track_path": [[0.0], [1.0]]}}),
        # counts are JSON integers: no truncated fractions, no booleans
        ("grid", {"grid": {"dim": 1, "lo": [-8.0], "hi": [8.0], "n": [64.9]}}),
        ("time", {"time": {"T": 1.0, "nt": 32.7}}),
        ("output", {"output": {"stride": 1.9}}),
        ("solver", {"solver": {"max_substeps": 2.5}}),
        ("optim", {"optim": {"seeds": [0.5, 1]}}),
        ("optim", {"optim": {"max_iters": True}}),
        ("grid", {"grid": {"dim": 1.0, "lo": [-8.0], "hi": [8.0], "n": [64]}}),
        ("grid", {"grid": {"dim": True, "lo": [-8.0], "hi": [8.0], "n": [64]}}),
    ],
)
def test_malformed_config_exits_one(tmp_path, capsys, section, patch):
    bad = dict(MINIMAL, **patch)
    with pytest.raises(SchemaError, match=f"^{section}"):
        parse_config(json.dumps(bad))
    cfgp = write_config(tmp_path, bad)
    assert run_command(["forward", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {section}")
    assert "Traceback" not in err


def test_parse_rejects_invalid_json():
    with pytest.raises(SchemaError):
        parse_config("{not json")


def test_forward_command_writes_artifacts(tmp_path):
    cfgp = write_config(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    assert run_command(["forward", "--config", cfgp, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert abs(report["mass_final"] - 1.0) < 1e-12
    assert (tmp_path / "out" / "trajectory_summary.csv").exists()
    assert (tmp_path / "out" / "resolved_config.json").exists()
    snaps = os.listdir(tmp_path / "out" / "snapshots")
    assert len(snaps) == 33


def test_missing_config_exits_one(tmp_path, capsys):
    assert run_command(["forward", "--config", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert "missing.json" in err


def test_schema_error_exits_one(tmp_path):
    bad = dict(MINIMAL)
    bad["cost"] = {"gamma": -1.0}
    cfgp = write_config(tmp_path, bad)
    assert run_command(["forward", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1


def test_numerical_failure_exits_two_with_diagnostic(tmp_path):
    cfg = dict(MINIMAL)
    cfg["control"] = {"u1": 0.0, "u2": 3.0}
    cfg["solver"] = {"scheme": "upwind-fv", "cfl": 0.9, "max_substeps": 1}
    cfgp = write_config(tmp_path, cfg)
    out = str(tmp_path / "o")
    assert run_command(["forward", "--config", cfgp, "--out", out]) == 2
    diag = json.loads((tmp_path / "o" / "report.json").read_text())
    assert diag["error"] == "CflUnderflow"


def test_cost_grad_and_adjoint_commands(tmp_path):
    cfg = dict(MINIMAL)
    cfg["cost"] = {
        "gamma": 0.5,
        "theta": "tracking",
        "phi": "gaussian-well",
        "track_path": [[0.0, 0.0], [1.0, 0.3]],
    }
    cfg["control"] = {"u1": 0.2, "u2": 0.1}
    cfgp = write_config(tmp_path, cfg)
    out = str(tmp_path / "o")
    assert run_command(["cost", "--config", cfgp, "--out", out]) == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["cost"] > 0.0
    assert run_command(["grad", "--config", cfgp, "--out", out]) == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert {"cost", "grad_l2_norm", "vi_residual", "kkt", "ibp_discrepancy"} <= set(rep)
    grad = read_control_csv(os.path.join(out, "control_gradient.csv"))
    assert grad.timegrid.nt == 32
    assert run_command(["adjoint", "--config", cfgp, "--out", out]) == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["l2_terminal"] > 0.0


def test_grad_check_reports_slope(tmp_path):
    cfg = dict(MINIMAL)
    cfg["grid"] = {"dim": 1, "lo": [-8.0], "hi": [8.0], "n": [128]}
    cfg["time"] = {"T": 1.0, "nt": 64}
    cfg["rho0"] = {"preset": "gaussian", "params": {"x0": 2.0, "v0": 0.5}}
    cfg["cost"] = {
        "gamma": 0.2,
        "theta": "tracking",
        "phi": "gaussian-well",
        "track_path": [[0.0, 2.0], [1.0, 1.5]],
    }
    cfgp = write_config(tmp_path, cfg)
    out = str(tmp_path / "o")
    assert run_command(["grad-check", "--config", cfgp, "--out", out]) == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert "slope" in rep
    assert rep["fd_rel_err"] < 0.1


def test_optimize_command_deterministic(tmp_path):
    cfg = dict(MINIMAL)
    cfg["cost"] = {
        "gamma": 0.2,
        "theta": "tracking",
        "phi": "gaussian-well",
        "track_path": [[0.0, 0.0], [1.0, 0.3]],
    }
    cfg["optim"] = {"max_iters": 25, "vi_tol": 5e-3, "step0": 2.0}
    cfg["solver"] = {"scheme": "muscl-fv"}
    cfgp = write_config(tmp_path, cfg)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_command(["optimize", "--config", cfgp, "--out", out1]) == 0
    assert run_command(["optimize", "--config", cfgp, "--out", out2]) == 0
    b1 = (tmp_path / "a" / "iterations.csv").read_bytes()
    b2 = (tmp_path / "b" / "iterations.csv").read_bytes()
    assert b1 == b2
    f1 = (tmp_path / "a" / "control_final.csv").read_bytes()
    f2 = (tmp_path / "b" / "control_final.csv").read_bytes()
    assert f1 == f2
    rep = json.loads((tmp_path / "a" / "report.json").read_text())
    assert rep["termination"] in ("converged", "max_iters")


def test_multistart_command(tmp_path):
    cfg = dict(MINIMAL)
    cfg["optim"] = {"max_iters": 15, "vi_tol": 1e-8, "seeds": [0, 1, 2]}
    cfgp = write_config(tmp_path, cfg)
    out = str(tmp_path / "o")
    assert run_command(["multistart", "--config", cfgp, "--out", out]) == 0
    rep = json.loads((tmp_path / "o" / "multistart_report.json").read_text())
    assert rep["max_pairwise_distance"] == 0.0
    assert rep["within_tol"]


def test_oracle_compare_command(tmp_path):
    cfg = dict(MINIMAL)
    cfg["grid"] = {"dim": 1, "lo": [-8.0], "hi": [8.0], "n": [128]}
    cfg["time"] = {"T": 1.0, "nt": 128}
    cfg["control"] = {"u1": 0.0, "u2": 0.5}
    cfgp = write_config(tmp_path, cfg)
    out = str(tmp_path / "o")
    assert run_command(["oracle-compare", "--config", cfgp, "--out", out]) == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["resolutions"] == [32, 64, 128]
    assert rep["order"] >= 0.8
    # non-integrable drift is a numerical failure, exit code 2
    cfg["a0"] = {"preset": "gaussian-bump", "params": {"c": [0.5], "sigma": 1.0}}
    cfgp2 = write_config(tmp_path, cfg, name="cfg2.json")
    assert run_command(["oracle-compare", "--config", cfgp2, "--out", out]) == 2



def test_oracle_compare_covers_the_rotation_scenario(tmp_path):
    # confining-2d has a0 = rotation, a non-diagonal affine part
    out = str(tmp_path / "o")
    assert run_command(["oracle-compare", "--config", scenario_path("confining-2d"), "--out", out]) == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["resolutions"] == [12, 24, 48]
    assert rep["errors"][0] > rep["errors"][1] > rep["errors"][2]

def test_certify_command(tmp_path):
    cfg = dict(MINIMAL)
    cfg["control"] = {"u1": 0.3, "u2": 0.2}
    cfgp = write_config(tmp_path, cfg)
    out = str(tmp_path / "o")
    assert run_command(["certify", "--config", cfgp, "--out", out]) == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["energy_all_passed"]
    assert set(rep["energy_certificates"]) == {"m0k0", "m0k2", "m1k0", "m1k2"}
    assert rep["leak"] < 1e-6
    assert "smallness_ratio" in rep


def _run_diagnostics(tmp_path, potential, stride):
    cfg = dict(MINIMAL, control={"u1": 0.3, "u2": 0.2}, output={"stride": stride},
               cost={"theta": potential, "phi": potential})
    cfgp = write_config(tmp_path, cfg, name=f"{potential}-{stride}.json")
    out = {}
    for command in ("forward", "adjoint", "certify"):
        o = tmp_path / f"{potential}-{stride}-{command}"
        assert run_command([command, "--config", cfgp, "--out", str(o)]) == 0
        out[command] = (
            json.loads((o / "report.json").read_text()),
            (o / "trajectory_summary.csv").read_text(),
        )
    return out


def test_weighted_norm_columns_do_not_depend_on_stride(tmp_path):
    dense = _run_diagnostics(tmp_path, "quadratic", 1)
    strided = _run_diagnostics(tmp_path, "quadratic", 8)
    for command in ("forward", "adjoint", "certify"):
        assert strided[command] == dense[command]
    report, csv = dense["adjoint"]
    assert report["neg_k"] == 3
    assert csv.splitlines()[0] == "t,l2,h0_negk"
    column = [float(line.split(",")[2]) for line in csv.splitlines()[1:]]
    assert len(column) == 33
    assert report["h0_negk_max"] == max(column) > 0.0
    assert dense["forward"][1].splitlines()[0] == "t,mass,min,l2,h0k2"
    assert dense["certify"][0]["adjoint_certificate"]["neg_k"] == 3


def test_no_negative_weight_norm_without_confining_potentials(tmp_path):
    out = _run_diagnostics(tmp_path, "gaussian-well", 1)
    report, csv = out["adjoint"]
    assert not {"neg_k", "h0_negk_max"} & set(report)
    assert csv.splitlines()[0] == "t,l2"
    assert "adjoint_certificate" not in out["certify"][0]
    assert out["forward"][1].splitlines()[0] == "t,mass,min,l2,h0k2"


def test_all_scenarios_parse_and_match_commands():
    for name in ("gaussian-tracking-1d", "bimodal-stabilize-1d", "confining-2d", "sparse-ladder"):
        cfg = load_scenario(name)
        assert cfg.timegrid.nt >= 2
        assert os.path.exists(scenario_path(name))
    assert set(COMMANDS) == {
        "forward", "adjoint", "cost", "grad", "grad-check",
        "optimize", "multistart", "oracle-compare", "certify",
    }
