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
    ],
)
def test_bad_presets_exit_one(tmp_path, section, entry):
    bad = dict(MINIMAL, **{section: entry})
    with pytest.raises(SchemaError, match=re.escape(f"{section}.preset")):
        parse_config(json.dumps(bad))
    cfgp = write_config(tmp_path, bad)
    assert run_command(["forward", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1


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


def test_all_scenarios_parse_and_match_commands():
    for name in ("gaussian-tracking-1d", "bimodal-stabilize-1d", "confining-2d", "sparse-ladder"):
        cfg = load_scenario(name)
        assert cfg.timegrid.nt >= 2
        assert os.path.exists(scenario_path(name))
    assert set(COMMANDS) == {
        "forward", "adjoint", "cost", "grad", "grad-check",
        "optimize", "multistart", "oracle-compare", "certify",
    }
