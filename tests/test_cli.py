import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from liouville_control import (
    ControlPath,
    NonFinite,
    SchemaError,
    kkt_residual,
    path_dot,
    reduced_gradient,
    sample_function,
    smallness_certificate,
)
from liouville_control.cli import (
    _DEFAULTS,
    _DISPATCH,
    COMMANDS,
    _grad_check_direction,
    load_scenario,
    parse_config,
    run_command,
    scenario_path,
)
from liouville_control.fileio import read_control_csv
import liouville_control.forward as forward_module
from liouville_control.grid import _block_nodes, weighted_sobolev_norm


MINIMAL = {
    "grid": {"dim": 1, "lo": [-8.0], "hi": [8.0], "n": [64]},
    "time": {"T": 1.0, "nt": 32},
}
GRID2 = {"dim": 2, "lo": [-6.0, -6.0], "hi": [6.0, 6.0], "n": [16, 16]}


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_parse_minimal_resolves_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    prob = cfg.problem()
    assert cfg.rho0[0] == "gaussian"
    assert prob.cost.gamma == 1.0
    assert prob.scheme == "upwind-fv"
    assert cfg.stride == 1
    assert cfg.resolved["bounds"]["ua"] == [-1.0, -1.0]


# every key away from its default: per-axis lists, integers where numbers
# belong, a source, a tracking path and both constants
FULL = {
    "grid": {"dim": 2, "lo": [-6, -5.0], "hi": [6.0, 5.5], "n": [16, 12]},
    "time": {"T": 0.5, "nt": 8},
    "rho0": {"preset": "gaussian", "params": {"x0": [0.5, -0.25], "v0": 0.4}},
    "source": {"preset": "constant", "params": {"c": 0.01}},
    "a0": {"preset": "rotation", "params": {"omega": 0.5}},
    "control": {"u1": [0.1, -0.2], "u2": [0.05, 0]},
    "cost": {
        "gamma": 0.5, "delta": 0.01, "nu": 0.02, "theta": "tracking", "phi": "quadratic",
        "track_path": [[0.0, [0.0, 0.1]], [0.5, [0.2, 0.3]]],
    },
    "bounds": {"ua": [-1.0, -2.0, -0.5, -0.5], "ub": [1.0, 2.0, 0.5, 0.75]},
    "optim": {"max_iters": 7, "step0": 0.25, "vi_tol": 0.01, "seeds": [3, 5]},
    "solver": {"scheme": "muscl-fv", "cfl": 0.5, "max_substeps": 64},
    "output": {"dir": "out-full", "stride": 4},
    "constants": {"C_universal": 0.5, "C_cert": 3},
}

# its echo, pinned so that a change to a default or to the conversion of a
# value shows: numbers as floats, counts as integers, params as given
FULL_RESOLVED = {
    "a0": {"params": {"omega": 0.5}, "preset": "rotation"},
    "bounds": {"ua": [-1.0, -2.0, -0.5, -0.5], "ub": [1.0, 2.0, 0.5, 0.75]},
    "constants": {"C_cert": 3.0, "C_universal": 0.5},
    "control": {"u1": [0.1, -0.2], "u2": [0.05, 0.0]},
    "cost": {
        "delta": 0.01, "gamma": 0.5, "nu": 0.02, "phi": "quadratic",
        "theta": "tracking", "track_path": [[0.0, [0.0, 0.1]], [0.5, [0.2, 0.3]]],
    },
    "grid": {"dim": 2, "hi": [6.0, 5.5], "lo": [-6.0, -5.0], "n": [16, 12]},
    "optim": {"max_iters": 7, "seeds": [3, 5], "step0": 0.25, "vi_tol": 0.01},
    "output": {"dir": "out-full", "stride": 4},
    "rho0": {"params": {"v0": 0.4, "x0": [0.5, -0.25]}, "preset": "gaussian"},
    "solver": {"cfl": 0.5, "max_substeps": 64, "scheme": "muscl-fv"},
    "source": {"params": {"c": 0.01}, "preset": "constant"},
    "time": {"T": 0.5, "nt": 8},
}

SCENARIOS = ("gaussian-tracking-1d", "bimodal-stabilize-1d", "confining-2d", "sparse-ladder")


def test_resolved_echo_of_a_config_that_sets_every_key(tmp_path):
    cfgp = write_config(tmp_path, FULL)
    assert run_command(["cost", "--config", cfgp, "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "resolved_config.json").read_text()
    assert text == json.dumps(FULL_RESOLVED, indent=2, sort_keys=True) + "\n"


def test_parse_roundtrip_of_resolved_config():
    configs = [json.dumps(MINIMAL), json.dumps(FULL)]
    for name in SCENARIOS:
        with open(scenario_path(name)) as fh:
            configs.append(fh.read())
    for text in configs:
        cfg = parse_config(text)
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


# the solve settings: the solver section and output.stride, each given as
# the sections it replaces
@pytest.mark.parametrize(
    "solver, key",
    [
        ({"solver": {"cfl": -1.0}}, "solver.cfl"),
        ({"solver": {"cfl": 0.0}}, "solver.cfl"),
        ({"solver": {"cfl": float("inf")}}, "solver.cfl"),
        ({"solver": {"max_substeps": 0}}, "solver.max_substeps"),
        ({"solver": {"scheme": "weno"}}, "solver.scheme"),
        ({"output": {"stride": 0}}, "output.stride"),
    ],
)
def test_bad_solver_settings_exit_one(tmp_path, solver, key):
    bad = dict(MINIMAL, **solver)
    with pytest.raises(SchemaError, match=re.escape(key)):
        parse_config(json.dumps(bad))
    cfgp = write_config(tmp_path, bad)
    assert run_command(["forward", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1


# the line search's constants and the one L1 norm are no keys: any value,
# the old default included, is an unknown key
@pytest.mark.parametrize(
    "section, key, old_default", [("optim", "c1", 1e-4), ("optim", "backtrack", 0.5), ("cost", "l1_norm", "component")]
)
def test_removed_keys_exit_one(tmp_path, capsys, section, key, old_default):
    cfgp = write_config(tmp_path, dict(MINIMAL, **{section: {key: old_default}}))
    assert run_command(["forward", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"configuration error: unknown key '{section}.{key}'\n"


def test_readme_configuration_block_names_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```\n(grid\{.*?)```", readme, re.S).group(1)
    assert re.findall(r"(\w+)\{([^}]*)\}", block) == [(s, ",".join(keys)) for s, keys in _DEFAULTS.items()]


# preset parameters that the named preset does not take
UNKNOWN_PARAMETERS = [
    ("rho0", {"preset": "gaussian", "params": {"xo": 1.0}}),
    ("a0", {"preset": "constant", "params": {"B": 1.0}}),
    ("rho0", {"preset": "gaussian", "params": {"sigma": 3}}),
]

# preset parameters that are not finite numbers or lists of them: a bool, a
# string, a number that JSON reads as inf
WRONG_KIND_PARAMETERS = [
    ("rho0", {"preset": "constant", "params": {"c": True}}),
    ("rho0", {"preset": "gaussian", "params": {"x0": "0.5"}}),
    ("rho0", {"preset": "gaussian", "params": {"v0": 1e400}}),
    ("a0", {"preset": "affine", "params": {"A": [[True]]}}),
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
        # the L1 term is the componentwise norm, which the proximal step
        # solves; cost.l1_norm is no key
        ("cost", {"l1_norm": "euclidean"}),
        ("cost", {"theta": "tracking"}),  # no track_path
        ("cost", {"phi": "tracking"}),
        # a track that no potential tracks
        ("cost", {"track_path": [[0.0, 0.0], [1.0, 0.5]], "theta": "quadratic"}),
        # a bump without a positive width
        ("a0", {"preset": "gaussian-bump", "params": {"c": 0.5, "sigma": 0.0}}),
        ("a0", {"preset": "gaussian-bump", "params": {"c": 0.5, "sigma": -1.5}}),
        ("a0", {"preset": "gaussian-bump", "params": {"c": 0.5, "sigma": float("nan")}}),
        *WRONG_KIND_PARAMETERS,
        # finite parameters whose a0 overflows on the grid
        ("a0", {"preset": "affine", "params": {"A": [[1e308]]}}),
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


@pytest.mark.parametrize(
    "section, entry, grid",
    [(section, entry, MINIMAL["grid"]) for section, entry in WRONG_KIND_PARAMETERS]
    + [("a0", {"preset": "rotation", "params": {"omega": "2"}}, GRID2)],
)
def test_a_preset_parameter_of_the_wrong_kind_is_named(tmp_path, capsys, section, entry, grid):
    (key,) = entry["params"]
    cfgp = write_config(tmp_path, dict(MINIMAL, grid=grid, **{section: entry}))
    assert run_command(["cost", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert re.match(f"configuration error: {section}.preset .*parameter '{key}' must be a finite number", err), err


@pytest.mark.parametrize("preset", ["gaussian", "bimodal-gaussian", "constant", "zero"])
def test_density_preset_without_params_takes_its_own_defaults(tmp_path, preset):
    cfg = parse_config(json.dumps(dict(MINIMAL, rho0={"preset": preset})))
    assert cfg.resolved["rho0"] == {"preset": preset, "params": {}}
    grid = cfg.problem().grid
    assert np.array_equal(cfg.problem().rho0.values, sample_function(grid, preset).values)
    if preset == "gaussian":
        given = sample_function(grid, "gaussian", {"x0": 0.0, "v0": 1.0})
        assert np.array_equal(cfg.problem().rho0.values, given.values)
    cfgp = write_config(tmp_path, dict(MINIMAL, rho0={"preset": preset}))
    assert run_command(["cost", "--config", cfgp, "--out", str(tmp_path / "o")]) == 0


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


def test_a_one_coordinate_track_is_used_on_every_axis(tmp_path):
    # a 2D tracking cost whose track gives one coordinate per point has the
    # bits of the same track given on both axes
    grid2 = {"dim": 2, "lo": [-6.0, -6.0], "hi": [6.0, 6.0], "n": [16, 16]}
    costs = []
    for track in ([[0.0, 0.5], [1.0, -0.5]], [[0.0, [0.5, 0.5]], [1.0, [-0.5, -0.5]]]):
        cfg = dict(MINIMAL, grid=grid2, control={"u1": [0.1, -0.1]}, cost={"theta": "tracking", "track_path": track})
        out = tmp_path / f"o{len(costs)}"
        assert run_command(["cost", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        costs.append((parse_config(json.dumps(cfg)).problem().cost.theta, json.loads((out / "report.json").read_text())))
    assert costs[0] == costs[1]


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
        # numbers are finite JSON numbers: no NaN, no Infinity, no strings or booleans
        ("control.u1", {"control": {"u1": float("nan")}}),
        ("control.u1", {"control": {"u1": "0.3"}}),
        ("bounds.ua", {"bounds": {"ua": float("nan")}}),
        ("bounds.ub", {"bounds": {"ub": float("inf")}}),
        ("cost.delta", {"cost": {"delta": float("nan")}}),
        ("cost.nu", {"cost": {"nu": float("nan")}}),
        ("cost.gamma", {"cost": {"gamma": float("inf")}}),
        ("cost.gamma", {"cost": {"gamma": "2"}}),
        ("cost.gamma", {"cost": {"gamma": True}}),
        ("cost.track_path", {"cost": {"theta": "tracking", "track_path": [[0.0, float("nan")], [1.0, 0.3]]}}),
        ("cost.track_path", {"cost": {"theta": "tracking", "track_path": [[float("nan"), 0.0], [1.0, 0.3]]}}),
        ("cost.track_path", {"cost": {"theta": "tracking", "track_path": [[0.0, "0.1"], [1.0, 0.3]]}}),
        # a given track_path is checked even when no potential tracks it
        ("cost.track_path", {"cost": {"track_path": [[0.0, float("nan")], [1.0, 0.0]]}}),
        ("cost.track_path", {"cost": {"theta": "zero", "track_path": "abc"}}),
        ("cost.track_path", {"cost": {"track_path": 5}}),
        ("constants.C_cert", {"constants": {"C_cert": float("nan")}}),
        ("constants.C_universal", {"constants": {"C_universal": None}}),
        ("optim.vi_tol", {"optim": {"vi_tol": float("inf")}}),
        ("solver.cfl", {"solver": {"cfl": True}}),
        ("time.T", {"time": {"T": "1.0", "nt": 32}}),
        ("time.T", {"time": {"T": float("nan"), "nt": 32}}),
        # counts whose arrays no machine could hold, named before any is made
        ("time.nt", {"time": {"T": 1.0, "nt": 10**400}}),
        ("time.nt", {"time": {"T": 1.0, "nt": 2**62}}),
        ("grid.n", {"grid": {"dim": 1, "lo": [-8.0], "hi": [8.0], "n": [10**400]}}),
        ("grid.n", {"grid": {"dim": 2, "lo": [-8.0], "hi": [8.0], "n": [64, 10**400]}}),
        # values of the right kind out of range: a negative count, a seed
        # numpy cannot take, one seed for a multistart, constants of the
        # wrong sign
        ("optim", {"optim": {"max_iters": -3}}),
        ("optim", {"optim": {"seeds": [-1, 2]}}),
        ("optim", {"optim": {"seeds": [3]}}),
        ("constants.C_cert", {"constants": {"C_cert": -1.0}}),
        ("constants.C_universal", {"constants": {"C_universal": 0.0}}),
        ("constants.C_universal", {"constants": {"C_universal": -0.5}}),
        # a repeated seed reruns one start: its distance 0 proves nothing
        ("optim: seeds", {"optim": {"seeds": [3, 3]}}),
        # a section that is not an object, a required key left out
        ("section 'time' must be an object", {"time": [1.0, 32]}),
        ("section 'cost' must be an object", {"cost": "zero"}),
        ("missing key 'time.nt'", {"time": {"T": 1.0}}),
        ("missing key 'grid.n'", {"grid": {"dim": 1, "lo": [-8.0], "hi": [8.0]}}),
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


@pytest.mark.parametrize(
    "key, patch, needs",
    [
        ("control.u1", {"control": {"u1": [0.1, 0.2, 0.3]}}, "needs 1 or grid.dim = 1 values, got 3"),
        ("control.u2", {"grid": GRID2, "control": {"u2": [0.1, 0.2, 0.3]}}, "needs 1 or grid.dim = 2 values, got 3"),
        ("bounds.ub", {"bounds": {"ub": [1.0, 1.0, 1.0]}}, "needs 1 or 2 * grid.dim = 2 values, got 3"),
        ("bounds.ua", {"grid": GRID2, "bounds": {"ua": [-1.0, -1.0]}}, "needs 1 or 2 * grid.dim = 4 values, got 2"),
        # a node without its point, a bare number, a node with a third entry
        # (which was dropped without a word)
        ("cost.track_path[1]", {"cost": {"theta": "tracking", "track_path": [[0.0, 0.0], [1.0]]}},
         "a node must be [t, x], a time and a point, got [1.0]"),
        ("cost.track_path[0]", {"cost": {"theta": "tracking", "track_path": [0.0, [1.0, 0.5]]}},
         "a node must be [t, x], a time and a point, got 0.0"),
        ("cost.track_path[0]", {"cost": {"theta": "tracking", "track_path": [[0.0, 0.0, 5.0], [1.0, 0.5]]}},
         "a node must be [t, x], a time and a point, got [0.0, 0.0, 5.0]"),
    ],
)
def test_a_value_of_the_wrong_shape_names_its_key_and_needs(tmp_path, capsys, key, patch, needs):
    bad = dict(MINIMAL, **patch)
    with pytest.raises(SchemaError, match=f"^{re.escape(key)}.*{re.escape(needs)}$"):
        parse_config(json.dumps(bad))
    assert run_command(["cost", "--config", write_config(tmp_path, bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key}") and "Traceback" not in err


BIG = "1" + "0" * 400  # a JSON integer too large for a float


@pytest.mark.parametrize(
    "key, section",
    [
        # Python's json reads 1e999 as inf
        ("optim.step0", '"optim": {"step0": 1e999}'),
        ("cost.gamma", f'"cost": {{"gamma": {BIG}}}'),
        ("time.T", f'"time": {{"T": {BIG}, "nt": 32}}'),
        ("bounds.ua", f'"bounds": {{"ua": -{BIG}}}'),
        ("cost.track_path", f'"cost": {{"theta": "tracking", "track_path": [[0, {BIG}], [1, 0]]}}'),
    ],
)
def test_overflowing_number_exits_one(tmp_path, capsys, key, section):
    base = {name: sec for name, sec in MINIMAL.items() if name != key.split(".")[0]}
    text = json.dumps(base)[:-1] + f", {section}}}"
    with pytest.raises(SchemaError, match=f"^{re.escape(key)}"):
        parse_config(text)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(text)
    assert run_command(["forward", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key}")
    assert "Traceback" not in err


def test_parse_rejects_invalid_json():
    with pytest.raises(SchemaError):
        parse_config("{not json")
    for text in ("[1, 2]", "3", '"grid"'):
        with pytest.raises(SchemaError, match="^configuration must be a JSON object$"):
            parse_config(text)


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


def test_an_output_directory_that_cannot_be_made_exits_one(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfgp = write_config(tmp_path, MINIMAL)
    assert run_command(["cost", "--config", cfgp, "--out", str(blocker / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write to '{blocker / 'o'}'") and "Traceback" not in err


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
    assert set(rep["kkt"]) == {"stationarity", "vi_residual"}
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


# a 1D tracking run whose box pins u2 at 0
PINNED = dict(
    MINIMAL, grid={"dim": 1, "lo": [-8.0], "hi": [8.0], "n": [128]}, time={"T": 1.0, "nt": 64},
    bounds={"ua": [-1.0, 0.0], "ub": [1.0, 0.0]}, solver={"scheme": "muscl-fv"},
    cost={"gamma": 0.2, "theta": "tracking", "phi": "gaussian-well", "track_path": [[0.0, 0.0], [1.0, 0.3]]},
)


def test_probes_take_a_tenth_of_each_component_width(tmp_path):
    # a pinned component is not probed, and the others still are: grad-check
    # moves u1 alone and meets criterion 06's slope band, and oracle-compare
    # runs the zero drift at u1 = 0.2, u2 = 0
    direction = _grad_check_direction(parse_config(json.dumps(PINNED)).problem())
    assert np.all(direction.u2 == 0.0) and direction.u1.max() == 0.2
    cfgp = write_config(tmp_path, PINNED)
    reports = {}
    for command in ("grad-check", "oracle-compare"):
        assert run_command([command, "--config", cfgp, "--out", str(tmp_path / command)]) == 0
        reports[command] = json.loads((tmp_path / command / "report.json").read_text())
    assert 1.8 <= reports["grad-check"]["slope"] <= 2.2
    assert reports["grad-check"]["fd_rel_err"] < 1e-4
    assert reports["oracle-compare"]["control"] == {"u1": [0.2], "u2": [0.0]}
    assert reports["oracle-compare"]["order"] > 1.0


def test_grad_check_pairs_an_h1_gradient_in_the_h1_metric(tmp_path):
    # with nu > 0 the gradient is the H1tilde representative, and grad-check
    # pairs it as gamma <g, d> + nu <g', d'> with the exact slopes
    cfg = dict(MINIMAL)
    cfg["cost"] = {
        "gamma": 0.5,
        "nu": 0.05,
        "theta": "tracking",
        "phi": "quadratic",
        "track_path": [[0.0, 0.0], [1.0, 0.5]],
    }
    cfgp = write_config(tmp_path, cfg)
    assert run_command(["grad-check", "--config", cfgp, "--out", str(tmp_path / "o")]) == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    prob = parse_config(json.dumps(cfg)).problem()
    tg = prob.timegrid
    ua, ub = prob.bounds.arrays()
    center = ControlPath.from_stacked(tg, np.tile(0.5 * (ua + ub), (tg.nt + 1, 1)))
    grad = reduced_gradient(center, prob)
    assert grad.metric == "H1tilde"
    g, d = grad.stacked(), _grad_check_direction(prob).stacked()
    slopes_g, slopes_d = np.diff(g, axis=0) / tg.dt, np.diff(d, axis=0) / tg.dt
    pairing = 0.5 * path_dot(tg, g, d) + 0.05 * float((slopes_g * slopes_d).sum() * tg.dt)
    assert rep["analytic_directional"] == pairing
    assert rep["analytic_directional"] != path_dot(tg, g, d)


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


TRACKING = dict(
    MINIMAL, control={"u1": 0.3, "u2": 0.2}, solver={"scheme": "muscl-fv"},
    cost={"gamma": 0.2, "theta": "tracking", "phi": "gaussian-well", "track_path": [[0.0, 0.0], [1.0, 0.3]]},
)


def _optimize_run(tmp_path, optim, name="o"):
    """Exit code, report and iterations.csv rows of ``optimize`` on TRACKING
    with ``optim``, and the VI recomputed at its control_final.csv."""
    cfg = dict(TRACKING, optim=optim)
    out = tmp_path / name
    code = run_command(["optimize", "--config", write_config(tmp_path, cfg, f"{name}.json"), "--out", str(out)])
    rows = [[float(v) for v in line.split(",")] for line in (out / "iterations.csv").read_text().splitlines()[1:]]
    prob = parse_config(json.dumps(cfg)).problem()
    final = read_control_csv(str(out / "control_final.csv"))
    vi = kkt_residual(final, prob, reduced_gradient(final, prob)).vi_residual
    return code, json.loads((out / "report.json").read_text()), rows, vi


@pytest.mark.parametrize("max_iters", [0, 2])
def test_optimize_reports_the_vi_of_the_returned_control(tmp_path, max_iters):
    # a run that stops at max_iters reports the VI at the control it returns,
    # not at the iterate before it (nor 0 after no iteration), and
    # iterations.csv ends at that control, with step 0
    code, rep, rows, vi = _optimize_run(tmp_path, {"max_iters": max_iters, "vi_tol": 1e-8, "step0": 2.0})
    assert code == 0
    assert rep["termination"] == "max_iters" and rep["iterations"] == max_iters
    assert rep["vi_residual"] == rep["kkt"]["vi_residual"] == vi > 0
    assert len(rows) == max_iters + 1
    assert rows[-1][2] == vi and rows[-1][3] == 0.0


def test_iterations_csv_ends_at_the_returned_control(tmp_path):
    # whatever ends the run, iterations.csv has one row per iterate and the
    # last is the returned control's; a run that meets vi_tol on the last
    # step max_iters allows has converged
    code, rep, rows, vi = _optimize_run(tmp_path, {"max_iters": 25, "vi_tol": 5e-3, "step0": 2.0}, "free")
    assert code == 0 and rep["termination"] == "converged" and rep["iterations"] > 0
    runs = {"converged": (code, rep, rows, vi)}
    runs["converged-at-max-iters"] = _optimize_run(
        tmp_path, {"max_iters": rep["iterations"], "vi_tol": 5e-3, "step0": 2.0}, "capped"
    )
    # vi_tol out of reach on this grid: the line search stalls first
    runs["linesearch-failure"] = _optimize_run(tmp_path, {"max_iters": 60, "vi_tol": 1e-12, "step0": 2.0}, "stall")
    for name, (code, rep, rows, vi) in runs.items():
        assert len(rows) >= 2, name
        assert rows[-1][2] == vi and rows[-1][3] == 0.0, name
        if name == "linesearch-failure":
            assert code == 2 and rep["error"] == "LinesearchFailure"
            assert f"after {len(rows) - 1} iterations (vi_residual {vi:.3e} >" in rep["message"]
        else:
            assert code == 0 and rep["termination"] == "converged", name
            assert len(rows) == rep["iterations"] + 1 and rep["vi_residual"] == vi, name
    assert runs["converged-at-max-iters"][1:] == runs["converged"][1:]


def test_multistart_command(tmp_path):
    cfg = dict(MINIMAL)
    cfg["optim"] = {"max_iters": 15, "vi_tol": 1e-8, "seeds": [0, 1, 2]}
    cfgp = write_config(tmp_path, cfg)
    out = str(tmp_path / "o")
    assert run_command(["multistart", "--config", cfgp, "--out", out]) == 0
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["report.json", "resolved_config.json"]
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["max_pairwise_distance"] == 0.0
    assert rep["within_tol"]


def test_multistart_and_certify_report_the_same_smallness(tmp_path):
    # both read constants.C_universal; here the ratio differs from C = 1's
    cfg = dict(MINIMAL, control={"u1": 0.3, "u2": 0.2}, constants={"C_universal": 0.5},
               cost={"gamma": 0.5, "theta": "tracking", "phi": "gaussian-well",
                     "track_path": [[0.0, 0.0], [1.0, 0.3]]},
               optim={"max_iters": 10, "vi_tol": 1e-3, "seeds": [0, 1]}, solver={"scheme": "muscl-fv"})
    cfgp = write_config(tmp_path, cfg)
    reports = {}
    for command in ("multistart", "certify"):
        assert run_command([command, "--config", cfgp, "--out", str(tmp_path / command)]) == 0
        rep = json.loads((tmp_path / command / "report.json").read_text())
        reports[command] = (rep["smallness_ratio"], rep["smallness_pass"])
    assert reports["multistart"] == reports["certify"]
    assert reports["multistart"][1] is False
    assert reports["multistart"][0] != smallness_certificate(parse_config(json.dumps(cfg)).problem()).smallness_ratio


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



@pytest.mark.parametrize("n", [64, 8])
def test_oracle_compare_writes_a_null_order_without_two_positive_errors(tmp_path, n):
    # zero drift at a zero control would transport nothing, so the run takes
    # grad-check's amplitude, a tenth of the box [-1, 1]'s width, on both
    # controls; a grid of 8 cells has one resolution and no order to fit
    cfg = dict(MINIMAL, grid={"dim": 1, "lo": [-8.0], "hi": [8.0], "n": [n]})
    out = str(tmp_path / "o")
    assert run_command(["oracle-compare", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["control"] == {"u1": [0.2], "u2": [0.2]}
    assert len(rep["resolutions"]) == len(rep["errors"]) == (3 if n == 64 else 1)
    assert all(e > 0.0 for e in rep["errors"])
    if n == 64:
        assert rep["order"] > 0.5
    else:
        assert rep["order"] is None


def test_oracle_compare_covers_the_rotation_scenario(tmp_path):
    # confining-2d has a0 = rotation, a non-diagonal affine part
    out = str(tmp_path / "o")
    assert run_command(["oracle-compare", "--config", scenario_path("confining-2d"), "--out", out]) == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["resolutions"] == [12, 24, 48]
    assert rep["errors"][0] > rep["errors"][1] > rep["errors"][2]

@pytest.mark.parametrize(
    "error, message",
    [
        (FloatingPointError("overflow encountered in exp"), "FloatingPointError: overflow encountered in exp"),
        (NonFinite("density not finite at step 3"), "density not finite at step 3"),
    ],
)
def test_a_failing_command_exits_two_with_a_diagnostic(tmp_path, capsys, monkeypatch, error, message):
    # a package error is its message alone; any other names its type
    def fail(cfg, out_dir):
        raise error

    monkeypatch.setitem(_DISPATCH, "cost", fail)
    out = tmp_path / "o"
    assert run_command(["cost", "--config", write_config(tmp_path, MINIMAL), "--out", str(out)]) == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep == {"error": type(error).__name__, "message": str(error), "command": "cost"}
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


@pytest.mark.parametrize("command, patch", [
    ("certify", {"bounds": {"ua": -600.0, "ub": 600.0}}),  # the growth factor overflows
    ("certify", {"bounds": {"ua": -500.0, "ub": 500.0}}),  # K overflows
    ("multistart", {"constants": {"C_universal": 1000.0}, "optim": {"max_iters": 2, "seeds": [0, 1]}}),
])
def test_a_smallness_certificate_past_the_float_range_is_null(tmp_path, command, patch):
    # K and the ratio are inf, written as null, and the certificate fails;
    # certify still reports its energy certificates
    out = tmp_path / "o"
    assert run_command([command, "--config", write_config(tmp_path, dict(PINNED, **patch)), "--out", str(out)]) == 0
    # strict JSON: no Infinity, no NaN
    rep = json.loads((out / "report.json").read_text(), parse_constant=lambda c: pytest.fail(f"{c} in the report"))
    assert rep["smallness_ratio"] is None and rep["smallness_pass"] is False
    if command == "certify":
        assert rep["smallness_K"] is None
        assert set(rep["energy_certificates"]) == {"m0k0", "m0k2", "m1k0", "m1k2"}


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


def _run_diagnostics(tmp_path, potential):
    cfg = dict(MINIMAL, control={"u1": 0.3, "u2": 0.2}, cost={"theta": potential, "phi": potential})
    cfgp = write_config(tmp_path, cfg, name=f"{potential}.json")
    out = {}
    for command in ("forward", "adjoint", "certify"):
        o = tmp_path / f"{potential}-{command}"
        assert run_command([command, "--config", cfgp, "--out", str(o)]) == 0
        out[command] = (
            json.loads((o / "report.json").read_text()),
            (o / "trajectory_summary.csv").read_text(),
        )
    return out


def test_weighted_norm_columns_with_confining_potentials(tmp_path):
    out = _run_diagnostics(tmp_path, "quadratic")
    report, csv = out["adjoint"]
    assert report["neg_k"] == 3
    assert csv.splitlines()[0] == "t,l2,h0_negk"
    column = [float(line.split(",")[2]) for line in csv.splitlines()[1:]]
    assert len(column) == 33
    assert report["h0_negk_max"] == max(column) > 0.0
    assert out["forward"][1].splitlines()[0] == "t,mass,min,l2,h0k2"
    assert out["certify"][0]["adjoint_certificate"]["neg_k"] == 3


# small MUSCL runs with a tracking running cost, the 2D one with a quadratic
# terminal cost, at stride 1 and at STRIDE, which divides neither nt
STRIDED = {
    1: dict(
        MINIMAL, time={"T": 1.0, "nt": 16}, control={"u1": 0.3, "u2": 0.2}, solver={"scheme": "muscl-fv"},
        cost={"gamma": 0.2, "theta": "tracking", "phi": "gaussian-well", "track_path": [[0.0, 0.0], [1.0, 0.3]]},
        optim={"max_iters": 3, "seeds": [0, 1]},
    ),
    2: {
        "grid": {"dim": 2, "lo": [-6.0, -6.0], "hi": [6.0, 6.0], "n": [16, 16]},
        "time": {"T": 0.5, "nt": 10},
        "rho0": {"preset": "gaussian", "params": {"x0": [1.0, -0.5], "v0": 0.5}},
        "a0": {"preset": "rotation", "params": {"omega": 1.0}},
        "control": {"u1": [0.1, -0.1], "u2": [0.05, 0.05]},
        "cost": {"theta": "tracking", "phi": "quadratic", "track_path": [[0.0, [1.0, -0.5]], [0.5, [0.5, 0.0]]]},
        "solver": {"scheme": "muscl-fv"},
        "optim": {"max_iters": 3, "seeds": [0, 1]},
    },
}
STRIDE = 3


def command_files(tmp_path, command, cfg, stride):
    """The bytes of every file but resolved_config.json that ``command``
    writes for ``cfg`` at ``stride``, by path in the output directory."""
    name = f"{command}-{stride}"
    config = write_config(tmp_path, dict(cfg, output={"stride": stride}), f"{name}.json")
    assert run_command([command, "--config", config, "--out", str(tmp_path / name)]) == 0
    out = tmp_path / name
    return {
        str(f.relative_to(out)): f.read_bytes()
        for f in sorted(out.rglob("*")) if f.is_file() and f.name != "resolved_config.json"
    }


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("command", COMMANDS)
def test_output_stride_thins_only_the_snapshots(tmp_path, command, dim):
    # output.stride reaches no solve: at a stride that divides neither nt,
    # forward and adjoint write their snapshots at node 0, every stride-th
    # node and node nt, each the stride-1 run's file, no other command
    # writes any, and every other file has the stride-1 run's bytes
    cfg = STRIDED[dim]
    nt = cfg["time"]["nt"]
    assert nt % STRIDE
    dense, strided = (command_files(tmp_path, command, cfg, s) for s in (1, STRIDE))
    prefix = {"forward": "rho", "adjoint": "q"}.get(command)

    def snapshots(nodes):
        return {os.path.join("snapshots", f"{prefix}_{n:06d}.csv") for n in nodes} if prefix else set()

    assert {name for name in dense if name.startswith("snapshots")} == snapshots(range(nt + 1))
    assert set(strided) == set(dense) - snapshots(range(nt + 1)) | snapshots({*range(0, nt + 1, STRIDE), nt})
    assert all(strided[name] == dense[name] for name in strided)


@pytest.mark.parametrize("scenario, stride", [
    ("bimodal-stabilize-1d", 8),
    ("bimodal-stabilize-1d", 7),  # 7 does not divide nt = 128
    ("confining-2d", 8),
])
def test_adjoint_files_do_not_depend_on_stride(tmp_path, scenario, stride):
    # on a shipped scenario's own grid, adjoint writes the snapshots at node
    # 0, every stride-th node and node nt, and every file it writes has the
    # stride-1 run's bytes
    with open(scenario_path(scenario)) as fh:
        cfg = json.load(fh)
    dense, strided = (command_files(tmp_path, "adjoint", cfg, s) for s in (1, stride))
    nt = load_scenario(scenario).problem().timegrid.nt
    assert sorted(n for n in strided if n.startswith("snapshots")) == [
        os.path.join("snapshots", f"q_{n:06d}.csv") for n in sorted({*range(0, nt + 1, stride), nt})
    ]
    assert len([n for n in dense if n.startswith("snapshots")]) == nt + 1
    assert strided == {name: dense[name] for name in strided}


def test_no_negative_weight_norm_without_confining_potentials(tmp_path):
    out = _run_diagnostics(tmp_path, "gaussian-well")
    report, csv = out["adjoint"]
    assert not {"neg_k", "h0_negk_max"} & set(report)
    assert csv.splitlines()[0] == "t,l2"
    assert "adjoint_certificate" not in out["certify"][0]
    assert out["forward"][1].splitlines()[0] == "t,mass,min,l2,h0k2"


@pytest.mark.parametrize("potential, passes", [
    ("gaussian-well", {
        "forward": [(0, 0), (0, 2)],
        "adjoint": [(0, 0)],
        "certify": [(0, 0), (0, 2), (0, 0), (0, 2), (1, 0), (1, 2)],
    }),
    ("quadratic", {
        "forward": [(0, 0), (0, 2)],
        "adjoint": [(0, 0), (0, -3)],
        "certify": [(0, 0), (0, 2), (0, 0), (0, 2), (1, 0), (1, 2), (0, -3)],
    }),
])
def test_dense_passes_per_command(tmp_path, monkeypatch, potential, passes):
    # each norm a command reads of the nodes is one pass over them, in
    # blocks of _block_nodes nodes (here all 33 nodes in one block): a
    # summary's l2 and h0k2 (the forward one's also in the summary
    # certify writes), each of certify's four energy certificates, and with
    # confining potentials the negative-weight norm of the adjoint summary
    # or certificate
    calls = []

    def counted(field, m, k):
        calls.append((m, k, len(field.values)))
        return weighted_sobolev_norm(field, m, k)

    monkeypatch.setattr(forward_module, "weighted_sobolev_norm", counted)
    cfg = dict(MINIMAL, control={"u1": 0.3, "u2": 0.2}, output={"stride": 4},
               cost={"theta": potential, "phi": potential})
    cfgp = write_config(tmp_path, cfg)
    assert _block_nodes(64) > 33
    counts = {}
    for command in passes:
        del calls[:]
        assert run_command([command, "--config", cfgp, "--out", str(tmp_path / command)]) == 0
        counts[command] = calls[:]
    assert counts == {command: [(m, k, 33) for m, k in norms] for command, norms in passes.items()}


def test_all_scenarios_parse_and_match_commands():
    for name in SCENARIOS:
        cfg = load_scenario(name)
        assert cfg.problem().timegrid.nt >= 2
        assert os.path.exists(scenario_path(name))
    assert set(COMMANDS) == {
        "forward", "adjoint", "cost", "grad", "grad-check",
        "optimize", "multistart", "oracle-compare", "certify",
    }
