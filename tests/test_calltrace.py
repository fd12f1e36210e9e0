"""Every name the benchmark's call tracer patches exists in the package.

``bench/calltrace.py`` wraps call sites by name when the benchmark runs with
``--trace 1``; a renamed or removed name would otherwise fail only a traced
benchmark run.  The tracer module is read, never changed.
"""

import importlib
import importlib.util
import inspect
import json
from collections import Counter
from pathlib import Path

CALLTRACE = Path(__file__).resolve().parent.parent / "bench" / "calltrace.py"


def load_calltrace():
    spec = importlib.util.spec_from_file_location("calltrace", CALLTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package():
    calltrace = load_calltrace()
    for site, names in calltrace.CALL_SITES.items():
        module = importlib.import_module(f"liouville_control.{site}")
        for attr in names:
            assert callable(getattr(module, attr, None)), f"{site}.{attr}"
    for (site, cls_name, attr) in calltrace.METHOD_SITES:
        cls = getattr(importlib.import_module(f"liouville_control.{site}"), cls_name, None)
        assert callable(getattr(cls, attr, None)), f"{site}.{cls_name}.{attr}"
    fileio = importlib.import_module("liouville_control.cli").fileio
    for attr in calltrace.FILEIO_WRITERS:
        assert callable(getattr(fileio, attr, None)), f"cli.fileio.{attr}"


def test_assembly_takes_the_trajectories_first():
    # the tracer's replay counters read (problem, traj_rho, traj_q) by position
    from liouville_control.reduced import assemble_integral_path

    params = list(inspect.signature(assemble_integral_path).parameters)
    assert params[:3] == ["problem", "traj_rho", "traj_q"]


def test_the_tracer_sees_every_forward_solve(monkeypatch, tmp_path):
    # every FV solve of a grad-check goes through a traced name, and the
    # traced substep count is that of the solves
    import liouville_control.forward as forward_module
    from liouville_control.cli import load_scenario, run_command, scenario_path

    calltrace = load_calltrace()
    solves = []
    solve = forward_module._solve

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        solves.append(sum((result[0] if isinstance(result, tuple) else result).substeps))
        return result

    monkeypatch.setattr(forward_module, "_solve", counted)
    tracer = calltrace.Tracer()
    cells = load_scenario("gaussian-tracking-1d").problem().grid.num_cells
    restore = calltrace.instrument(tracer, "liouville_control", cells)
    try:
        args = ["grad-check", "--config", scenario_path("gaussian-tracking-1d"), "--out", str(tmp_path)]
        assert run_command(args) == 0
    finally:
        restore()
    traced = sum(
        rec[calltrace.CALLS] for rec in tracer.records
        if rec[calltrace.NAME] in ("forward.solve_forward", "forward.solve_linearized")
    )
    assert solves and traced == len(solves)
    assert tracer.counters["forward.substeps"] == sum(solves)


def test_the_tracer_sees_the_adjoint_of_a_strided_grad(monkeypatch, tmp_path):
    # at output.stride 8 on bimodal-stabilize-1d (nt = 128), the one
    # assembly of a grad replays no step, as both solves keep every node,
    # and every adjoint solve goes through the traced name
    import liouville_control.adjoint as adjoint_module
    from liouville_control.cli import load_scenario, run_command, scenario_path

    calltrace = load_calltrace()
    made = []
    trace = adjoint_module._trace

    def counted(*args):
        made.append(1)
        return trace(*args)

    monkeypatch.setattr(adjoint_module, "_trace", counted)
    with open(scenario_path("bimodal-stabilize-1d")) as fh:
        cfg = json.load(fh)
    cfg["output"] = {"stride": 8}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    tracer = calltrace.Tracer()
    cells = load_scenario("bimodal-stabilize-1d").problem().grid.num_cells
    restore = calltrace.instrument(tracer, "liouville_control", cells)
    try:
        assert run_command(["grad", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        restore()
    traced = sum(rec[calltrace.CALLS] for rec in tracer.records if rec[calltrace.NAME] == "adjoint.solve_adjoint")
    assert made and traced == len(made)
    assert tracer.counters["adjoint.replay_steps"] == 0
    assert tracer.counters["forward.replay_steps"] == 0


def test_the_tracer_counts_the_running_cost_of_cost(monkeypatch, tmp_path):
    # ``cost`` on gaussian-tracking-1d tabulates theta once per block of
    # node times, in ``reduced``, and phi once, in ``adjoint``; the tracer
    # counts all of them under controls.potential_eval
    import liouville_control.reduced as reduced_module
    from liouville_control.cli import load_scenario, run_command, scenario_path
    from liouville_control.grid import _block_nodes

    calltrace = load_calltrace()
    theta_calls = []
    potential_eval = reduced_module.potential_eval

    def counted(*args):
        theta_calls.append(1)
        return potential_eval(*args)

    monkeypatch.setattr(reduced_module, "potential_eval", counted)
    problem = load_scenario("gaussian-tracking-1d").problem()
    tracer = calltrace.Tracer()
    restore = calltrace.instrument(tracer, "liouville_control", problem.grid.num_cells)
    try:
        args = ["cost", "--config", scenario_path("gaussian-tracking-1d"), "--out", str(tmp_path)]
        assert run_command(args) == 0
    finally:
        restore()
    calls = Counter()
    for rec in tracer.records:
        if rec[calltrace.NAME] == "controls.potential_eval":
            calls[rec[calltrace.SITE]] += rec[calltrace.CALLS]
    blocks = -(-(problem.timegrid.nt + 1) // _block_nodes(2 * problem.grid.num_cells))
    assert len(theta_calls) == blocks > 1
    assert calls == {"reduced": blocks, "adjoint": 1}
