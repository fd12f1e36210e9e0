"""Benchmark of the ``liouctl`` commands ``optimize``, ``grad`` and
``grad-check`` on three shipped scenarios.

    python3 bench/run.py --workload tracking-1d --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` there, never from an installed copy.  Every command goes through
``cli.run_command`` in this single process, with BLAS/OpenMP pinned to one
thread.  The seed picks one of ``STARTS`` starting controls inside the
workload's band; every one of them was run at the commit that wrote
``reference.json`` and converges.

With ``--trace 0`` the run repeats the commands until ``--seconds`` is spent
and reports the end-to-end metrics: the median time of each command and
the median set-up time of a fresh interpreter, each sample divided by the
machine slowdown that ``speedprobe.py`` measured around and during it; the
peak resident set; and the share of commands that passed their output
check.  The raw wall times are kept in the run record.  With ``--trace 1``
it runs each command once untraced, then repeats cycles of the three
commands with every call site wrapped (see ``calltrace.py``) and reports the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object; the full record of
the run, with the run environment, goes to ``bench/runs/``.  See
``bench/NOTES.md`` for why each workload exists and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is imported, here and in the set-up
# interpreters that inherit this environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import glob
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import calltrace
from speedprobe import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
PACKAGE = "liouville_control"

COMMANDS = ("optimize", "grad", "grad-check")
STARTS = 8
SETUP_REPEATS = 7
SLOPE_BAND = (1.8, 2.2)  # acceptance criterion 06
# admits the stride-independent objective (about 1e-6 relative on
# bimodal-replay at stride 8) and nothing larger
COST_RTOL = 1e-5
SLOPE_ATOL = 1e-3
SETUP_PROBES = 5
# per-layer values derived from other numbers rather than counted or timed
COMPUTED = ("forward.cell_updates", "forward.cell_updates_per_s", "forward.replay_steps",
            "adjoint.replay_steps", "reduced.forward_cache.hit_ratio", "optimize.backtracks",
            "trace.overhead_s")

# The start control is the scenario's control plus t * (du1, du2) on every
# axis, t in ``band``.  The bands keep the optimizer's iteration count fixed;
# bimodal-replay only contracts (du2 < 0), so no characteristic foot leaves
# the grid and the workload keeps making no off-grid marches.
WORKLOADS = {
    "tracking-1d": {
        "scenario": "gaussian-tracking-1d",
        "overrides": {},
        "direction": (1.0, -0.5),
        "band": (-0.005, 0.01),
        "slope_check": "band",
    },
    "confining-2d": {
        "scenario": "confining-2d",
        "overrides": {},
        "direction": (1.0, -0.5),
        "band": (-0.02, 0.02),
        # known defect: the MUSCL tangent gives a Taylor slope of 1.02 in 2D,
        # so the slope is held to its reference instead of the band
        "slope_check": "reference",
    },
    "bimodal-replay": {
        "scenario": "bimodal-stabilize-1d",
        "overrides": {"output": {"stride": 8}},
        "direction": (0.0, -1.0),
        "band": (0.0, 0.02),
        "slope_check": "band",
    },
}

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from liouville_control import cli
with open(sys.argv[2]) as fh:
    cfg = cli.parse_config(fh.read())
cfg.problem()
"""


def load_package():
    """Import the package from this checkout's ``src``."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no {PACKAGE} sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    importlib.import_module(PACKAGE)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if Path(cli.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SystemExit(f"error: {PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return cli


def start_offset(workload: str, index: int) -> float:
    lo, hi = WORKLOADS[workload]["band"]
    return lo + (hi - lo) * index / (STARTS - 1)


def write_config(cli, workload: str, index: int, work: Path) -> tuple[Path, dict]:
    """The scenario with the workload's overrides and the seeded start."""
    spec = WORKLOADS[workload]
    with open(cli.scenario_path(spec["scenario"])) as fh:
        raw = json.load(fh)
    for section, values in spec["overrides"].items():
        raw.setdefault(section, {}).update(values)
    dim = raw["grid"]["dim"]
    control = raw.setdefault("control", {})
    t = start_offset(workload, index)
    for key, step in zip(("u1", "u2"), spec["direction"]):
        base = control.get(key, 0.0)
        base = base if isinstance(base, list) else [base] * dim
        control[key] = [float(b) + t * step for b in base]
    work.mkdir(parents=True, exist_ok=True)
    path = work / "config.json"
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1)
    return path, raw


def run_command(cli, command: str, config: Path, out_dir: Path):
    """Exit code, wall seconds and report of one ``liouctl`` command."""
    start = time.perf_counter()
    code = cli.run_command([command, "--config", str(config), "--out", str(out_dir)])
    seconds = time.perf_counter() - start
    try:
        with open(out_dir / "report.json") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = {}
    return code, seconds, report


def check_output(workload: str, command: str, code: int, report: dict, ref: dict, vi_tol: float) -> list[str]:
    """Reasons the command's output is wrong; empty when it is right."""
    if code != 0:
        return [f"exit code {code}: {report.get('message', '')}"]
    problems = []
    if command == "optimize":
        if report["termination"] != "converged" or not report["vi_residual"] <= vi_tol:
            problems.append(f"terminated {report['termination']} at VI residual {report['vi_residual']:.3e}"
                            f" (vi_tol {vi_tol:.1e})")
    if command in ("optimize", "grad"):
        expect = ref[f"{command}_cost"]
        if not abs(report["cost"] - expect) <= COST_RTOL * abs(expect):
            problems.append(f"cost {report['cost']!r} differs from the reference {expect!r}"
                            f" by more than {COST_RTOL:g} relative")
    if command == "grad-check":
        slope = report["slope"]
        if WORKLOADS[workload]["slope_check"] == "band":
            if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
                problems.append(f"Taylor slope {slope:.4f} outside {SLOPE_BAND}")
        elif not abs(slope - ref["grad_check_slope"]) <= SLOPE_ATOL:
            problems.append(f"Taylor slope {slope:.4f} differs from the reference {ref['grad_check_slope']:.4f}")
    return problems


def measure_setup(config: Path, probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh interpreters importing the package, parsing the
    configuration and building the Problem, after one untimed warm-up that
    fills the bytecode cache; and the same divided by the slowdown that
    probe chunks just before and after each one measure."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)]
    subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        probe.sample(SETUP_PROBES)
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        probe.sample(SETUP_PROBES)
        scaled.append(times[-1] / probe.slowdown(probe.chunks[-2 * SETUP_PROBES:]))
    return times, scaled


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    """HEAD of the checkout, read from its ``.git`` without leaving it."""
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(str(ROOT / ".git" / ref))
    if sha is None:
        for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def environment() -> dict:
    import numpy as np

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(f"{index}/{f}") for f in ("level", "type", "size"))
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "cache_l2": caches.get("L2"),
        "cache_l3": caches.get("L3"),
        "git_sha": git_sha(),
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Session:
    """One workload at one seed: its configuration, reference and outputs."""

    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.index = seed % STARTS
        self.work = RUNS / "work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.config, raw = write_config(cli, workload, self.index, self.work)
        self.vi_tol = float(raw["optim"]["vi_tol"])
        self.cells = 1
        for n in raw["grid"]["n"]:
            self.cells *= int(n)
        with open(BENCH / "reference.json") as fh:
            table = json.load(fh)["workloads"][workload]
        self.ref = dict(table["starts"][self.index], grad_check_slope=table["grad_check_slope"])
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.inconsistent: list[str] = []

    def run(self, command: str, probe: SpeedProbe | None = None) -> tuple[float, float]:
        """Wall seconds of one checked command, and the same divided by the
        probe's slowdown when a probe is given."""
        def call():
            return run_command(self.cli, command, self.config, self.work / command)

        if probe is None:
            code, seconds, report = call()
            scaled = seconds
        else:
            (code, _, report), seconds, scaled = probe.timed(call)
        problems = check_output(self.workload, command, code, report, self.ref, self.vi_tol)
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{command}: {p}" for p in problems]
        status = "ok" if not problems else "FAILED " + "; ".join(problems)
        print(f"{self.workload} {command:10s} {seconds:8.3f} s  {status}", flush=True)
        return seconds, scaled


def untraced(session: Session, probe: SpeedProbe, seconds: float) -> tuple[dict, dict]:
    """Round-robin over the commands until the next one would overrun the
    budget; every command runs at least once.  Returns the wall-time
    samples and the same samples divided by the probe's slowdown."""
    samples = {c: [] for c in COMMANDS}
    scaled = {c: [] for c in COMMANDS}
    begin = time.perf_counter()
    ran = True
    while ran:
        ran = False
        for command in COMMANDS:
            spent = time.perf_counter() - begin
            if samples[command] and spent + statistics.median(samples[command]) > seconds:
                continue
            took, norm = session.run(command, probe)
            samples[command].append(took)
            scaled[command].append(norm)
            ran = True
    return samples, scaled


def layer_metrics(tracer: calltrace.Tracer) -> dict:
    """Per-layer values of one traced cycle (see NOTES.md for definitions)."""
    NAME, SITE, PARENT, CALLS, BUSY = (calltrace.NAME, calltrace.SITE, calltrace.PARENT,
                                       calltrace.CALLS, calltrace.BUSY)
    records = tracer.records
    calls = defaultdict(int)
    self_s = defaultdict(float)
    busy = defaultdict(float)
    for rec, own in zip(records, tracer.self_times()):
        keys = [rec[NAME]]
        if rec[NAME] == "controls.eval_drift":
            keys.append(f"controls.eval_drift.{rec[SITE]}")
        if rec[NAME].startswith("fileio.write"):
            keys.append("fileio.write")
        for key in keys:
            calls[key] += rec[CALLS]
            self_s[key] += own
            busy[key] += rec[BUSY]
    counters = tracer.counters

    lookups = calls["reduced.Problem.solve_forward_for"]
    misses = sum(rec[CALLS] for rec in records if rec[NAME] == "forward.solve_forward"
                 and rec[PARENT] >= 0 and records[rec[PARENT]][NAME] == "reduced.Problem.solve_forward_for")
    optimizer = {i for i, rec in enumerate(records) if rec[NAME] == "optimize.optimize"}
    line_search_costs = sum(rec[CALLS] for rec in records
                            if rec[NAME] == "reduced.reduced_cost" and rec[PARENT] in optimizer)
    forward_busy = busy["forward.solve_forward"] + busy["forward.solve_linearized"]

    out = {"fileio.bytes": counters["fileio.bytes"]}
    for name in ("forward.solve_forward", "adjoint.solve_adjoint", "controls.eval_drift.forward",
                 "controls.eval_drift.adjoint", "controls.potential_eval", "grid.weighted_sobolev_norm",
                 "reduced.reduced_cost", "reduced.reduced_gradient"):
        out[f"{name}.calls"] = calls[name]
    for name in ("cli.parse_config", "fileio.write", "forward.solve_forward", "forward.solve_linearized",
                 "adjoint.solve_adjoint", "controls.eval_drift.forward", "controls.eval_drift.adjoint",
                 "controls.potential_eval", "grid.interpolate_flagged", "grid.partial_derivative",
                 "grid.weighted_sobolev_norm", "reduced.reduced_cost", "reduced.assemble_integral_path",
                 "reduced.h1_riesz", "reduced.kkt_residual", "reduced.frechet_probe",
                 "oracles.fd_directional_derivative"):
        out[f"{name}.s"] = self_s[name]
    for name in ("forward.substeps", "forward.cell_updates", "forward.replay_steps", "adjoint.replay_steps",
                 "adjoint.offgrid_drift_evals", "adjoint.offgrid_points", "optimize.iterations",
                 "optimize.vi_final"):
        out[name] = counters[name]
    out["forward.cell_updates_per_s"] = counters["forward.cell_updates"] / forward_busy
    out["reduced.forward_cache.hit_ratio"] = (lookups - misses) / lookups
    out["optimize.backtracks"] = line_search_costs - len(optimizer) - counters["optimize.iterations"]
    return out


def traced(session: Session, seconds: float, units: dict) -> tuple[dict, dict]:
    """One untraced pass for the overhead, then traced cycles until the
    budget is spent (at least one).  Counts must repeat exactly between
    cycles; times are medians over cycles."""
    plain = {c: session.run(c)[0] for c in COMMANDS}
    spans_path = RUNS / f"{session.workload}-seed{session.seed}-spans.jsonl"
    spans_path.unlink(missing_ok=True)
    cycles = []
    accounting = []
    begin = time.perf_counter()
    while not cycles or time.perf_counter() - begin + accounting[-1]["cycle_s"] <= seconds:
        tracer = calltrace.Tracer()
        restore = calltrace.instrument(tracer, PACKAGE, session.cells)
        walls = {}
        try:
            for command in COMMANDS:
                tracer.run_id = f"{session.workload}/seed{session.seed}/cycle{len(cycles)}/{command}"
                tracer.enter("cli.run_command", "bench")
                try:
                    walls[command] = session.run(command)[0]
                finally:
                    tracer.exit()
        finally:
            restore()
        tracer.write(str(spans_path))
        values = layer_metrics(tracer)
        values["trace.overhead_s"] = walls["optimize"] - plain["optimize"]
        cycles.append(values)
        accounting.append(_accounting(tracer, plain, walls))

    report = {}
    for name, unit in units.items():
        series = [c[name] for c in cycles]
        if unit in ("count", "bytes"):
            if len(set(series)) != 1:
                session.inconsistent.append(f"count {name} differs between traced cycles: {series}")
            report[name] = series[0]
        else:
            report[name] = statistics.median(series)
    return report, {"cycles": cycles, "accounting": accounting}


def _accounting(tracer: calltrace.Tracer, plain: dict, walls: dict) -> dict:
    """Per command: untraced wall, traced wall, the summed self time of every
    span of the traced command, and the part of it inside named layers."""
    per = {}
    for command in COMMANDS:
        per[command] = {"untraced_s": plain[command], "traced_s": walls[command],
                        "self_sum_s": 0.0, "layers_s": 0.0}
    for rec, own in zip(tracer.records, tracer.self_times()):
        command = rec[calltrace.RUN].rsplit("/", 1)[1]
        per[command]["self_sum_s"] += own
        if rec[calltrace.NAME] != "cli.run_command":
            per[command]["layers_s"] += own
    for row in per.values():
        row["overhead_s"] = row["traced_s"] - row["untraced_s"]
    return {"cycle_s": sum(walls.values()), "commands": per}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    cli = load_package()
    RUNS.mkdir(exist_ok=True)
    session = Session(cli, args.workload, args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "start_index": session.index,
        "start_offset": start_offset(args.workload, session.index), "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
    }

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, detail = traced(session, args.seconds, units)
        record.update(detail, computed=COMPUTED)
        for command, row in detail["accounting"][0]["commands"].items():
            print(f"{args.workload} {command:10s} untraced {row['untraced_s']:.3f} s, traced {row['traced_s']:.3f} s,"
                  f" self-time sum {row['self_sum_s']:.3f} s ({row['layers_s']:.3f} s in layers),"
                  f" overhead {row['overhead_s']:+.3f} s")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        probe = SpeedProbe()
        setup, setup_scaled = measure_setup(session.config, probe)
        samples, scaled = untraced(session, probe, args.seconds)
        names = {"optimize_s": "optimize", "grad_s": "grad", "gradcheck_s": "grad-check"}
        raw = {name: statistics.median(samples[c]) for name, c in names.items()}
        raw["setup_s"] = statistics.median(setup)
        values = {name: statistics.median(scaled[c]) for name, c in names.items()}
        values["setup_s"] = statistics.median(setup_scaled)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["pass_rate"] = 1.0 - session.failed / session.attempted
        record.update(samples=samples, scaled_samples=scaled, setup_samples=setup,
                      setup_scaled=setup_scaled, probe_chunks=probe.chunks, raw_medians=raw)
        print(f"{args.workload} samples: " + ", ".join(f"{c} {len(s)}" for c, s in samples.items())
              + f", setup {len(setup)}; raw medians " + ", ".join(f"{k} {v:.3f}" for k, v in raw.items()))

    failed = session.failed
    record.update(attempted=session.attempted, failed=failed, failures=session.failures,
                  inconsistent_counts=session.inconsistent, metrics=values)
    with open(RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload}: {session.attempted} commands, {failed} failed"
          f" (fail_rate {failed / session.attempted:.3f})")
    result = {
        "correct": failed == 0 and not session.inconsistent,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
