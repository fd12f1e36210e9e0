"""Print the wall time of one ``solve_forward``, one ``solve_linearized``, one
``solve_adjoint`` and one gradient assembly (``assemble_integral_path``) on
each shipped scenario, for one or more source trees, with the trees' runs
interleaved.

Each source tree gets one child process, with BLAS/OpenMP pinned to one
thread, that builds every scenario's problem from its shipped config and
then times one solve per request.  The parent asks for the solves in
rounds: in each round every scenario and solve is timed once in every tree,
the trees' order alternating from round to round, so that a drift in the
machine's speed reaches all trees alike.  The start control is the
scenario's own; the tangent's direction is a fixed smooth path.  The
assembly runs as the optimizer's gradient runs it, without the
integration-by-parts cross-check (``cross_check=False``), on a forward and
an adjoint solve made once.

    python tools/step_cost.py                              # this checkout's src
    python tools/step_cost.py --src /path/to/base/src --src src --repeats 30

Prints one line per scenario, solve and tree: the first quartile, the
median and the third quartile of its wall time in milliseconds; for the
forward and the tangent solve also the solve's substep count and its
median time per substep in microseconds, which reads the cost of one
substep of the stage loop directly; then the tree.  Exits 1 if a child
fails.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

SOLVES = ("solve_forward", "solve_linearized", "solve_adjoint", "assemble_integral_path")
DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"

# a child: builds the problems of the scenarios named in argv, answers
# "ready", then reads "<scenario> <solve>" lines and answers each with the
# wall time of one such solve in seconds and its substep count (0 for the
# adjoint and the assembly)
_CHILD = """
import sys, time
import numpy as np
from liouville_control.adjoint import solve_adjoint
from liouville_control.cli import parse_config, scenario_path
from liouville_control.controls import ControlPath
from liouville_control.forward import solve_forward, solve_linearized
from liouville_control.reduced import assemble_integral_path

# solve -> the substep count of its result
substeps = {"solve_forward": lambda traj: sum(traj.substeps),
            "solve_linearized": lambda pair: sum(pair[0].substeps)}

def calls(name):
    with open(scenario_path(name)) as fh:
        cfg = parse_config(fh.read())
    prob = cfg.problem()
    tg, drift = prob.timegrid, prob.drift_for(cfg.control)
    s = np.linspace(0.0, 1.0, tg.nt + 1)[:, None]
    width = cfg.control.stacked().shape[1]
    delta = ControlPath.from_stacked(tg, 0.1 * np.sin(3.0 * s + np.arange(width)))
    rho = solve_forward(prob.rho0, drift, prob.source, tg, **prob.solver)
    q = solve_adjoint(prob.cost, drift, tg, prob.grid)
    return {
        "solve_forward": lambda: solve_forward(prob.rho0, drift, prob.source, tg, **prob.solver),
        "solve_linearized": lambda: solve_linearized(prob.rho0, drift, delta, prob.source, tg, **prob.solver),
        "solve_adjoint": lambda: solve_adjoint(prob.cost, drift, tg, prob.grid),
        "assemble_integral_path": lambda: assemble_integral_path(prob, rho, q, cross_check=False),
    }

table = {name: calls(name) for name in sys.argv[1:]}
print("ready", flush=True)
for line in sys.stdin:
    name, solve = line.split()
    call = table[name][solve]
    start = time.perf_counter()
    result = call()
    print(time.perf_counter() - start, substeps[solve](result) if solve in substeps else 0, flush=True)
"""


class Child:
    """One source tree's timing process."""

    def __init__(self, src: Path, scenarios: list[str]):
        env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.src = src
        self.proc = subprocess.Popen([sys.executable, "-c", _CHILD, *scenarios], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._expect("ready")

    def _expect(self, what: str) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise SystemExit(f"error: the timing process of {self.src} failed while {what}")
        return line.strip()

    def time(self, scenario: str, solve: str) -> tuple[float, int]:
        """The wall time of one solve in seconds and its substep count."""
        self.proc.stdin.write(f"{scenario} {solve}\n")
        self.proc.stdin.flush()
        seconds, substeps = self._expect(f"timing {solve} on {scenario}").split()
        return float(seconds), int(substeps)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def quartiles(samples: list[float]) -> list[float]:
    """[q1, median, q3] in milliseconds."""
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return [1e3 * v for v in (q1, median, q3)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="source tree holding liouville_control; repeat to compare trees (default: this checkout's)")
    parser.add_argument("--repeats", type=int, default=20, help="timed rounds (default 20)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    srcs = [src.resolve() for src in (args.src or [DEFAULT_SRC])]
    scenarios = sorted(p.stem for p in (srcs[0] / "liouville_control" / "scenarios").glob("*.json"))
    if not scenarios:
        raise SystemExit(f"error: no shipped scenarios under {srcs[0]}")
    children = []
    try:
        for src in srcs:
            children.append(Child(src, scenarios))
        samples = {(name, solve, child.src): [] for name in scenarios for solve in SOLVES for child in children}
        substeps = {}  # the same on every repeat: the plan depends only on the control
        for r in range(args.repeats):
            order = children if r % 2 == 0 else children[::-1]
            for name in scenarios:
                for solve in SOLVES:
                    for child in order:
                        seconds, substeps[name, solve, child.src] = child.time(name, solve)
                        samples[name, solve, child.src].append(seconds)
    finally:
        for child in children:
            child.close()
    width, solve_width = max(map(len, scenarios)), max(map(len, SOLVES))
    print(f"{'scenario':<{width}}  {'solve':<{solve_width}}  {'q1 ms':>9}  {'median ms':>9}  {'q3 ms':>9}"
          f"  {'substeps':>8}  {'us/substep':>10}  src")
    for name in scenarios:
        for solve in SOLVES:
            for child in children:
                q1, median, q3 = quartiles(samples[name, solve, child.src])
                count = substeps[name, solve, child.src]
                per = f"{count:8d}  {1e3 * median / count:10.2f}" if count else f"{'':8}  {'':10}"
                print(f"{name:<{width}}  {solve:<{solve_width}}  {q1:9.3f}  {median:9.3f}  {q3:9.3f}  {per}  {child.src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
