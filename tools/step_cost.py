"""Print the wall time of one ``solve_forward``, one ``solve_linearized`` and
one ``solve_adjoint`` on each shipped scenario, for one or more source trees,
with the trees' runs interleaved.

Each source tree gets one child process, with BLAS/OpenMP pinned to one
thread, that builds every scenario's problem from its shipped config and
then times one solve per request.  The parent asks for the solves in
rounds: in each round every scenario and solve is timed once in every tree,
the trees' order alternating from round to round, so that a drift in the
machine's speed reaches all trees alike.  The start control is the
scenario's own; the tangent's direction is a fixed smooth path.

    python tools/step_cost.py                              # this checkout's src
    python tools/step_cost.py --src /path/to/base/src --src src --repeats 30

Prints one line per scenario, solve and tree: the first quartile, the
median and the third quartile of its wall time in milliseconds, then the
tree.  Exits 1 if a child fails.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

SOLVES = ("solve_forward", "solve_linearized", "solve_adjoint")
DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"

# a child: builds the problems of the scenarios named in argv, answers
# "ready", then reads "<scenario> <solve>" lines and answers each with the
# wall time of one such solve in seconds
_CHILD = """
import sys, time
import numpy as np
from liouville_control.adjoint import solve_adjoint
from liouville_control.cli import parse_config, scenario_path
from liouville_control.controls import ControlPath
from liouville_control.forward import solve_forward, solve_linearized

def calls(name):
    with open(scenario_path(name)) as fh:
        cfg = parse_config(fh.read())
    prob = cfg.problem()
    tg, drift = prob.timegrid, prob.drift_for(cfg.control)
    s = np.linspace(0.0, 1.0, tg.nt + 1)[:, None]
    width = cfg.control.stacked().shape[1]
    delta = ControlPath.from_stacked(tg, 0.1 * np.sin(3.0 * s + np.arange(width)))
    return {
        "solve_forward": lambda: solve_forward(prob.rho0, drift, prob.source, tg, **prob.solver),
        "solve_linearized": lambda: solve_linearized(prob.rho0, drift, delta, prob.source, tg, **prob.solver),
        "solve_adjoint": lambda: solve_adjoint(prob.cost, drift, tg, prob.grid),
    }

table = {name: calls(name) for name in sys.argv[1:]}
print("ready", flush=True)
for line in sys.stdin:
    name, solve = line.split()
    call = table[name][solve]
    start = time.perf_counter()
    call()
    print(time.perf_counter() - start, flush=True)
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

    def time(self, scenario: str, solve: str) -> float:
        self.proc.stdin.write(f"{scenario} {solve}\n")
        self.proc.stdin.flush()
        return float(self._expect(f"timing {solve} on {scenario}"))

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
        for r in range(args.repeats):
            order = children if r % 2 == 0 else children[::-1]
            for name in scenarios:
                for solve in SOLVES:
                    for child in order:
                        samples[name, solve, child.src].append(child.time(name, solve))
    finally:
        for child in children:
            child.close()
    width = max(map(len, scenarios))
    print(f"{'scenario':<{width}}  {'solve':<16}  {'q1 ms':>9}  {'median ms':>9}  {'q3 ms':>9}  src")
    for name in scenarios:
        for solve in SOLVES:
            for child in children:
                q1, median, q3 = quartiles(samples[name, solve, child.src])
                print(f"{name:<{width}}  {solve:<16}  {q1:9.3f}  {median:9.3f}  {q3:9.3f}  {child.src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
