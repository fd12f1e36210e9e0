"""Call-site tracing for the benchmark.

The traced run replaces, for the duration of one cycle of commands, each
module-level name through which one ``liouville_control`` module calls a
public function of another (``reduced.solve_forward``,
``adjoint.eval_drift``, ``cli.parse_config``, ...) by a wrapper that records
a span.  Nothing under ``src/`` is edited, so the span names stay fixed for
every later change that is measured against this benchmark.

A span record is ``[name, site, start, end, parent, calls, busy, run_id]``:
``site`` is the calling module, ``parent`` the index of the enclosing
record (-1 at the top level) and ``busy`` the seconds spent inside the call.
A span that opens no child span is a leaf; the leaves of one name and site
under one parent are coalesced into a single record (``start`` of the first
call, ``end`` of the last, ``calls`` and ``busy`` summed).  The adjoint's
off-grid continuation makes millions of tiny ``eval_drift`` calls per
``optimize``, and one record per call would not fit in memory.  Self time
is ``busy`` minus the ``busy`` of the child records; children of one span
never overlap, because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types
from collections import defaultdict

_clock = time.perf_counter

# calling module -> {name in that module's namespace: span name}
CALL_SITES = {
    "cli": {
        "parse_config": "cli.parse_config",
        "optimize": "optimize.optimize",
        "reduced_cost": "reduced.reduced_cost",
        "reduced_gradient": "reduced.reduced_gradient",
        "kkt_residual": "reduced.kkt_residual",
        "frechet_probe": "reduced.frechet_probe",
        "fd_directional_derivative": "oracles.fd_directional_derivative",
    },
    "optimize": {
        "kkt_residual": "reduced.kkt_residual",
    },
    "reduced": {
        "solve_forward": "forward.solve_forward",
        "solve_linearized": "forward.solve_linearized",
        "solve_adjoint": "adjoint.solve_adjoint",
        "reduced_cost": "reduced.reduced_cost",
        "reduced_gradient": "reduced.reduced_gradient",
        "assemble_integral_path": "reduced.assemble_integral_path",
        "h1_riesz": "reduced.h1_riesz",
        "partial_derivative": "grid.partial_derivative",
        "potential_eval": "controls.potential_eval",
        "weighted_sobolev_norm": "grid.weighted_sobolev_norm",
    },
    "forward": {
        "eval_drift": "controls.eval_drift",
        "weighted_sobolev_norm": "grid.weighted_sobolev_norm",
    },
    "adjoint": {
        "eval_drift": "controls.eval_drift",
        "potential_eval": "controls.potential_eval",
        "interpolate_flagged": "grid.interpolate_flagged",
        "weighted_sobolev_norm": "grid.weighted_sobolev_norm",
    },
}

# the forward-solve memo sits in a method; calls that do not reach
# solve_forward are cache hits
METHOD_SITES = {("reduced", "Problem", "solve_forward_for"): "reduced.Problem.solve_forward_for"}

# cli calls fileio.write_* through the module object
FILEIO_WRITERS = (
    "write_json",
    "write_control_csv",
    "write_iterations_csv",
    "write_field_csv",
    "write_trajectory_summary",
    "write_adjoint_summary",
)

NAME, SITE, START, END, PARENT, CALLS, BUSY, RUN = range(8)


class Tracer:
    """Spans and counters of one traced cycle, kept in memory."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.records: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        # open frames: [name, site, start, record index or None, leaf index]
        self._stack: list[list] = []
        self._top_leaves: dict = {}

    def _materialize(self, depth: int) -> int:
        frame = self._stack[depth]
        if frame[3] is None:
            parent = self._stack[depth - 1][3] if depth > 0 else -1
            frame[3] = len(self.records)
            self.records.append([frame[0], frame[1], frame[2], None, parent, 1, 0.0, self.run_id])
        return frame[3]

    def enter(self, name: str, site: str) -> None:
        if self._stack:
            self._materialize(len(self._stack) - 1)
        self._stack.append([name, site, _clock(), None, {}])

    def exit(self) -> None:
        end = _clock()
        name, site, start, idx, _ = self._stack.pop()
        busy = end - start
        if idx is not None:
            rec = self.records[idx]
            rec[END] = end
            rec[BUSY] = busy
            return
        if self._stack:
            parent = self._materialize(len(self._stack) - 1)
            leaves = self._stack[-1][4]
        else:
            parent, leaves = -1, self._top_leaves
        j = leaves.get((name, site))
        if j is None:
            leaves[(name, site)] = len(self.records)
            self.records.append([name, site, start, end, parent, 1, busy, self.run_id])
        else:
            rec = self.records[j]
            rec[END] = end
            rec[CALLS] += 1
            rec[BUSY] += busy

    def wrap(self, fn, name: str, site: str, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` runs
        once the span is closed, to update counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.records)
        for rec in self.records:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[BUSY]
        return [rec[BUSY] - c for rec, c in zip(self.records, child)]

    def write(self, path: str) -> None:
        """Append one JSON object per record, with its self time; ``id`` and
        ``parent`` index the records of this tracer, whose run ids all
        start with the same cycle."""
        with open(path, "a") as fh:
            for i, (rec, self_s) in enumerate(zip(self.records, self.self_times())):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "site": rec[SITE], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "run_id": rec[RUN], "calls": rec[CALLS],
                    "busy": rec[BUSY], "self": self_s,
                }) + "\n")


def _stages(scheme: str) -> int:
    return 2 if scheme == "muscl-fv" else 1


def instrument(tracer: Tracer, package: str, cells: int):
    """Wrap every call site listed above in the imported ``package``;
    returns a function that puts the originals back.

    ``cells`` is the grid size: an adjoint ``eval_drift`` call on fewer
    points than that is an off-grid characteristic march.
    """
    modules = {name: importlib.import_module(f"{package}.{name}") for name in CALL_SITES}
    counters = tracer.counters
    saved = []

    def patch(obj, attr, value):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def after_forward(args, result):
        traj = result[0] if isinstance(result, tuple) else result
        substeps = sum(traj.substeps)
        counters["forward.substeps"] += substeps
        counters["forward.cell_updates"] += traj.grid.num_cells * substeps * _stages(traj.scheme)

    def after_assembly(args, result):
        _, traj_rho, traj_q = args[:3]
        nodes = traj_rho.timegrid.nt + 1
        counters["forward.replay_steps"] += nodes - len(traj_rho.snapshot_steps)
        counters["adjoint.replay_steps"] += nodes - len(traj_q.snapshot_steps)

    def after_adjoint_drift(args, result):
        points = args[2].shape[0]
        if points < cells:
            counters["adjoint.offgrid_drift_evals"] += 1
            counters["adjoint.offgrid_points"] += points

    def after_optimize(args, result):
        counters["optimize.iterations"] += result.iterations
        counters["optimize.vi_final"] = result.vi_history[-1] if result.vi_history else 0.0

    def after_write(args, result):
        counters["fileio.bytes"] += os.path.getsize(args[-1])

    after = {
        ("reduced", "solve_forward"): after_forward,
        ("reduced", "solve_linearized"): after_forward,
        ("reduced", "assemble_integral_path"): after_assembly,
        ("adjoint", "eval_drift"): after_adjoint_drift,
        ("cli", "optimize"): after_optimize,
    }
    for site, names in CALL_SITES.items():
        module = modules[site]
        for attr, span in names.items():
            patch(module, attr, tracer.wrap(getattr(module, attr), span, site, after.get((site, attr))))
    for (site, cls_name, attr), span in METHOD_SITES.items():
        cls = getattr(modules[site], cls_name)
        patch(cls, attr, tracer.wrap(getattr(cls, attr), span, site))

    fileio = modules["cli"].fileio
    proxy = types.SimpleNamespace(**{k: v for k, v in vars(fileio).items() if not k.startswith("__")})
    for attr in FILEIO_WRITERS:
        setattr(proxy, attr, tracer.wrap(getattr(fileio, attr), f"fileio.{attr}", "cli", after_write))
    patch(modules["cli"], "fileio", proxy)

    def restore():
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)

    return restore
