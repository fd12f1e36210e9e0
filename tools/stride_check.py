"""Check that the objective and its probes do not depend on ``output.stride``.

Every solve keeps every time node, and the stride only thins the snapshot
files that ``forward`` and ``adjoint`` write: the cost integrates the
running cost over every node, the gradient pairs the forward and adjoint
nodes, and the Taylor remainders of ``grad-check`` are sups over every
node.  So on every shipped scenario:

- ``cost`` reports the same cost at strides 1, 8 and 64;
- ``grad`` writes the same bytes of ``report.json`` and
  ``control_gradient.csv`` at strides 1, 8 and 64;
- ``grad-check`` writes the same bytes of ``report.json`` at strides 1, 8
  and 64;
- ``optimize`` writes the same bytes of ``report.json``, ``iterations.csv``
  and ``control_final.csv`` at strides 1, 8 and 64;

and ``optimize`` on gaussian-tracking-1d at stride 16 exits 0 (it stalled
there while the running cost was read from the stored nodes only).  Each run
is a fresh ``liouctl`` process on this checkout's ``src``:

    python tools/stride_check.py

Prints what it compares and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SCENARIOS = SRC / "liouville_control" / "scenarios"
STRIDES = (1, 8, 64)


def run(command: str, scenario: Path, stride: int, tmp: str):
    """Exit code of ``command`` on ``scenario`` at ``stride``, and its output
    directory if it exited 0 (else None)."""
    cfg = json.loads(scenario.read_text())
    cfg.setdefault("output", {})["stride"] = stride
    config = Path(tmp) / f"{scenario.stem}-{command}-{stride}.json"
    config.write_text(json.dumps(cfg))
    out = Path(tmp) / config.stem
    cmd = [sys.executable, "-m", "liouville_control.cli", command, "--config", str(config), "--out", str(out)]
    code = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(SRC))).returncode
    return code, out if code == 0 else None


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted(SCENARIOS.glob("*.json")):
            costs = {s: run("cost", scenario, s, tmp)[1] for s in STRIDES}
            costs = {s: out and json.loads((out / "report.json").read_text())["cost"] for s, out in costs.items()}
            print(scenario.stem, costs)
            if None in costs.values() or len(set(costs.values())) != 1:
                failed = True
            for command, files in (
                ("grad", ("report.json", "control_gradient.csv")),
                ("grad-check", ("report.json",)),
                ("optimize", ("report.json", "iterations.csv", "control_final.csv")),
            ):
                outs = {s: run(command, scenario, s, tmp)[1] for s in STRIDES}
                outs = {s: out and tuple((out / f).read_bytes() for f in files) for s, out in outs.items()}
                same = None not in outs.values() and len(set(outs.values())) == 1
                print(scenario.stem, command, " and ".join(files), "the same at strides 1, 8, 64:", same)
                failed = failed or not same
        code, _ = run("optimize", SCENARIOS / "gaussian-tracking-1d.json", 16, tmp)
        print("gaussian-tracking-1d optimize at stride 16: exit", code)
        failed = failed or code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
