"""Print the live memory peak of ``optimize``, ``grad`` and ``grad-check`` on
each shipped scenario.

The peak RSS of a process (``peak_rss_mb`` in ``bench/run.py``) also counts
memory that the allocator keeps after the program freed it.  The
``tracemalloc`` peak counts only what the program's objects hold at once,
numpy arrays included, so the two tell apart what the program holds from
what the allocator keeps.  Each command runs in a fresh process on the
scenario's shipped config, with tracing started after the imports and the
peak read when the command returns:

    python tools/live_peak.py                    # this checkout's src
    python tools/live_peak.py --src /path/to/src

Prints one JSON object, {scenario: {command: peak in MB}} with
MB = 2**20 bytes, and exits 1 if a command does not exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ("optimize", "grad", "grad-check")
DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh process: argv is scenario, command; prints only the exit code
# and the peak in bytes
_CHILD = """
import contextlib, io, sys, tempfile, tracemalloc
from liouville_control.cli import run_command, scenario_path
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    tracemalloc.start()
    code = run_command([sys.argv[2], "--config", scenario_path(sys.argv[1]), "--out", out])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
print(code, peak)
"""


def live_peak(src: Path, scenario: str, command: str) -> float:
    """The tracemalloc peak of one command, in MB."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CHILD, scenario, command], env=env, capture_output=True, text=True)
    fields = proc.stdout.split()
    if proc.returncode or fields[:1] != ["0"]:
        raise SystemExit(f"error: {command} on {scenario} failed:\n{proc.stderr}")
    return round(int(fields[1]) / 2**20, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC, help="source tree holding liouville_control")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    scenarios = sorted(p.stem for p in (src / "liouville_control" / "scenarios").glob("*.json"))
    if not scenarios:
        raise SystemExit(f"error: no shipped scenarios under {src}")
    peaks = {name: {command: live_peak(src, name, command) for command in COMMANDS} for name in scenarios}
    print(json.dumps(peaks, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
