"""Fingerprint every output of the ``liouctl`` commands on the shipped scenarios.

Runs forward, adjoint, cost, grad, grad-check, certify, oracle-compare,
optimize and multistart once on each shipped scenario and on the variants in
``VARIANTS``, at the configuration's own ``output.stride`` (a tier-1 test
checks that the stride thins only the snapshots), each run in a fresh
process, and writes one JSON record per run: its exit code, its stderr and
the sha256 of every file in its output directory.  A refactor that must not
change any output is checked by fingerprinting the source trees before and
after it and comparing the two records:

    python tools/output_hashes.py --src /path/to/before/src --out before.json
    python tools/output_hashes.py --out after.json        # this checkout's src
    python tools/output_hashes.py --compare before.json after.json

``--compare`` lists every run whose exit code, stderr or files differ, then
each differing file name with the number of runs it differs in, and ends
with the runs' exit codes; it exits 1 if anything differs.  Paths of the
source tree are replaced by ``<src>`` in stderr, so two checkouts at
different places compare equal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMANDS = ("forward", "adjoint", "cost", "grad", "grad-check", "certify", "oracle-compare", "optimize", "multistart")
WORKERS = 2  # runs at once
DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"
# shipped scenarios with sections replaced, for the code paths that none of
# them runs: a source, the upwind scheme in 1D and in 2D, a tracking cost in
# 2D, a nonzero affine drift in 1D and one in 2D other than the rotation, a
# drift that is not affine, and an optimize that stops at max_iters
VARIANTS = {
    "sparse-ladder+source": ("sparse-ladder", {
        "source": {"preset": "bimodal-gaussian", "params": {"wa": 0.05, "wb": 0.05}},
    }),
    "bimodal-stabilize-1d+upwind+source": ("bimodal-stabilize-1d", {
        "solver": {"scheme": "upwind-fv"},
        "source": {"preset": "gaussian", "params": {"v0": 0.5}},
    }),
    "sparse-ladder+affine": ("sparse-ladder", {
        "a0": {"preset": "affine", "params": {"A": [[-0.3]], "b": [0.2]}},
    }),
    "confining-2d+affine": ("confining-2d", {
        "a0": {"preset": "affine", "params": {"A": [[-0.4, 1.0], [-1.0, -0.4]], "b": [0.1, -0.1]}},
    }),
    "confining-2d+upwind": ("confining-2d", {"solver": {"scheme": "upwind-fv"}}),
    # the one time-dependent theta in 2D: a tracking cost with a
    # two-coordinate track
    "confining-2d+tracking": ("confining-2d", {
        "cost": {"gamma": 1.0, "theta": "tracking", "phi": "quadratic",
                 "track_path": [[0.0, [1.0, -0.5]], [0.5, [0.5, 0.0]]]},
    }),
    # the one a0 whose Jacobian varies over x and whose higher derivatives
    # are sampled on the grid
    "confining-2d+bump": ("confining-2d", {
        "a0": {"preset": "gaussian-bump", "params": {"c": [0.5, -0.3], "sigma": 1.5}},
    }),
    # sparse-ladder's optim section with max_iters cut to 2
    "sparse-ladder+max-iters": ("sparse-ladder", {"optim": {"max_iters": 2, "step0": 2.0, "vi_tol": 0.0005}}),
}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(src: Path, config: Path, command: str, out_dir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "liouville_control.cli", command, "--config", str(config), "--out", str(out_dir)],
        env=env, cwd=out_dir.parent, capture_output=True, text=True,
    )
    files = {
        str(p.relative_to(out_dir)): _digest(p) for p in sorted(out_dir.rglob("*")) if p.is_file()
    } if out_dir.is_dir() else {}
    return {"exit": proc.returncode, "stderr": proc.stderr.replace(str(src), "<src>"), "files": files}


def fingerprint(src: Path) -> dict:
    """Exit code, stderr and file hashes of every run, keyed scenario/command."""
    shipped = {p.stem: json.loads(p.read_text()) for p in (src / "liouville_control" / "scenarios").glob("*.json")}
    if not shipped:
        raise SystemExit(f"error: no shipped scenarios under {src}")
    configs = dict(sorted(shipped.items()))
    for name, (base, sections) in VARIANTS.items():
        configs[name] = dict(shipped[base], **sections)
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name, cfg in configs.items():
            config = Path(tmp) / f"{name}.json"
            config.write_text(json.dumps(cfg))
            for command in COMMANDS:
                key = f"{name}/{command}"
                runs.append((key, config, command, Path(tmp) / key.replace("/", "-")))
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            results = pool.map(lambda r: _run(src, r[1], r[2], r[3]), runs)
            return {key: res for (key, *_), res in zip(runs, results)}


def compare(before: dict, after: dict) -> list[str]:
    """One line per difference between two fingerprints, then one per file
    name that differs, with the number of runs it differs in."""
    diffs = []
    runs_per_file = Counter()
    for key in sorted(set(before) | set(after)):
        if key not in before or key not in after:
            diffs.append(f"{key}: only in {'after' if key not in before else 'before'}")
            continue
        a, b = before[key], after[key]
        for field in ("exit", "stderr"):
            if a[field] != b[field]:
                diffs.append(f"{key}: {field} {a[field]!r} -> {b[field]!r}")
        for name in sorted(set(a["files"]) | set(b["files"])):
            if a["files"].get(name) != b["files"].get(name):
                diffs.append(f"{key}: file {name} differs")
                runs_per_file[name] += 1
    return diffs + [f"file {name} differs in {n} runs" for name, n in sorted(runs_per_file.items())]


def _summary(runs: dict) -> str:
    files = sum(len(r["files"]) for r in runs.values())
    return f"{len(runs)} runs, {files} files; exit codes {sorted({r['exit'] for r in runs.values()})}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC, help="source tree holding liouville_control")
    parser.add_argument("--out", type=Path, help="where to write the fingerprint JSON")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(p.read_text()) for p in args.compare)
        diffs = compare(before, after)
        print("\n".join([*diffs, f"{'different' if diffs else 'identical'}: {_summary(after)}"]))
        return 1 if diffs else 0
    if args.out is None:
        parser.error("--out is required unless --compare is given")
    runs = fingerprint(args.src.resolve())
    args.out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"{_summary(runs)} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
