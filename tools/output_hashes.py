"""Fingerprint every output of the ``liouctl`` commands on the shipped scenarios.

Runs forward, adjoint, cost, grad, grad-check, certify, oracle-compare,
optimize and multistart on each shipped scenario, and on the variants in
``VARIANTS``, at ``output.stride`` 1 and 8, each run in a fresh process, and
writes one JSON record per run: its exit code, its stderr and the sha256 of
every file in its output directory.  A refactor that must not change any
output is checked by fingerprinting the source trees before and after it and
comparing the two records:

    python tools/output_hashes.py --src /path/to/before/src --out before.json
    python tools/output_hashes.py --out after.json        # this checkout's src
    python tools/output_hashes.py --compare before.json after.json

``--compare`` lists every run whose exit code, stderr or files differ, and
exits 1 if there is one.  Paths of the source tree are replaced by ``<src>``
in stderr, so two checkouts at different places compare equal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMANDS = ("forward", "adjoint", "cost", "grad", "grad-check", "certify", "oracle-compare", "optimize", "multistart")
STRIDES = (1, 8)
WORKERS = 2  # runs at once
DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"
# shipped scenarios with sections replaced, for the code paths that none of
# them runs: a source, the upwind scheme, and a 2D drift other than the
# rotation
VARIANTS = {
    "sparse-ladder+source": ("sparse-ladder", {
        "source": {"preset": "bimodal-gaussian", "params": {"wa": 0.05, "wb": 0.05}},
    }),
    "bimodal-stabilize-1d+upwind+source": ("bimodal-stabilize-1d", {
        "solver": {"scheme": "upwind-fv"},
        "source": {"preset": "gaussian", "params": {"v0": 0.5}},
    }),
    "confining-2d+affine": ("confining-2d", {
        "a0": {"preset": "affine", "params": {"A": [[-0.4, 1.0], [-1.0, -0.4]], "b": [0.1, -0.1]}},
    }),
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
    """Exit code, stderr and file hashes of every run, keyed scenario/stride/command."""
    shipped = {p.stem: json.loads(p.read_text()) for p in (src / "liouville_control" / "scenarios").glob("*.json")}
    if not shipped:
        raise SystemExit(f"error: no shipped scenarios under {src}")
    configs = dict(sorted(shipped.items()))
    for name, (base, sections) in VARIANTS.items():
        configs[name] = dict(shipped[base], **sections)
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name, cfg in configs.items():
            for stride in STRIDES:
                raw = dict(cfg, output=dict(cfg.get("output", {}), stride=stride))
                config = Path(tmp) / f"{name}-stride{stride}.json"
                config.write_text(json.dumps(raw))
                for command in COMMANDS:
                    key = f"{name}/stride{stride}/{command}"
                    runs.append((key, config, command, Path(tmp) / key.replace("/", "-")))
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            results = pool.map(lambda r: _run(src, r[1], r[2], r[3]), runs)
            return {key: res for (key, *_), res in zip(runs, results)}


def compare(before: dict, after: dict) -> list[str]:
    """One line per difference between two fingerprints."""
    diffs = []
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
    return diffs


def _summary(runs: dict) -> str:
    return f"{len(runs)} runs, {sum(len(r['files']) for r in runs.values())} files"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC, help="source tree holding liouville_control")
    parser.add_argument("--out", type=Path, help="where to write the fingerprint JSON")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(p.read_text()) for p in args.compare)
        diffs = compare(before, after)
        print("\n".join(diffs) if diffs else f"identical: {_summary(after)}")
        return 1 if diffs else 0
    if args.out is None:
        parser.error("--out is required unless --compare is given")
    runs = fingerprint(args.src.resolve())
    args.out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"{_summary(runs)}; exit codes {sorted({r['exit'] for r in runs.values()})} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
