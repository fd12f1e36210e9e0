"""Regenerate ``bench/reference.json``: for every workload and every one of
its starting controls, the cost ``liouctl grad`` and ``liouctl optimize``
report, and the Taylor slope of ``liouctl grad-check``.

    python3 bench/make_reference.py [workload ...]

It refuses to write a start whose ``optimize`` does not converge to the
scenario's ``vi_tol``, so every seed of the benchmark is known to converge.
The reference belongs to the benchmark: regenerate it only in a change that
redefines the benchmark, never in one that claims a speed-up.
"""

from __future__ import annotations

import json
import sys

import run


def reference_for(cli, workload: str) -> dict:
    work = run.RUNS / "reference" / workload
    starts = []
    for index in range(run.STARTS):
        config, raw = run.write_config(cli, workload, index, work)
        entry = {"offset": run.start_offset(workload, index)}
        for command in ("grad", "optimize"):
            code, seconds, report = run.run_command(cli, command, config, work / command)
            if code != 0:
                raise SystemExit(f"{workload} start {index}: {command} exited {code}")
            entry[f"{command}_cost"] = report["cost"]
        if report["termination"] != "converged" or not report["vi_residual"] <= raw["optim"]["vi_tol"]:
            raise SystemExit(f"{workload} start {index}: optimize did not converge ({report})")
        entry["optimize_iterations"] = report["iterations"]
        print(workload, index, entry, flush=True)
        starts.append(entry)
    code, _, report = run.run_command(cli, "grad-check", config, work / "grad-check")
    if code != 0:
        raise SystemExit(f"{workload}: grad-check exited {code}")
    return {"grad_check_slope": report["slope"], "starts": starts}


def main(names) -> None:
    cli = run.load_package()
    fresh = {workload: reference_for(cli, workload) for workload in names or sorted(run.WORKLOADS)}
    path = run.BENCH / "reference.json"
    try:
        with open(path) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {"workloads": {}}
    table["workloads"].update(fresh)
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
