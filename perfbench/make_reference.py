"""Record the reference outputs the benchmark checks every call against.

Usage, from the repository root::

    python3 perfbench/make_reference.py

Runs the CLI inline (no daemon) on the current sources and writes
``perfbench/reference/``: the full quick report, SHA-256 digests of the
report, of the warm workloads' fill pass and of every single-experiment
``--json`` reply, and the deterministic fields of every fleet reply the
``fleet-routed`` workload can request.  Routed and inline execution print
byte-identical output, so inline references hold for routed calls too.
Re-run it only when a change is meant to alter simulated output.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import procs, workloads  # noqa: E402

WORK = ".perfbench-work/reference"


def _ok(result: procs.CallResult) -> bytes:
    if result.returncode != 0:
        raise SystemExit(f"CLI call failed: {result.stderr}")
    return result.stdout


def main() -> int:
    shutil.rmtree(procs.ROOT / WORK, ignore_errors=True)
    (procs.ROOT / WORK).mkdir(parents=True)
    env = procs.program_env(WORK)
    cache = f"{WORK}/cache"
    inline = ["--json", "--no-daemon", "--cache-dir", cache]
    report = _ok(procs.cli([*inline, "--jobs", "1"], env))
    digests = {
        "report": workloads.digest(report),
        "warm": workloads.digest(_ok(procs.cli([*workloads.WARM_IDS, *inline], env))),
        "experiments": {
            experiment_id: workloads.digest(_ok(procs.cli([experiment_id, *inline], env)))
            for experiment_id in workloads.ALL_IDS
        },
    }
    fleet = {
        puf: {
            str(seed): workloads.fleet_fields(
                _ok(procs.cli([*workloads.fleet_argv(puf, seed), "--no-daemon"], env))
            )
            for seed in workloads.FLEET_SEEDS
        }
        for puf in workloads.PUFS
    }
    workloads.REFERENCE.mkdir(exist_ok=True)
    (workloads.REFERENCE / "quick-report.json").write_bytes(report)
    for name, value in (("digests.json", digests), ("fleet.json", fleet)):
        (workloads.REFERENCE / name).write_text(json.dumps(value, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(procs.ROOT / WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
