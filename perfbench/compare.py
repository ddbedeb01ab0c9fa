"""Compare saved benchmark output of two code versions, host-aware.

Usage, from the repository root::

    python3 perfbench/run.py --workload W --seed 1 --seconds 20 > base.txt   # repeat, appending
    python3 perfbench/compare.py base.txt new.txt

Each file holds the standard output of one or more runs of one workload.
Runs whose host records (CPU, core count, Python, numpy and scipy versions),
workload or ``REPRO_*`` environment differ are reported as incomparable
(exit code 3), never as a regression.  Otherwise every end-to-end metric's
median is compared against its bound in ``BENCHMARK.json``; the exit code
is 1 when any metric got worse by more than its bound.  A metric whose
base runs spread (inter-quartile distance over the median, four runs or
more) wider than its bound is reported as unresolved instead.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402

#: Host record fields that must match for two results to be comparable.
HOST_KEYS = ("cpu", "nproc", "python", "numpy", "scipy")


def load_runs(path: Path) -> dict:
    """Identity (workload, host, env) and metric samples of one output file."""
    identities, metrics = set(), {}
    workload = host = env = None
    for line in path.read_text().splitlines():
        if line.startswith("perfbench "):
            workload = line.split()[1]
        elif line.startswith("host "):
            record = json.loads(line[5:])
            host = tuple((key, record.get(key)) for key in HOST_KEYS)
        elif line.startswith("env "):
            env = line[4:]
        elif line.startswith("{"):
            identities.add((workload, host, env))
            for name, metric in json.loads(line)["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
    if len(identities) != 1:
        raise SystemExit(f"{path}: expected runs of one workload on one host, "
                         f"found {len(identities)} identities")
    return {"identity": identities.pop(), "metrics": metrics}


def main(argv: list[str]) -> int:
    base, new = (load_runs(Path(arg)) for arg in argv)
    if base["identity"] != new["identity"]:
        for label, left, right in zip(("workload", "host", "env"),
                                      base["identity"], new["identity"]):
            if left != right:
                print(f"incomparable: {label} differs: {left} vs {right}")
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    worse = 0
    for name, metric in bounds.items():
        if name not in base["metrics"] or name not in new["metrics"]:
            continue
        before = statistics.median(base["metrics"][name])
        after = statistics.median(new["metrics"][name])
        change = (after - before) / before
        regression = -change if metric["better"] == "higher" else change
        runs = base["metrics"][name]
        if len(runs) >= 4 and spread(runs) > metric["bound"]:
            verdict = f"unresolved (base spread {spread(runs):.1%})"
        elif regression > metric["bound"]:
            verdict = "regression"
            worse += 1
        else:
            verdict = "within bound"
        print(f"{name:<14} {before:>12.4f} -> {after:>12.4f} {metric['unit']:<4} "
              f"{change:+.1%} (bound {metric['bound']:.0%}, "
              f"n={len(base['metrics'][name])}/{len(new['metrics'][name])}): {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
