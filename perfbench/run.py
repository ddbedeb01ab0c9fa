"""Shell-to-result benchmark of the CODIC reproduction's CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``perfbench/workloads.py``): ``paper-cold`` (the full quick
report from a cold cache), ``cli-routed`` and ``cli-inline`` (warm
single-experiment calls through the daemon's memory index, or inline from
the disk cache) and ``fleet-routed`` (uncached fleet authentication runs
through the daemon pool).  Each is one closed-loop client that spawns
``python -m repro.experiments ...`` and times it from spawn to exit.

``--trace 0`` sets up several times, runs the timed loop for ``--seconds``
(and at least the workload's minimum number of calls), checks every output
against ``perfbench/reference/`` and reports the end-to-end metrics.
``--trace 1`` sets up once, times a few untraced calls, replays as many
with spans around the program's layer boundaries (``tracecall.py``), probes
each layer's public calls in-process (``probes.py``) and reports the
per-layer metrics (``layers.py``); the spans are kept in
``.perfbench-work/trace-<workload>.ndjson`` for
``benchmarks/summarize_trace.py``.

The lines before the last describe the run for a reader: the host record
(results from different host records are not comparable; see
``compare.py``), every ``REPRO_*`` variable in the environment, and each
metric with its sample count.  The last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import layers, procs, stats, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Run  # noqa: E402

#: End-to-end metrics (``--trace 0``), every workload: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_p50_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: A timed loop stops starting calls after this long, minimum or not.
LOOP_CAP_S = 100.0
WORK_ROOT = ".perfbench-work"
#: Failure reasons that mean the output itself was wrong.
_WRONG_OUTPUT = ("exit code", "output differs", "deterministic fields differ")


def host_record() -> dict:
    """What produced a result: CPU, core count, versions, code, calibration."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as stream:
            cpu = next(line.split(":", 1)[1].strip() for line in stream
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode())
        sources.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": commit,
        "sources_sha256": sources.hexdigest(),
        "calibration_ms": calibration_ms(numpy),
    }


def calibration_ms(numpy) -> float:
    """Median time of a fixed numpy workload (matmul, sort, reduction)."""
    rng = numpy.random.default_rng(0)
    matrix = rng.random((256, 256))
    vector = rng.random(200_000)
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(4):
            (matrix @ matrix).sum()
            numpy.sort(vector)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def _outcome(call, result) -> dict:
    return {"kind": call.kind, "wall_s": result.wall_s, "units": call.units,
            "failure": call.check(result)}


def summarize(outcomes: list[dict]) -> dict:
    """Attempted and failed calls; ``correct`` unless an output was wrong.

    Any failed check counts as a failed call (a refused, wrong or
    wrongly-cached reply); only a wrong or missing output makes the run
    incorrect.
    """
    failures = [outcome["failure"] for outcome in outcomes if outcome["failure"]]
    return {
        "correct": not any(failure.startswith(_WRONG_OUTPUT) for failure in failures),
        "attempted": len(outcomes),
        "failed": len(failures),
    }


def timed_loop(workload, run, seconds: float) -> tuple[list[dict], float]:
    """Closed loop: the next call starts when the previous one returned.

    Returns the call outcomes and the peak RSS (MB) read after the
    workload's first ``min_calls`` calls.
    """
    outcomes, peak_rss = [], 0.0
    start = time.perf_counter()
    for call in workload.plan(run):
        elapsed = time.perf_counter() - start
        done = len(outcomes) >= workload.min_calls and len(outcomes) % workload.round_calls == 0
        if (elapsed >= seconds and done) or elapsed >= LOOP_CAP_S:
            break
        outcomes.append(_outcome(call, procs.cli(call.argv, run.env)))
        if len(outcomes) == workload.min_calls:
            peak_rss = procs.peak_rss_mb()
    return outcomes, peak_rss or procs.peak_rss_mb()


def untraced(workload, run, seconds: float, lines: list[str]) -> tuple[list[dict], dict]:
    setup_times = []
    for index in range(workload.setups):
        if index:
            workload.teardown(run)
        start = time.perf_counter()
        workload.setup(run, index)
        setup_times.append(time.perf_counter() - start)
    outcomes, peak_rss = timed_loop(workload, run, seconds)
    workload.teardown(run)
    walls = [outcome["wall_s"] for outcome in outcomes]
    kind = outcomes[0]["kind"]
    metrics = {
        "setup_s": stats.median(setup_times),
        "wall_p50_ms": stats.median(walls) * 1e3,
        "work_per_s": sum(outcome["units"] for outcome in outcomes) / sum(walls),
        "peak_rss_mb": peak_rss,
    }
    tail = stats.tail(walls)
    tail_text = (f"{tail[0] * 1e3:.1f} ms at p{tail[1]:.1f}" if tail
                 else f"n/a (needs more than {stats.TAIL_BEYOND} samples)")
    lines += [
        f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setup_times)} set-ups",
        f"wall_p50_ms  {metrics['wall_p50_ms']:.1f} ms  median of {len(walls)} {kind} calls",
        f"tail_ms      {tail_text}, n={len(walls)}",
        f"work_per_s   {metrics['work_per_s']:.3f} {workload.unit}/s over {len(walls)} calls",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  largest process, read after "
        f"set-up and {workload.min_calls} calls",
    ]
    return outcomes, metrics


def startup_probes(recorder, env) -> None:
    """Interpreter floor and ``-X importtime`` breakdown, fresh processes."""
    for _ in range(5):
        with recorder.span("startup.interpreter", probe=True):
            procs.run([procs.PYTHON, "-c", "pass"], env)
    for _ in range(3):
        with recorder.span("startup.importtime", probe=True) as labels:
            result = procs.run([procs.PYTHON, "-X", "importtime", "-c",
                                "import repro.experiments.__main__"], env)
            if result.returncode != 0:
                raise RuntimeError(f"import failed: {result.stderr[-300:]}")
            labels.update(layers.parse_importtime(result.stderr))


def traced(workload, run, lines: list[str]) -> tuple[list[dict], dict]:
    trace_id = f"perfbench-{workload.name}-{run.seed}-{os.getpid()}"
    recorder = tracing.Recorder(trace_id)
    child_trace = ROOT / run.work / "children.ndjson"
    with recorder.span("bench.setup", workload=workload.name):
        workload.setup(run, 0)
    plan = workload.plan(run)
    reference = [_outcome(call, procs.cli(call.argv, run.env))
                 for call in [next(plan) for _ in range(workload.traced_calls)]]
    replay = []
    with recorder.span("bench.traced", workload=workload.name):
        root = recorder.current()
        for call in [next(plan) for _ in range(workload.traced_calls)]:
            with recorder.span("bench.call", kind=call.kind):
                result = procs.traced_cli(call.argv, run.env, child_trace, trace_id,
                                          recorder.current())
            replay.append(_outcome(call, result))
        startup_probes(recorder, run.env)
        with recorder.span("bench.probes"):
            flags = ["--skip-experiments"] if workload.replay_computes else []
            result = procs.run([procs.PYTHON, str(ROOT / "perfbench" / "probes.py"),
                                str(child_trace), trace_id, recorder.current(), run.work,
                                str(run.seed), *flags], run.env)
        if result.returncode != 0:
            raise RuntimeError(f"layer probes failed: {result.stderr[-2000:]}")
    workload.teardown(run)
    records = recorder.records + tracing.load(child_trace)
    ratio = (sum(outcome["wall_s"] for outcome in replay)
             / sum(outcome["wall_s"] for outcome in reference))
    metrics = layers.per_layer_metrics(records, root, ratio)
    trace_path = ROOT / WORK_ROOT / f"trace-{workload.name}.ndjson"
    trace_path.unlink(missing_ok=True)
    lines.append(f"trace        {trace_path.relative_to(ROOT)} ({len(records)} spans; "
                 f"benchmarks/summarize_trace.py renders it)")
    recorder.records = records
    recorder.dump(trace_path)
    for name, unit in layers.METRICS:
        lines.append(f"{name:<44} {metrics[name]:.6g} {unit}")
    return reference + replay, metrics


def _interrupted(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "repro" / "experiments" / "__main__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _interrupted)
    procs.become_subreaper()
    workload = WORKLOADS[args.workload]
    work = f"{WORK_ROOT}/{workload.name}-{os.getpid()}"
    (ROOT / work).mkdir(parents=True, exist_ok=True)
    lines = [
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {workload.why}",
        "host " + json.dumps(host_record(), sort_keys=True),
        "env " + json.dumps({k: v for k, v in sorted(os.environ.items())
                             if k.startswith("REPRO_")}),
    ]
    run = Run(work, args.seed)
    try:
        if args.trace:
            outcomes, values = traced(workload, run, lines)
            units = dict(layers.METRICS)
        else:
            outcomes, values = untraced(workload, run, args.seconds, lines)
            units = END_TO_END
    finally:
        run.stop_daemon()
        procs.stop_all()
        shutil.rmtree(ROOT / work, ignore_errors=True)
    result = summarize(outcomes)
    lines.append(f"fail_ratio   {result['failed']}/{result['attempted']} = "
                 f"{result['failed'] / result['attempted']:.4f}")
    lines += [f"failure      {failure}" for failure in
              dict.fromkeys(outcome["failure"] for outcome in outcomes if outcome["failure"])]
    print("\n".join(lines))
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
