"""Layer probes: time the program's public calls in-process, one span each.

Usage (spawned by ``run.py`` during a traced run)::

    python perfbench/probes.py TRACE_FILE TRACE_ID PARENT_SPAN WORK_DIR SEED [--skip-experiments]

Every probe span carries the label ``probe: true`` and is named
``<layer>.<call>``; ``perfbench/layers.py`` turns the spans into the
per-layer metrics.  The experiment probe runs the 16 quick experiments with
the compute boundaries of :mod:`perfbench.tracing` installed, so their
``memctrl``, ``dealloc``, ``rng``, ``circuit`` and ``puf`` calls nest below
them; ``--skip-experiments`` leaves it out when the workload's own traced
calls already ran every experiment.  ``SEED`` picks the fleet and devices
the fleet probes use.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.layers import PUF_KEYS  # noqa: E402
from perfbench.workloads import REFERENCE  # noqa: E402

#: Fleet geometry and traffic of the ``fleet-routed`` workload's calls.
FLEET_DEVICES = 10_000
FLEET_OPTIONS = {"challenges_per_device": 2, "impostor_ratio": 0.25, "temperature_jitter_c": 5.0}
#: Requests of one authenticated block in the fleet probes.
AUTH_BLOCK = 200
#: Requests of the uncached daemon fleet probe.
DAEMON_FLEET_REQUESTS = 1000


def probe_experiments(recorder):
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    tracing.install(recorder, tracing.COMPUTE_BOUNDARIES)
    for experiment_id in EXPERIMENTS:
        with recorder.span("experiments.compute", id=experiment_id, probe=True):
            run_experiment(experiment_id, quick=True)


def probe_cli(recorder, report):
    from repro.experiments.__main__ import build_parser
    from repro.experiments.base import ExperimentResult

    for _ in range(50):
        with recorder.span("experiments.parse", probe=True):
            build_parser().parse_args(["table2", "--json", "--no-daemon"])
    for _ in range(5):
        with recorder.span("experiments.render", probe=True, experiments=len(report)):
            for payload in report.values():
                ExperimentResult.from_dict(payload).render()


def probe_cache(recorder, work: Path, report):
    from repro.engine import ExperimentJob, ResultCache, source_fingerprint
    from repro.experiments.base import ExperimentResult

    for _ in range(5):
        with recorder.span("engine.cache.fingerprint", probe=True):
            source_fingerprint.__wrapped__()
    cache = ResultCache(work / "probe-cache")
    entries = [
        (ExperimentJob(experiment_id), ExperimentResult.from_dict(payload))
        for experiment_id, payload in report.items()
    ]
    for job, result in entries:
        with recorder.span("engine.cache.put", probe=True):
            cache.put(job, result)
    for _ in range(3):
        for job, _result in entries:
            with recorder.span("engine.cache.get", probe=True) as labels:
                labels["hit"] = cache.get(job) is not None


def probe_pool(recorder):
    from repro.engine import ExperimentJob, PoolSupervisor, run_jobs

    for _ in range(3):
        with recorder.span("engine.pool.spawn", probe=True, workers=2):
            supervisor = PoolSupervisor(2)
            supervisor.submit(os.getpid).result()
        supervisor.shutdown(wait=True)
    supervisor = PoolSupervisor(2)
    try:
        supervisor.warm()
        for _ in range(10):
            with recorder.span("engine.pool.job", probe=True, workers=2):
                run_jobs([ExperimentJob("table2")], workers=2, pool=supervisor)
    finally:
        supervisor.shutdown(wait=True)


def probe_daemon(recorder, work: Path, seed: int):
    from repro.engine import DaemonClient, FleetTrafficJob, source_fingerprint, start_daemon
    from repro.engine.daemon import stop_daemon

    socket_path = work / "probe.sock"
    with recorder.span("engine.daemon.start", probe=True):
        start_daemon(socket_path, cache_dir=work / "probe-daemon-cache", workers=2)
    try:
        client = DaemonClient(socket_path)
        for _ in range(20):
            with recorder.span("engine.daemon.ping", probe=True):
                client.ping()
        version = source_fingerprint()
        for attempt in range(11):
            # The first submit computes and fills the memory index.
            with recorder.span("engine.daemon.submit", probe=attempt > 0):
                frames = list(client.submit(["table2"], code_version=version))
            if frames[-1].get("type") != "done":
                raise RuntimeError(f"daemon submit failed: {frames[-1]}")
        job = FleetTrafficJob(
            fleet_seed=50_000 + seed,
            devices=FLEET_DEVICES,
            puf="CODIC-sig PUF",
            requests=DAEMON_FLEET_REQUESTS,
            **FLEET_OPTIONS,
        )
        with recorder.span("engine.daemon.fleet", probe=True):
            frames = list(client.fleet(job.config, shard_size=DAEMON_FLEET_REQUESTS // 2,
                                       code_version=version))
        if frames[-1].get("type") != "done":
            raise RuntimeError(f"daemon fleet request failed: {frames[-1]}")
        counters = client.status()["metrics"]["counters"]
        with recorder.span("engine.daemon.status", probe=True) as labels:
            labels["busy_frames"] = counters.get("daemon_requests_busy_total", 0)
    finally:
        stop_daemon(socket_path, force=True)


def probe_fleet(recorder, seed: int):
    import numpy as np

    from repro.dram.chip import VENDOR_PROFILES
    from repro.dram.module import DRAMModule
    from repro.engine import FleetTrafficJob
    from repro.fleet.devices import DeviceFleet
    from repro.fleet.traffic import authenticate_block
    from repro.fleet.verifier import FleetVerifier
    from repro.puf.jaccard import jaccard_index

    rng = random.Random(seed)
    responses = []
    for puf, key in PUF_KEYS.items():
        job = FleetTrafficJob(
            fleet_seed=60_000 + seed, devices=FLEET_DEVICES, puf=puf,
            requests=AUTH_BLOCK, **FLEET_OPTIONS,
        )
        fleet = DeviceFleet(job.fleet_config())
        verifier = FleetVerifier(fleet)
        devices = rng.sample(range(FLEET_DEVICES), 5)
        for device_id in devices:
            with recorder.span("fleet.provision", probe=True, puf=key):
                fleet.device(device_id)
            with recorder.span("fleet.enroll", probe=True, puf=key):
                verifier.enroll(device_id, 0)
        device = fleet.device(devices[0])
        challenge = fleet.challenge(devices[0], 0)
        for draw in range(20):
            noise = np.random.default_rng(draw)
            with recorder.span("puf.evaluate", probe=True, puf=key):
                response = device.puf.evaluate(challenge, 30.0, rng=noise)
            responses.append(response.position_array)
        for _ in range(20):
            with recorder.span("fleet.similarity", probe=True):
                verifier.similarity(devices[0], 0, response)
        cold_fleet = DeviceFleet(job.fleet_config())
        cold_verifier = FleetVerifier(cold_fleet)
        traffic = job.traffic_config()
        for phase in ("fleet.auth_cold", "fleet.auth_warm"):
            with recorder.span(phase, probe=True, puf=key, requests=AUTH_BLOCK):
                authenticate_block(cold_fleet, cold_verifier, traffic, 0, AUTH_BLOCK)
        config = job.fleet_config()
        for index in range(5):
            with recorder.span("dram.module_build", probe=True):
                DRAMModule(
                    module_id=f"probe{index}",
                    chip_geometry=config.geometry(),
                    chips_per_rank=config.chips_per_device,
                    ranks=1,
                    vendor=VENDOR_PROFILES["ABC"[index % 3]],
                    voltage=1.35,
                    data_rate_mt_s=1600,
                    seed=seed * 10 + index,
                )
    for index in range(200):
        first, second = responses[index % len(responses)], responses[(index + 1) % len(responses)]
        with recorder.span("puf.jaccard", probe=True):
            jaccard_index(first, second)


def main(argv: list[str]) -> int:
    trace_file, trace_id, parent, work_dir, seed, *flags = argv
    work = Path(work_dir)
    seed = int(seed)
    report = json.loads((REFERENCE / "quick-report.json").read_text())
    recorder = tracing.Recorder(trace_id, root=parent)
    try:
        if "--skip-experiments" not in flags:
            probe_experiments(recorder)
        probe_cli(recorder, report)
        probe_cache(recorder, work, report)
        probe_pool(recorder)
        probe_daemon(recorder, work, seed)
        probe_fleet(recorder, seed)
    finally:
        recorder.dump(trace_file)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
