"""Per-layer metrics of a traced run, derived from its span records.

Probe spans (label ``probe: true``) give the per-call timings; wrapper spans
of the workload's traced CLI calls, or of the experiment probe, give the
compute-layer totals.  Layer names are the program's module names.
"""

from __future__ import annotations

import re

from perfbench import stats
from perfbench.workloads import ALL_IDS as EXPERIMENT_IDS

#: Short names of the fleet PUF classes in metric names.
PUF_KEYS = {"CODIC-sig PUF": "codic", "PreLatPUF": "prelat", "DRAM Latency PUF": "latency"}
#: Mirror of ``repro.rng.nist.suite.NIST_TEST_NAMES`` (a test keeps the two
#: equal); the parent process never imports the program.
NIST_TESTS = (
    "monobit", "frequency_within_block", "runs", "longest_run_ones_in_a_block",
    "binary_matrix_rank", "dft", "non_overlapping_template_matching",
    "overlapping_template_matching", "maurers_universal", "linear_complexity", "serial",
    "approximate_entropy", "cumulative_sums", "random_excursion", "random_excursion_variant",
)
#: Layers whose self time is reported; ``other`` is time no layer span covers.
LAYERS = (
    "startup", "experiments", "engine", "engine.cache", "engine.pool", "engine.daemon",
    "fleet", "puf", "dram", "rng", "memctrl", "dealloc", "circuit", "other",
)
#: ``-X importtime`` readings: metric suffix -> module whose cumulative
#: import time it is (``scipy`` sums the self time of every scipy module).
IMPORT_MODULES = {
    "import_pkg_ms": "repro",
    "import_engine_ms": "repro.engine",
    "import_registry_ms": "repro.experiments.registry",
}


def _spans(records, name, probe=None, **labels):
    return [
        record for record in records
        if record["name"] == name
        and (probe is None or bool(record["labels"].get("probe")) == probe)
        and all(record["labels"].get(key) == value for key, value in labels.items())
    ]


def _total(records, name, **labels) -> float:
    return sum(record["duration_s"] for record in _spans(records, name, **labels))


def _median(records, name, scale=1.0, per=None, **labels) -> float:
    """Median duration of matching probe spans (divided by label ``per``)."""
    spans = _spans(records, name, probe=True, **labels)
    if not spans:
        raise ValueError(f"no probe span {name} {labels}")
    return stats.median(
        record["duration_s"] * scale / (record["labels"][per] if per else 1)
        for record in spans
    )


def _rate(records, name, label) -> float:
    """Units per second of busy time, over every matching span."""
    spans = _spans(records, name)
    busy = sum(record["duration_s"] for record in spans)
    return sum(record["labels"][label] for record in spans) / busy if busy else 0.0


def parse_importtime(stderr: str) -> dict[str, float]:
    """Startup readings (ms) from ``python -X importtime`` output."""
    cumulative, scipy_self, modules, top_repro = {}, 0.0, 0, 0.0
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not match:
            continue
        own, total, indent, module = int(match[1]), int(match[2]), len(match[3]), match[4]
        modules += 1
        cumulative[module] = total / 1000.0
        if module.split(".")[0] == "scipy":
            scipy_self += own / 1000.0
        if indent == 1 and module.split(".")[0] == "repro":
            top_repro += total / 1000.0
    readings = {key: cumulative.get(module, 0.0) for key, module in IMPORT_MODULES.items()}
    readings["import_cli_ms"] = top_repro
    readings["import_scipy_ms"] = scipy_self
    readings["modules_loaded"] = modules
    return readings


METRICS: list[tuple[str, str]] = (
    [("startup.interpreter_ms", "ms")]
    + [(f"startup.{key}", "ms") for key in
       ("import_cli_ms", "import_registry_ms", "import_scipy_ms", "import_pkg_ms",
        "import_engine_ms")]
    + [("startup.modules_loaded", "count")]
    + [(f"experiments.{eid}.compute_s", "s") for eid in EXPERIMENT_IDS]
    + [("experiments.parse_ms", "ms"), ("experiments.render_ms", "ms")]
    + [("engine.cache.fingerprint_ms", "ms"), ("engine.cache.get_hit_ms", "ms"),
       ("engine.cache.put_ms", "ms"), ("engine.cache.hits", "count"),
       ("engine.cache.misses", "count")]
    + [("engine.pool.spawn_ms", "ms"), ("engine.pool.job_rtt_ms", "ms")]
    + [("engine.daemon.start_s", "s"), ("engine.daemon.ping_ms", "ms"),
       ("engine.daemon.submit_hit_ms", "ms"), ("engine.daemon.fleet_request_s", "s"),
       ("engine.daemon.busy_frames", "count")]
    + [(f"fleet.{what}.{puf}", unit) for what, unit in
       (("provision_ms", "ms"), ("enroll_ms", "ms"), ("auth_cold_us", "us"),
        ("auth_warm_us", "us")) for puf in PUF_KEYS.values()]
    + [("fleet.similarity_us", "us")]
    + [(f"puf.evaluate_us.{puf}", "us") for puf in PUF_KEYS.values()]
    + [("puf.quality_pairs_per_s", "1/s"), ("puf.temperature_pairs_per_s", "1/s"),
       ("puf.jaccard_us", "us"), ("dram.module_build_ms", "ms")]
    + [("rng.nist_suite_s", "s")] + [(f"rng.nist.{test}_ms", "ms") for test in NIST_TESTS]
    + [("memctrl.run_s", "s"), ("memctrl.dram_ops", "count"),
       ("memctrl.host_ns_per_dram_op", "ns"), ("dealloc.study_s", "s"),
       ("circuit.mc_samples_per_s", "1/s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("telemetry.traced_wall_s", "s"), ("telemetry.trace_overhead_ratio", "ratio")]
)


def per_layer_metrics(records, root_span: str, overhead_ratio: float) -> dict[str, float]:
    """Every metric of :data:`METRICS` from the records of one traced run."""
    values: dict[str, float] = {}
    values["startup.interpreter_ms"] = _median(records, "startup.interpreter", 1e3)
    imports = _spans(records, "startup.importtime", probe=True)
    for key in ("import_cli_ms", "import_registry_ms", "import_scipy_ms", "import_pkg_ms",
                "import_engine_ms", "modules_loaded"):
        values[f"startup.{key}"] = stats.median(record["labels"][key] for record in imports)
    for eid in EXPERIMENT_IDS:
        values[f"experiments.{eid}.compute_s"] = _total(records, "experiments.compute", id=eid)
    values["experiments.parse_ms"] = _median(records, "experiments.parse", 1e3)
    values["experiments.render_ms"] = _median(records, "experiments.render", 1e3)
    values["engine.cache.fingerprint_ms"] = _median(records, "engine.cache.fingerprint", 1e3)
    values["engine.cache.get_hit_ms"] = _median(records, "engine.cache.get", 1e3, hit=True)
    values["engine.cache.put_ms"] = _median(records, "engine.cache.put", 1e3)
    # Counts of the workload's own traced calls (the probes' lookups excluded).
    lookups = _spans(records, "engine.cache.get", probe=False)
    values["engine.cache.hits"] = sum(1 for r in lookups if r["labels"].get("hit"))
    values["engine.cache.misses"] = sum(1 for r in lookups if not r["labels"].get("hit"))
    values["engine.pool.spawn_ms"] = _median(records, "engine.pool.spawn", 1e3)
    values["engine.pool.job_rtt_ms"] = _median(records, "engine.pool.job", 1e3)
    values["engine.daemon.start_s"] = _median(records, "engine.daemon.start")
    values["engine.daemon.ping_ms"] = _median(records, "engine.daemon.ping", 1e3)
    values["engine.daemon.submit_hit_ms"] = _median(records, "engine.daemon.submit", 1e3)
    values["engine.daemon.fleet_request_s"] = _median(records, "engine.daemon.fleet")
    values["engine.daemon.busy_frames"] = sum(
        record["labels"]["busy_frames"] for record in _spans(records, "engine.daemon.status")
    )
    for puf in PUF_KEYS.values():
        values[f"fleet.provision_ms.{puf}"] = _median(records, "fleet.provision", 1e3, puf=puf)
        values[f"fleet.enroll_ms.{puf}"] = _median(records, "fleet.enroll", 1e3, puf=puf)
        for phase in ("cold", "warm"):
            values[f"fleet.auth_{phase}_us.{puf}"] = _median(
                records, f"fleet.auth_{phase}", 1e6, per="requests", puf=puf
            )
        values[f"puf.evaluate_us.{puf}"] = _median(records, "puf.evaluate", 1e6, puf=puf)
    values["fleet.similarity_us"] = _median(records, "fleet.similarity", 1e6)
    values["puf.quality_pairs_per_s"] = _rate(records, "puf.quality_pairs", "pairs")
    values["puf.temperature_pairs_per_s"] = _rate(records, "puf.temperature_pairs", "pairs")
    values["puf.jaccard_us"] = _median(records, "puf.jaccard", 1e6)
    values["dram.module_build_ms"] = _median(records, "dram.module_build", 1e3)
    values["rng.nist_suite_s"] = _total(records, "rng.nist_suite")
    for test in NIST_TESTS:
        values[f"rng.nist.{test}_ms"] = _total(records, "rng.nist_test", test=test) * 1e3
    runs = _spans(records, "memctrl.run")
    run_s = sum(record["duration_s"] for record in runs)
    ops = sum(record["labels"]["dram_ops"] for record in runs)
    values["memctrl.run_s"] = run_s
    values["memctrl.dram_ops"] = ops
    values["memctrl.host_ns_per_dram_op"] = run_s * 1e9 / ops if ops else 0.0
    values["dealloc.study_s"] = _total(records, "dealloc.study")
    values["circuit.mc_samples_per_s"] = _rate(records, "circuit.shard_flips", "samples")
    layer_self = stats.layer_self_times(records, root_span)
    unknown = set(layer_self) - set(LAYERS)
    if unknown:
        raise ValueError(f"spans of unlisted layers: {sorted(unknown)}")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    root = next(record for record in records if record["span"] == root_span)
    values["telemetry.traced_wall_s"] = root["duration_s"]
    values["telemetry.trace_overhead_ratio"] = overhead_ratio
    return values
