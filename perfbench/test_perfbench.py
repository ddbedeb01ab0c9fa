"""Tests of the benchmark's own statistics, output gate and span accounting."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import layers, stats, tracing, workloads
from perfbench.procs import CallResult
from perfbench.run import END_TO_END, _outcome, summarize

ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
def test_tail_leaves_ten_samples_beyond_and_reports_the_count():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.tail(values) == (90, 90.0, 100)


def test_tail_of_the_smallest_qualifying_sample():
    value, percentile, count = stats.tail([5.0] * 10 + [1.0])
    assert (value, count) == (1.0, 11)
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_is_undefined_without_enough_samples():
    assert stats.tail(list(range(10))) is None


def test_tail_of_twenty_samples_is_the_median_rank():
    assert stats.tail(range(1, 21)) == (10, 50.0, 20)


# ----------------------------------------------------------------------
# Output gate
# ----------------------------------------------------------------------
def _result(stdout: bytes, stderr: str = "", code: int = 0) -> CallResult:
    return CallResult(wall_s=1.0, returncode=code, stdout=stdout, stderr=stderr)


def _call(check) -> workloads.Call:
    return workloads.Call("routed", ["table2", "--json"], 1, check)


def test_reference_mismatch_counts_as_failed_and_incorrect():
    expected = workloads.digest(b"{}\n")
    check = workloads._digest_check(expected)
    outcomes = [_outcome(_call(check), _result(b"{}\n")),
                _outcome(_call(check), _result(b'{"x": 1}\n'))]
    assert summarize(outcomes) == {"correct": False, "attempted": 2, "failed": 1}


def test_routed_reply_not_from_memory_index_counts_as_failed():
    expected = workloads.digest(b"{}\n")
    check = workloads._digest_check(expected, "daemon: routing via", "1 from memory index")
    served_inline = _result(b"{}\n", "cache: 1 hits, 0 misses (100% hit rate)")
    outcome = _outcome(_call(check), served_inline)
    assert "not served as expected" in outcome["failure"]
    assert summarize([outcome]) == {"correct": True, "attempted": 1, "failed": 1}


def test_nonzero_exit_counts_as_failed_and_incorrect():
    outcome = _outcome(_call(workloads._digest_check("0")), _result(b"", "boom", code=1))
    assert summarize([outcome]) == {"correct": False, "attempted": 1, "failed": 1}


def _fleet_reply(cached: bool, **fields) -> bytes:
    reply = {key: 0 for key in workloads.FLEET_FIELDS}
    reply.update(fields, latency={"cached": cached})
    return json.dumps(reply).encode()


def test_fleet_reply_from_cache_or_with_wrong_fields_counts_as_failed():
    expected = {key: 0 for key in workloads.FLEET_FIELDS}
    check = workloads._fleet_check(expected)
    routed = "daemon: routing via x"
    assert check(_result(_fleet_reply(False), routed)) is None
    assert "cache" in check(_result(_fleet_reply(True), routed))
    assert check(_result(_fleet_reply(False, frr=0.5), routed)).startswith("deterministic")
    assert "not routed" in check(_result(_fleet_reply(False), "fleet: inline"))


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _record(span, parent, name, start, end):
    return {"span": span, "parent": parent, "name": name, "ts": start,
            "duration_s": end - start, "labels": {}}


def test_self_time_is_span_time_minus_what_children_cover():
    records = [
        _record("root", None, "bench.traced", 0.0, 10.0),
        _record("a", "root", "engine.cache.get", 1.0, 4.0),
        _record("b", "root", "engine.cache.put", 3.0, 6.0),   # overlaps a
        _record("c", "root", "puf.evaluate", 8.0, 12.0),      # runs past the root
        _record("d", "a", "engine.cache.fingerprint", 2.0, 3.0),
    ]
    selfs = stats.self_times(records)
    assert selfs["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["b"] == pytest.approx(3.0)


def test_layer_self_times_add_up_to_the_root():
    records = [
        _record("root", None, "bench.traced", 0.0, 10.0),
        _record("call", "root", "bench.call", 0.0, 6.0),
        _record("i", "call", "startup.import_cli", 0.5, 2.0),
        _record("g", "call", "engine.cache.get", 2.0, 3.0),
        _record("p", "root", "puf.evaluate", 7.0, 9.0),
        _record("x", None, "bench.setup", -5.0, 0.0),  # outside the root
    ]
    totals = stats.layer_self_times(records, "root")
    assert totals == pytest.approx({"startup": 1.5, "engine.cache": 1.0, "puf": 2.0,
                                    "other": 5.5})
    assert sum(totals.values()) == pytest.approx(10.0)


def test_generator_span_stays_open_until_consumed():
    recorder = tracing.Recorder("t", root="parent")

    def frames():
        yield 1
        with recorder.span("experiments.render"):
            pass
        yield 2

    wrapped = tracing._wrap(recorder, frames, "engine.daemon.submit", None, None)
    assert list(wrapped()) == [1, 2]
    render, submit = recorder.records
    assert submit["name"] == "engine.daemon.submit" and submit["parent"] == "parent"
    assert render["parent"] == submit["span"]


# ----------------------------------------------------------------------
# Contract and formats
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.METRICS


def test_trace_record_keys_mirror_the_program():
    spans = pytest.importorskip("repro.telemetry.spans")
    assert tracing.TRACE_RECORD_KEYS == spans.TRACE_RECORD_KEYS


def test_nist_tests_mirror_the_program():
    suite = pytest.importorskip("repro.rng.nist.suite")
    assert layers.NIST_TESTS == suite.NIST_TEST_NAMES


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:      5000 |       5000 |     scipy._lib",
        "import time:      2000 |       7000 |   scipy.special",
        "import time:      1000 |       8000 | repro.rng.nist",
        "import time:       500 |        500 |   repro.engine",
        "import time:      3000 |      30000 | repro",
        "import time:      4000 |      20000 | repro.experiments.__main__",
    ])
    readings = layers.parse_importtime(text)
    assert readings["import_cli_ms"] == pytest.approx(58.0)
    assert readings["import_pkg_ms"] == pytest.approx(30.0)
    assert readings["import_engine_ms"] == pytest.approx(0.5)
    assert readings["import_scipy_ms"] == pytest.approx(7.0)
    assert readings["modules_loaded"] == 7
