"""Tests for the perf-regression sentinel (``benchmarks/check_regression.py``).

Like the other benchmark tooling, the sentinel is deliberately package-free,
so the tests load it by file path and drive :func:`main` with synthetic
baseline trajectories and fresh artifacts.  The guarded contract is the CI
enforcement policy: schema violations always exit 2, regressions exit 1
only when enforced (non-smoke, not ``--report-only``), and everything emits
one machine-readable JSON verdict on stdout.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_MODULE_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
)


@pytest.fixture(scope="module")
def sentinel():
    spec = importlib.util.spec_from_file_location("check_regression", _MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _baseline(entries) -> dict:
    return {
        "schema_version": 1,
        "description": "synthetic pairs/sec trajectory",
        "workload": {"experiment": "synthetic"},
        "unit": "pairs_per_second",
        "entries": entries,
    }


def _entry(label, rates, *, smoke=False, pairs=60) -> dict:
    return {
        "label": label,
        "date": "2026-08-01",
        "smoke": smoke,
        "pairs": pairs,
        "pairs_per_second": rates,
    }


BASELINE = _baseline(
    [
        _entry("old", {"scalar": {"PUF-A": 100.0, "PUF-B": 80.0}}),
        _entry("smoke-noise", {"scalar": {"PUF-A": 5.0}}, smoke=True),
        _entry("new", {"scalar": {"PUF-A": 120.0}, "warm": {"PUF-A": 400.0}}),
    ]
)


@pytest.fixture
def files(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def _run(sentinel, capsys, argv):
    code = sentinel.main(argv)
    captured = capsys.readouterr()
    verdict = json.loads(captured.out) if captured.out.strip() else None
    return code, verdict, captured.err


class TestBaselineSeries:
    def test_latest_non_smoke_entry_wins_per_series(self, sentinel):
        series = sentinel.baseline_series(BASELINE)
        # PUF-A: the newest non-smoke entry (120.0), never the smoke 5.0.
        assert series[("scalar", "PUF-A")] == (120.0, "new")
        # PUF-B only exists in the older entry: older entries fill gaps.
        assert series[("scalar", "PUF-B")] == (80.0, "old")
        assert series[("warm", "PUF-A")] == (400.0, "new")


class TestVerdicts:
    def test_matching_rates_pass(self, sentinel, files, capsys):
        fresh = _entry("local", {"scalar": {"PUF-A": 121.0}})
        code, verdict, _ = _run(sentinel, capsys, [
            "--fresh", files("fresh.json", fresh),
            "--baseline", files("base.json", BASELINE),
        ])
        assert code == 0
        assert verdict["status"] == "ok"
        assert verdict["enforced"] is True
        (row,) = verdict["series"]
        assert row["status"] == "ok"
        assert row["baseline"] == 120.0
        assert row["ratio"] == pytest.approx(121.0 / 120.0, abs=1e-3)

    def test_drop_beyond_tolerance_fails(self, sentinel, files, capsys):
        fresh = _entry("local", {"scalar": {"PUF-A": 60.0}})  # 50% drop
        code, verdict, err = _run(sentinel, capsys, [
            "--fresh", files("fresh.json", fresh),
            "--baseline", files("base.json", BASELINE),
        ])
        assert code == 1
        assert verdict["status"] == "regression"
        assert verdict["regressions"] == 1
        assert "regression: scalar/PUF-A" in err

    def test_drop_within_tolerance_passes(self, sentinel, files, capsys):
        fresh = _entry("local", {"scalar": {"PUF-A": 90.0}})  # 25% drop
        code, verdict, _ = _run(sentinel, capsys, [
            "--fresh", files("fresh.json", fresh),
            "--baseline", files("base.json", BASELINE),
            "--tolerance", "0.30",
        ])
        assert code == 0 and verdict["status"] == "ok"

    def test_band_overrides_the_global_tolerance_per_config(
        self, sentinel, files, capsys
    ):
        fresh = _entry(
            "local", {"scalar": {"PUF-A": 110.0}, "warm": {"PUF-A": 220.0}}
        )  # warm dropped 45%
        code, verdict, _ = _run(sentinel, capsys, [
            "--fresh", files("fresh.json", fresh),
            "--baseline", files("base.json", BASELINE),
            "--band", "warm=0.5",
        ])
        assert code == 0
        warm = next(r for r in verdict["series"] if r["config"] == "warm")
        assert warm["status"] == "ok" and warm["tolerance"] == 0.5
        assert verdict["bands"] == {"warm": 0.5}

    def test_new_series_reports_without_failing(self, sentinel, files, capsys):
        fresh = _entry("local", {"batched": {"PUF-A": 7.0}})
        code, verdict, _ = _run(sentinel, capsys, [
            "--fresh", files("fresh.json", fresh),
            "--baseline", files("base.json", BASELINE),
        ])
        assert code == 0
        assert verdict["new_series"] == 1
        (row,) = verdict["series"]
        assert row["status"] == "new" and row["baseline"] is None

    def test_smoke_artifact_regressions_are_report_only(
        self, sentinel, files, capsys
    ):
        fresh = _entry("ci", {"scalar": {"PUF-A": 1.0}}, smoke=True)
        code, verdict, err = _run(sentinel, capsys, [
            "--fresh", files("fresh.json", fresh),
            "--baseline", files("base.json", BASELINE),
        ])
        assert code == 0
        assert verdict["status"] == "regression"
        assert verdict["smoke"] is True and verdict["enforced"] is False
        assert "reported only" in err

    def test_enforce_smoke_makes_smoke_regressions_blocking(
        self, sentinel, files, capsys
    ):
        fresh = _entry("ci", {"scalar": {"PUF-A": 1.0}}, smoke=True)
        code, verdict, _ = _run(sentinel, capsys, [
            "--fresh", files("fresh.json", fresh),
            "--baseline", files("base.json", BASELINE),
            "--enforce-smoke",
        ])
        assert code == 1 and verdict["enforced"] is True

    def test_report_only_flag_never_blocks(self, sentinel, files, capsys):
        fresh = _entry("local", {"scalar": {"PUF-A": 1.0}})
        code, verdict, _ = _run(sentinel, capsys, [
            "--fresh", files("fresh.json", fresh),
            "--baseline", files("base.json", BASELINE),
            "--report-only",
        ])
        assert code == 0
        assert verdict["status"] == "regression" and verdict["enforced"] is False


class TestSchemaGate:
    def test_malformed_fresh_artifact_exits_2(self, sentinel, files, capsys):
        code, verdict, err = _run(sentinel, capsys, [
            "--fresh", files("fresh.json", {"label": 3}),
            "--baseline", files("base.json", BASELINE),
        ])
        assert code == 2 and verdict is None
        assert "schema: fresh: label must be a string" in err

    def test_malformed_baseline_exits_2(self, sentinel, files, capsys):
        code, _, err = _run(sentinel, capsys, [
            "--fresh", files("fresh.json", _entry("l", {"s": {"p": 1.0}})),
            "--baseline", files("base.json", {"entries": []}),
        ])
        assert code == 2
        assert "schema: baseline:" in err

    def test_schema_gate_blocks_even_on_smoke(self, sentinel, files, capsys):
        bad = _entry("ci", {"scalar": {"PUF-A": -1.0}}, smoke=True)
        code, _, err = _run(sentinel, capsys, [
            "--fresh", files("fresh.json", bad),
            "--baseline", files("base.json", BASELINE),
            "--report-only",
        ])
        assert code == 2
        assert "must be a positive number" in err

    def test_unreadable_files_exit_2(self, sentinel, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(BASELINE))
        code, _, err = _run(sentinel, capsys, [
            "--fresh", str(tmp_path / "absent.json"), "--baseline", str(base),
        ])
        assert code == 2 and "cannot read fresh artifact" in err
        junk = tmp_path / "junk.json"
        junk.write_text("{nope")
        code, _, err = _run(sentinel, capsys, [
            "--fresh", str(junk), "--baseline", str(junk),
        ])
        assert code == 2 and "cannot read baseline" in err

    def test_bad_band_or_tolerance_is_a_usage_error(self, sentinel, capsys):
        with pytest.raises(SystemExit) as excinfo:
            sentinel.main(["--fresh", "f", "--baseline", "b", "--band", "warm"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            sentinel.main(
                ["--fresh", "f", "--baseline", "b", "--band", "warm=1.5"]
            )
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            sentinel.main(["--fresh", "f", "--baseline", "b", "--tolerance", "1"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestAgainstCommittedTrajectories:
    def test_committed_baselines_accept_their_own_latest_entries(
        self, sentinel, tmp_path, capsys
    ):
        root = Path(__file__).resolve().parent.parent
        for name in ("BENCH_pair_kernels.json", "BENCH_fleet.json"):
            baseline = json.loads((root / name).read_text())
            fresh = tmp_path / f"fresh-{name}"
            fresh.write_text(json.dumps(baseline["entries"][-1]))
            code, verdict, _ = _run(sentinel, capsys, [
                "--fresh", str(fresh), "--baseline", str(root / name),
            ])
            assert code == 0, name
            assert verdict["status"] == "ok", name
            assert verdict["series"], name

    def test_fresh_fleet_entry_without_scalar_series_passes(
        self, sentinel, tmp_path, capsys
    ):
        # The fleet benchmark no longer measures a `scalar` configuration;
        # baseline series the fresh entry lacks are simply not compared.
        root = Path(__file__).resolve().parent.parent
        baseline = json.loads((root / "BENCH_fleet.json").read_text())
        entry = dict(baseline["entries"][-1])
        entry["auths_per_second"] = {
            config: rates
            for config, rates in entry["auths_per_second"].items()
            if config != "scalar"
        }
        fresh = tmp_path / "fresh-fleet.json"
        fresh.write_text(json.dumps(entry))
        code, verdict, _ = _run(sentinel, capsys, [
            "--fresh", str(fresh), "--baseline", str(root / "BENCH_fleet.json"),
        ])
        assert code == 0
        assert verdict["status"] == "ok"
        configs = {row["config"] for row in verdict["series"]}
        assert configs == {"direct", "warm"}
