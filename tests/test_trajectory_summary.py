"""Tests for the stdlib trajectory summarizer (table and sparkline modes).

``benchmarks/summarize_trajectory.py`` is deliberately package-free (it must
run from a fresh checkout without ``PYTHONPATH``), so the tests load it by
file path.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_MODULE_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "summarize_trajectory.py"
)


@pytest.fixture(scope="module")
def summarize():
    spec = importlib.util.spec_from_file_location("summarize_trajectory", _MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = {
    "workload": {"experiment": "fig5-quality"},
    "unit": "pairs_per_second",
    "entries": [
        {
            "label": "one",
            "date": "2026-01-01",
            "pairs": 60,
            "pairs_per_second": {"scalar": {"CODIC": 100.0, "PreLat": 50.0}},
        },
        {
            "label": "two",
            "date": "2026-01-02",
            "pairs": 120,
            "pairs_per_second": {
                "scalar": {"CODIC": 200.0, "PreLat": 50.0},
                "batched": {"CODIC": 400.0},
            },
        },
        {
            "label": "three",
            "date": "2026-01-03",
            "pairs": 120,
            "pairs_per_second": {
                "scalar": {"CODIC": 300.0},
                "batched": {"CODIC": 800.0},
            },
        },
    ],
}


class TestSparkline:
    def test_monotonic_series_spans_the_ramp(self, summarize):
        line = summarize.sparkline([1.0, 2.0, 3.0, 4.0])
        assert line[0] == summarize.SPARK_BLOCKS[0]
        assert line[-1] == summarize.SPARK_BLOCKS[-1]
        assert len(line) == 4

    def test_flat_series_renders_mid_blocks(self, summarize):
        line = summarize.sparkline([5.0, 5.0, 5.0])
        assert line == summarize.SPARK_BLOCKS[4] * 3

    def test_gaps_render_placeholders(self, summarize):
        line = summarize.sparkline([None, 1.0, None, 9.0])
        assert line[0] == summarize.SPARK_GAP
        assert line[2] == summarize.SPARK_GAP
        assert line[1] == summarize.SPARK_BLOCKS[0]
        assert line[3] == summarize.SPARK_BLOCKS[-1]

    def test_all_missing_series(self, summarize):
        assert summarize.sparkline([None, None]) == summarize.SPARK_GAP * 2


class TestSparklineRows:
    def test_rows_cover_every_series_with_gaps(self, summarize):
        headers, rows = summarize.sparkline_rows(SAMPLE)
        assert headers == ["config", "PUF", "first", "last", "trend"]
        by_series = {(row[0], row[1]): row for row in rows}
        assert set(by_series) == {
            ("scalar", "CODIC"),
            ("scalar", "PreLat"),
            ("batched", "CODIC"),
        }
        scalar_codic = by_series[("scalar", "CODIC")]
        assert scalar_codic[2] == "100.0" and scalar_codic[3] == "300.0"
        assert len(scalar_codic[4]) == 3  # one block per entry
        # PreLat is absent from the last entry: its trend ends in a gap.
        assert by_series[("scalar", "PreLat")][4][-1] == summarize.SPARK_GAP
        # batched starts at entry two: its trend begins with a gap.
        assert by_series[("batched", "CODIC")][4][0] == summarize.SPARK_GAP


class TestMain:
    def write_sample(self, tmp_path) -> Path:
        path = tmp_path / "trajectory.json"
        path.write_text(json.dumps(SAMPLE))
        return path

    def test_table_mode(self, summarize, tmp_path, capsys):
        assert summarize.main(["--file", str(self.write_sample(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "pairs/sec trajectory" in out
        assert "100.0" in out

    def test_sparkline_mode(self, summarize, tmp_path, capsys):
        code = summarize.main(
            ["--file", str(self.write_sample(tmp_path)), "--sparkline"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pairs/sec sparklines" in out
        assert "trend" in out
        assert any(block in out for block in summarize.SPARK_BLOCKS)

    def test_missing_file_is_an_error(self, summarize, tmp_path, capsys):
        assert summarize.main(["--file", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_empty_trajectory(self, summarize, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"workload": {}, "entries": []}))
        assert summarize.main(["--file", str(path), "--sparkline"]) == 0
        assert "no entries" in capsys.readouterr().out

    def test_unit_aware_rendering(self, summarize, tmp_path, capsys):
        # A trajectory file names its own rate unit and work-count column:
        # auths/sec files render without any code change here.
        fleet = {
            "workload": {"experiment": "fleet-auth"},
            "unit": "auths_per_second",
            "count_key": "requests",
            "entries": [
                {
                    "label": "seed",
                    "date": "2026-07-26",
                    "requests": 300,
                    "auths_per_second": {"direct": {"CODIC": 1410.0}},
                }
            ],
        }
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(fleet))
        assert summarize.main(["--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "auths/sec trajectory -- fleet-auth" in out
        assert "requests" in out
        assert "1410.0" in out

    def test_check_mode_accepts_committed_trajectories(self, summarize, capsys):
        assert summarize.main(["--check"]) == 0
        out = capsys.readouterr().out
        assert "BENCH_pair_kernels.json: ok" in out
        assert "BENCH_fleet.json: ok" in out

    def test_entry_without_scalar_series_checks_and_renders(
        self, summarize, tmp_path, capsys
    ):
        # New fleet entries carry only `direct` and `warm`; appended after
        # the committed entries (which keep their `scalar` series) the
        # trajectory must still validate and render, with gaps.
        root = Path(__file__).resolve().parent.parent
        fleet = json.loads((root / "BENCH_fleet.json").read_text())
        entry = dict(fleet["entries"][-1], label="no-scalar")
        entry["auths_per_second"] = {
            config: rates
            for config, rates in entry["auths_per_second"].items()
            if config != "scalar"
        }
        fleet["entries"].append(entry)
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(fleet))
        assert summarize.main(["--file", str(path), "--check"]) == 0
        assert "fleet.json: ok" in capsys.readouterr().out
        assert summarize.main(["--file", str(path)]) == 0
        assert "no-scalar" in capsys.readouterr().out
        assert summarize.main(["--file", str(path), "--sparkline"]) == 0
        capsys.readouterr()

    def test_check_mode_flags_schema_violations(self, summarize, tmp_path, capsys):
        broken = {
            "schema_version": 1,
            "description": "broken sample",
            "workload": {},
            "unit": "pairs_per_second",
            "entries": [
                {
                    "label": "bad entry",
                    "smoke": False,
                    "pairs": 0,  # must be positive
                    "pairs_per_second": {"scalar": {"CODIC": -5.0}},  # must be > 0
                },
                {
                    # label/smoke/pairs missing entirely
                    "pairs_per_second": {},
                },
            ],
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        assert summarize.main(["--file", str(path), "--check"]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "entries[0].pairs must be a positive integer" in out
        assert "positive number" in out
        assert "entries[1].label must be a string" in out

    def test_check_mode_requires_header_fields(self, summarize, tmp_path, capsys):
        path = tmp_path / "headless.json"
        path.write_text(json.dumps({"entries": []}))
        assert summarize.main(["--file", str(path), "--check"]) == 1
        out = capsys.readouterr().out
        assert "schema_version must be an integer" in out
        assert "unit must be a string" in out

    def test_check_mode_rejects_unreadable_file(self, summarize, tmp_path, capsys):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        assert summarize.main(["--file", str(path), "--check"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_committed_trajectories_render(self, summarize, capsys):
        # The repo's own BENCH_pair_kernels.json and BENCH_fleet.json must
        # stay renderable; without --file both are printed.
        assert summarize.main([]) == 0
        out = capsys.readouterr().out
        assert "pairs/sec trajectory" in out
        assert "auths/sec trajectory" in out
        assert summarize.main(["--sparkline"]) == 0
        spark = capsys.readouterr().out
        assert "pairs/sec sparklines" in spark
        assert "auths/sec sparklines" in spark
