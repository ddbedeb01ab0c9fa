"""Tests for the experiment drivers (paper tables/figures reproduction)."""

from __future__ import annotations

import pytest

import repro
import repro.experiments
import repro.utils
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.base import ExperimentResult

#: Every registered experiment, in registry (report) order.
REGISTRY_ORDER = [
    "table1", "table2", "waveforms", "fig5", "fig6", "aging",
    "table4", "table10", "fig7", "fig7-energy", "table6", "table11",
    "fig8", "fig9", "fleet-roc", "fleet-aging",
]

#: The experiment driver modules, which pull in numpy, scipy and the simulator.
DRIVER_MODULES = [
    f"repro.experiments.{name}"
    for name in ("substrate_tables", "puf_experiments", "coldboot_experiments",
                 "dealloc_experiments", "fleet_experiments")
]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert list(EXPERIMENTS) == REGISTRY_ORDER
        assert all(callable(EXPERIMENTS[eid]) for eid in EXPERIMENTS)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")
        with pytest.raises(KeyError):
            EXPERIMENTS["fig99"]
        assert "fig99" not in EXPERIMENTS

    def test_registry_answers_ids_and_membership_without_importing_drivers(
        self, fresh_python
    ):
        loaded = fresh_python(
            "import json, sys\n"
            "from repro.experiments.registry import EXPERIMENTS\n"
            "ids, members = list(EXPERIMENTS), ['fig99' in EXPERIMENTS, 'table2' in EXPERIMENTS]\n"
            "print(json.dumps({'ids': ids, 'members': members, 'modules': sorted(sys.modules)}))\n"
        )
        assert loaded["ids"] == REGISTRY_ORDER
        assert loaded["members"] == [False, True]
        assert not set(DRIVER_MODULES) & set(loaded["modules"])

    def test_cli_import_loads_no_numpy_scipy_or_driver(self, fresh_python):
        modules = set(fresh_python(
            "import json, sys\n"
            "import repro.experiments.__main__\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        ))
        heavy = {name for name in modules if name.split(".")[0] in ("numpy", "scipy")}
        assert not heavy
        assert not set(DRIVER_MODULES) & modules

    @pytest.mark.parametrize("package", [repro, repro.experiments, repro.utils],
                             ids=lambda package: package.__name__)
    def test_every_reexport_resolves(self, package):
        for name in package.__all__:
            assert getattr(package, name) is not None
        with pytest.raises(AttributeError):
            getattr(package, "no_such_export")


class TestResultContainer:
    def test_add_row_validates_width(self):
        result = ExperimentResult("x", "t", headers=["a", "b"])
        result.add_row(1, 2)
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_column_and_row_lookup(self):
        result = ExperimentResult("x", "t", headers=["name", "value"])
        result.add_row("one", 1)
        result.add_row("two", 2)
        assert result.column("value") == [1, 2]
        assert result.row_by("name", "two") == ["two", 2]
        with pytest.raises(KeyError):
            result.column("missing")
        with pytest.raises(KeyError):
            result.row_by("name", "three")

    def test_render_includes_notes(self):
        result = ExperimentResult("x", "t", headers=["a"])
        result.add_row(1)
        result.add_note("hello")
        rendered = result.render()
        assert "hello" in rendered
        assert "x: t" in rendered


class TestFastDrivers:
    def test_table1_lists_all_variants(self):
        result = run_experiment("table1")
        assert len(result.rows) >= 7

    def test_table2_matches_paper(self):
        result = run_experiment("table2")
        latencies = dict(zip(result.column("Primitive"), result.column("Latency (ns)")))
        assert latencies["CODIC-activate"] == 35.0
        assert latencies["CODIC-sig-opt"] == 13.0
        energies = dict(zip(result.column("Primitive"), result.column("Energy (nJ)")))
        assert all(17.0 <= energy <= 17.5 for energy in energies.values())

    def test_waveforms_landmarks(self):
        result = run_experiment("waveforms")
        sig_row = result.row_by("Figure", "fig3a-codic-sig")
        assert sig_row[2] == pytest.approx(0.5, abs=0.05)
        det_row = result.row_by("Figure", "fig3b-codic-det")
        assert det_row[2] == pytest.approx(0.0, abs=0.05)

    def test_table4_ratios(self):
        result = run_experiment("table4")
        values = dict(zip(result.column("PUF"), result.column("With filter (ms)")))
        assert values["CODIC-sig PUF"] < values["PreLatPUF"] < values["DRAM Latency PUF"]

    def test_table6_rows(self):
        result = run_experiment("table6")
        assert len(result.rows) == 3
        codic_row = result.row_by("Mechanism", "CODIC Self-Destruction")
        assert codic_row[1] == 0.0  # zero runtime performance overhead

    def test_table11_monotonic(self):
        result = run_experiment("table11")
        pv_rows = [row for row in result.rows if row[0] == "process variation"]
        flips = [row[2] for row in pv_rows]
        assert flips[0] == 0.0
        assert flips[-1] > 0.0

    def test_fig7_codic_column_fastest(self):
        result = run_experiment("fig7")
        assert len(result.rows) == 6
        # The speedup column must show CODIC is always faster than TCG.
        for speedup in result.column("CODIC speedup vs TCG"):
            assert speedup.endswith("x")
            assert float(speedup[:-1]) > 100

    def test_fig7_energy_ratios(self):
        result = run_experiment("fig7-energy")
        ratios = dict(zip(result.column("Mechanism"), result.column("Ratio vs CODIC")))
        assert float(ratios["TCG"][:-1]) > 10
        assert float(ratios["CODIC"][:-1]) == pytest.approx(1.0)


class TestSlowDriversQuickMode:
    def test_fig6_codic_robust(self):
        result = run_experiment("fig6")
        codic_row = result.row_by("PUF", "CODIC-sig PUF")
        assert codic_row[-1] > 0.9  # still repeatable at dT = 55C
        latency_row = result.row_by("PUF", "DRAM Latency PUF")
        assert latency_row[-1] < latency_row[1]

    def test_aging_driver(self):
        result = run_experiment("aging")
        assert result.rows[0][1] > 0.9
