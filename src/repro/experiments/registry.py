"""Registry of all experiment drivers, keyed by paper table/figure."""

from __future__ import annotations

import importlib
from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING, Callable

from repro.experiments.base import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.engine.cache import ResultCache

Driver = Callable[[bool], ExperimentResult]


class _DriverRegistry(Mapping[str, Driver]):
    """Experiment id -> driver, backed by a static ``id -> (module, function)``
    table: ids, their order, iteration and membership come from the table
    alone, and a lookup imports only that driver's module (the drivers pull
    in numpy, scipy and the simulator stack)."""

    def __init__(self, table: dict[str, tuple[str, str]]):
        self._table = table

    def __getitem__(self, experiment_id: str) -> Driver:
        module, function = self._table[experiment_id]
        return getattr(importlib.import_module(f"repro.experiments.{module}"), function)

    def __contains__(self, experiment_id: object) -> bool:
        # Mapping's default goes through __getitem__, i.e. an import.
        return experiment_id in self._table

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)


#: Every reproducible table/figure, keyed by the identifier the CLI and
#: README.md use, in report order.
EXPERIMENTS: Mapping[str, Driver] = _DriverRegistry({
    "table1": ("substrate_tables", "run_table1"),
    "table2": ("substrate_tables", "run_table2"),
    "waveforms": ("substrate_tables", "run_waveforms"),
    "fig5": ("puf_experiments", "run_fig5"),
    "fig6": ("puf_experiments", "run_fig6"),
    "aging": ("puf_experiments", "run_aging"),
    "table4": ("puf_experiments", "run_table4"),
    "table10": ("puf_experiments", "run_table10"),
    "fig7": ("coldboot_experiments", "run_fig7"),
    "fig7-energy": ("coldboot_experiments", "run_energy_comparison"),
    "table6": ("coldboot_experiments", "run_table6"),
    "table11": ("coldboot_experiments", "run_table11"),
    "fig8": ("dealloc_experiments", "run_fig8"),
    "fig9": ("dealloc_experiments", "run_fig9"),
    "fleet-roc": ("fleet_experiments", "run_fleet_roc"),
    "fleet-aging": ("fleet_experiments", "run_fleet_aging"),
})


def run_experiment(experiment_id: str, quick: bool = True) -> ExperimentResult:
    """Run one experiment by identifier."""
    try:
        driver = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known experiments: "
            f"{sorted(EXPERIMENTS)}"
        ) from None
    return driver(quick)


def run_all(
    quick: bool = True,
    *,
    jobs: int = 1,
    shard_size: int | None = None,
    cache: "ResultCache | None" = None,
) -> dict[str, ExperimentResult]:
    """Run every registered experiment and return results keyed by id.

    Execution is routed through :mod:`repro.engine`: ``jobs > 1`` fans the
    drivers out across worker processes, ``shard_size`` additionally splits
    the shardable experiments (Table 11, Figures 5/6, aging) into sample/pair
    ranges scheduled on the same pool, and passing a
    :class:`~repro.engine.cache.ResultCache` serves repeat invocations from
    disk.  Result ordering and values match the registry regardless of worker
    count or shard size.
    """
    # Imported lazily: the engine's job classes resolve this registry at call
    # time, so a module-level import here would be circular.
    from repro.engine.jobs import ExperimentJob
    from repro.engine.sharding import run_sharded

    outcomes = run_sharded(
        [ExperimentJob(experiment_id, quick=quick) for experiment_id in EXPERIMENTS],
        shard_size=shard_size,
        workers=jobs,
        cache=cache,
    )
    return {outcome.job.experiment_id: outcome.value for outcome in outcomes}


def render_report(quick: bool = True, *, jobs: int = 1) -> str:
    """Render a full plain-text reproduction report (all experiments)."""
    sections = [result.render() for result in run_all(quick, jobs=jobs).values()]
    return "\n\n".join(sections)
