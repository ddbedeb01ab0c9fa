"""Experiment drivers that regenerate every table and figure of the paper.

Each driver module exposes a ``run(quick=True)`` function returning an
:class:`ExperimentResult` whose rows mirror the corresponding table or the
series of the corresponding figure.  ``quick=True`` shrinks sample counts so
that the full set of experiments finishes in minutes on a laptop;
``quick=False`` uses paper-scale sample counts.

The registry maps experiment identifiers (e.g. ``"table2"``, ``"fig7"``) to
their drivers so that the benchmark harness and the command-line report
generator can enumerate them; a driver module is imported only when its
experiment is first looked up.
"""

from repro._lazy import lazy_exports

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment", "run_all"]

#: Re-exported name -> defining module, imported on first attribute access.
__getattr__ = lazy_exports(globals(), {
    "ExperimentResult": "repro.experiments.base",
    **dict.fromkeys(("EXPERIMENTS", "run_experiment", "run_all"), "repro.experiments.registry"),
})
