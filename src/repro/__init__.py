"""repro -- a reproduction of CODIC (ISCA 2021).

CODIC is a low-cost DRAM substrate that enables fine-grained, programmable
control over four internal DRAM circuit timing signals (``wl``, ``EQ``,
``sense_p``, ``sense_n``).  This package reproduces the paper end-to-end:

* :mod:`repro.core`        -- the CODIC substrate itself (signal schedules,
  command variants, delay elements, mode registers).
* :mod:`repro.circuit`     -- a behavioral analog model of the DRAM cell /
  bitline / sense-amplifier circuit (the SPICE substitute).
* :mod:`repro.dram`        -- DDR3 device model: geometry, timings, banks,
  chips with per-cell process variation, modules, and the paper's 136-chip
  population.
* :mod:`repro.memctrl`     -- a Ramulator-style memory controller and system
  simulator (FR-FCFS scheduling, in-order core, caches, trace-driven).
* :mod:`repro.power`       -- DRAMPower-style per-command energy model.
* :mod:`repro.puf`         -- the CODIC-sig PUF and the DRAM Latency PUF /
  PreLatPUF baselines, with Jaccard-index evaluation.
* :mod:`repro.rng`         -- Von Neumann extractor and the NIST SP 800-22
  statistical test suite.
* :mod:`repro.coldboot`    -- the self-destruction cold-boot-attack
  prevention mechanism and its baselines (TCG, RowClone, LISA-clone) and
  cipher-based alternatives.
* :mod:`repro.dealloc`     -- CODIC-based secure deallocation and its
  software / RowClone / LISA baselines.
* :mod:`repro.experiments` -- drivers that regenerate every table and figure
  of the paper's evaluation.

Quickstart
----------
>>> from repro import CODICSubstrate
>>> substrate = CODICSubstrate()
>>> _ = substrate.configure("CODIC-sig")      # program the mode registers
>>> result = substrate.simulate_cell(initial_cell_voltage=1.0)
>>> result.cell_at_precharge                  # the cell was driven to Vdd/2
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "CODICCommand",
    "CODICSubstrate",
    "CODICVariant",
    "SignalSchedule",
    "VariantFunction",
    "VariantLibrary",
    "standard_variants",
    "CellCircuitSimulator",
    "MonteCarloEngine",
    "DRAMChip",
    "DRAMModule",
    "paper_population",
    "CommandEnergyModel",
    "__version__",
]

#: Re-exported name -> defining subpackage, imported on first attribute
#: access, so ``import repro`` (and the CLI's routing path) stays free of
#: numpy and the simulator stack.
__getattr__ = lazy_exports(globals(), {
    **dict.fromkeys(
        ("CODICCommand", "CODICSubstrate", "CODICVariant", "SignalSchedule",
         "VariantFunction", "VariantLibrary", "standard_variants"),
        "repro.core",
    ),
    "CellCircuitSimulator": "repro.circuit",
    "MonteCarloEngine": "repro.circuit",
    "DRAMChip": "repro.dram",
    "DRAMModule": "repro.dram",
    "paper_population": "repro.dram",
    "CommandEnergyModel": "repro.power",
})
