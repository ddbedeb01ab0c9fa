"""Shared utilities: units, deterministic RNG helpers, and table rendering.

These helpers are deliberately small and dependency-free so that every other
subpackage can rely on them without introducing import cycles.
"""

from repro._lazy import lazy_exports

__all__ = [
    "KB",
    "MB",
    "GB",
    "NS_PER_US",
    "NS_PER_MS",
    "NS_PER_S",
    "format_bytes",
    "format_time_ns",
    "format_energy_nj",
    "derive_seed",
    "make_rng",
    "render_table",
]

#: Re-exported name -> defining module, imported on first attribute access
#: (``repro.utils.rng`` pulls in numpy; units and tables do not).
__getattr__ = lazy_exports(globals(), {
    **dict.fromkeys(
        ("KB", "MB", "GB", "NS_PER_US", "NS_PER_MS", "NS_PER_S",
         "format_bytes", "format_time_ns", "format_energy_nj"),
        "repro.utils.units",
    ),
    "derive_seed": "repro.utils.rng",
    "make_rng": "repro.utils.rng",
    "render_table": "repro.utils.tables",
})
