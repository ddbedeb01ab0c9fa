"""Check, and on request rewrite, the golden fixtures in this directory.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py                # check all
    PYTHONPATH=src python tests/golden/regenerate.py fig8_quick     # check some
    PYTHONPATH=src python tests/golden/regenerate.py --overwrite fig8_quick

A fixture id is its file name without ``.json``: ``<experiment>_quick`` for
the 16 quick experiment results and ``fleet-cli_<puf>`` for the three
``fleet --json`` documents.  Each fixture is rendered exactly as the golden
tests render it (``tests/test_array_pipeline.py`` and
``tests/test_fleet_cli_golden.py``) and compared byte for byte.

By default nothing is written: the script reports ``ok``, ``DIFFERS`` or
``MISSING`` per fixture and exits 1 if any fixture is not byte-identical.
A fixture is rewritten only when its id is named with ``--overwrite``; a
regenerated fixture changes what the tests pin, so record each one in
``CHANGES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path
from typing import Callable

GOLDEN_DIR = Path(__file__).resolve().parent

#: Experiments pinned by ``<id>_quick.json`` (all registered experiments).
QUICK_EXPERIMENTS = (
    "table1", "table2", "waveforms", "fig5", "fig6", "aging", "table4",
    "table10", "fig7", "fig7-energy", "table6", "table11", "fig8", "fig9",
    "fleet-roc", "fleet-aging",
)

#: PUFs pinned by ``fleet-cli_<puf>.json``, and the run each one records.
FLEET_PUFS = ("CODIC-sig PUF", "PreLatPUF", "DRAM Latency PUF")
FLEET_ARGS = (
    "fleet", "--devices", "200", "--requests", "300", "--impostor-ratio", "0.25",
    "--temperature-jitter", "5", "--challenges", "2", "--json", "--no-daemon",
)
#: Wall-clock keys of the fleet document, which no fixture can pin.
FLEET_VOLATILE_KEYS = ("elapsed_seconds", "auths_per_second", "latency")


def render_quick(experiment_id: str) -> str:
    """The quick result of one experiment, as its golden file holds it."""
    from repro.engine import ExperimentJob

    result = ExperimentJob(experiment_id=experiment_id, quick=True).run()
    return json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"


def render_fleet(puf: str) -> str:
    """The deterministic fields of one inline ``fleet --json`` run."""
    from repro.experiments.__main__ import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([*FLEET_ARGS, "--puf", puf])
    if code != 0:
        raise RuntimeError(f"fleet run for {puf!r} exited with code {code}")
    document = json.loads(stdout.getvalue())
    for key in FLEET_VOLATILE_KEYS:
        del document[key]
    return json.dumps(document, indent=2) + "\n"


def fixtures() -> dict[str, Callable[[], str]]:
    """Fixture id -> function rendering its expected content."""
    table: dict[str, Callable[[], str]] = {}
    for experiment_id in QUICK_EXPERIMENTS:
        table[f"{experiment_id}_quick"] = (
            lambda experiment_id=experiment_id: render_quick(experiment_id)
        )
    for puf in FLEET_PUFS:
        slug = puf.lower().replace(" ", "-")
        table[f"fleet-cli_{slug}"] = lambda puf=puf: render_fleet(puf)
    return table


def main(argv: list[str] | None = None, golden_dir: Path = GOLDEN_DIR) -> int:
    """Check the named fixtures (all when none is named); rewrite only the
    ``--overwrite`` ids."""
    table = fixtures()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="fixtures to check (default: all)")
    parser.add_argument("--overwrite", action="append", default=[], metavar="ID",
                        help="rewrite this fixture if it differs (repeatable)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.ids + args.overwrite) - set(table))
    if unknown:
        parser.error(f"unknown fixture id(s): {', '.join(unknown)}")

    selected = list(dict.fromkeys(args.ids + args.overwrite)) or list(table)
    stale = []
    for fixture in selected:
        path = golden_dir / f"{fixture}.json"
        expected = table[fixture]()
        current = path.read_text() if path.exists() else None
        if current == expected:
            print(f"ok        {fixture}")
        elif fixture in args.overwrite:
            path.write_text(expected)
            print(f"rewritten {fixture}")
        else:
            stale.append(fixture)
            print(f"{'MISSING' if current is None else 'DIFFERS':<9} {fixture}")
    if stale:
        print(f"{len(stale)} fixture(s) not byte-identical; rerun with "
              f"--overwrite <id> to replace them", file=sys.stderr)
        return 1
    print(f"{len(selected)} fixture(s) byte-identical or rewritten")
    return 0


if __name__ == "__main__":
    sys.exit(main())
