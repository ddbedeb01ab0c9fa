"""Run one CLI call of the program with spans around its layer boundaries.

Usage (spawned by ``run.py`` during a traced run)::

    python perfbench/tracecall.py TRACE_FILE TRACE_ID PARENT_SPAN SPAWN_TS -- ARGV...

Behaves like ``python -m repro.experiments ARGV...`` (same stdout, stderr
and exit code) and appends its span records to ``TRACE_FILE``: the
interpreter start since ``SPAWN_TS`` (epoch seconds of the spawn in the
parent), the import of the CLI, then every boundary of
:data:`perfbench.tracing.CLI_BOUNDARIES` and
:data:`perfbench.tracing.COMPUTE_BOUNDARIES` the call crosses.
"""

import time

ENTRY_TS = time.time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    trace_file, trace_id, parent, spawn_ts, separator, *cli_argv = argv
    if separator != "--":
        raise SystemExit("usage: tracecall.py TRACE_FILE TRACE_ID PARENT SPAWN_TS -- ARGV...")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench import tracing

    recorder = tracing.Recorder(trace_id, root=parent)
    recorder.add("startup.interpreter", float(spawn_ts), ENTRY_TS - float(spawn_ts), parent)
    try:
        with recorder.span("startup.import_cli"):
            from repro.experiments import __main__ as cli
        tracing.install(recorder, tracing.CLI_BOUNDARIES + tracing.COMPUTE_BOUNDARIES)
        code = cli.main(cli_argv)
        sys.stdout.flush()
        return code
    finally:
        recorder.dump(trace_file)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
