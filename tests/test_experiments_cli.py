"""Tests for the command-line reproduction report generator."""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import build_parser, main
from repro.experiments.registry import EXPERIMENTS


class TestCLI:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        listed = capsys.readouterr().out.split()
        assert set(listed) == set(EXPERIMENTS)

    def test_run_single_experiment(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "CODIC-sig" in output
        assert "Latency (ns)" in output

    def test_run_multiple_experiments(self, capsys):
        assert main(["table4", "table6"]) == 0
        output = capsys.readouterr().out
        assert "PreLatPUF" in output
        assert "ChaCha-8" in output

    def test_unknown_experiment_is_an_error(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiments == []
        assert not args.full
        assert not args.list_experiments


def _served_events(jobs) -> list[dict]:
    """The event payloads a daemon would stream for ``jobs`` (run inline)."""
    from repro.engine import iter_sharded

    roots = {id(job) for job in jobs}
    return [
        event.to_dict(include_value=event.terminal and id(event.job) in roots)
        for event in iter_sharded(jobs)
    ]


def _scripted_client(script: list[str]):
    """A :class:`~repro.engine.DaemonClient` stand-in replaying ``script``.

    Each entry scripts one routed attempt: ``"done"``, a refusal or abort
    frame type (``busy``/``stale``/``timeout``/``cancelled``/``error``), or
    ``"drop"`` for a connection lost mid-stream.  An ``"events+"`` prefix
    streams the requested jobs' real events before that ending.
    """
    from repro import telemetry
    from repro.engine import DaemonError

    class ScriptedClient:
        socket_path = "scripted.sock"
        attempts: list[str] = []

        def __init__(self, *args, **kwargs):
            pass

        def is_running(self) -> bool:
            return True

        def run(self, jobs, **common):
            step = script[len(self.attempts)]
            self.attempts.append(step)
            yield {"type": "accepted", "request_id": "req-1"}
            events, _, ending = step.rpartition("+")
            if events or ending == "done":
                for payload in _served_events(jobs):
                    yield {"type": "event", "event": payload}
            if ending == "drop":
                raise DaemonError("daemon stream ended before the done frame")
            yield {
                "type": ending,
                "message": f"scripted {ending}",
                "hits": 0,
                "misses": len(jobs),
                "memory_hits": 0,
                "elapsed_s": 0.0,
                "latency": telemetry.Histogram().to_dict(),
            }

    return ScriptedClient


#: The two subcommands that route.  The experiment call renders a table, so
#: output reaches stdout mid-stream; ``fleet`` writes nothing before the
#: done frame, so only the "nothing on stdout yet" rules apply to it.
ROUTED_CALLS = {
    "experiments": ["table1"],
    "fleet": ["fleet", "--devices", "8", "--requests", "16", "--seed", "11", "--json"],
}

#: Scenario -> (script, outcome).  Outcomes: "done" (the daemon's result is
#: rendered), "inline" (the call re-runs in-process), or an exit code.
RETRIES = 2
ROUTING_RULES = {
    "done": (["done"], "done"),
    "busy-then-done": (["busy", "done"], "done"),
    "busy-exhausts-budget": (["busy"] * (RETRIES + 1), "inline"),
    "drop-then-done": (["drop", "done"], "done"),
    "drop-exhausts-budget": (["drop"] * (RETRIES + 1), "inline"),
    "stale": (["stale"], "inline"),
    "timeout": (["timeout"], "inline"),
    "cancelled": (["cancelled"], "inline"),
    "error": (["error"], "inline"),
    "output-then-drop": (["events+drop"], 1),
    "output-then-busy": (["events+busy"], 1),
    "output-then-stale": (["events+stale"], 1),
    "output-then-timeout": (["events+timeout"], 1),
    "output-then-cancelled": (["events+cancelled"], 1),
    "output-then-error": (["events+error"], 1),
}


def _deterministic(command: str, stdout: str) -> str:
    if command != "fleet":
        return stdout
    import json

    document = json.loads(stdout)
    for key in ("elapsed_seconds", "auths_per_second", "latency"):
        del document[key]
    return json.dumps(document)


@pytest.mark.parametrize(
    "command, scenario",
    [
        (command, scenario)
        for command in ROUTED_CALLS
        for scenario in ROUTING_RULES
        if command == "experiments" or not scenario.startswith("output-")
    ],
)
def test_routing_rule_table(command, scenario, capsys, monkeypatch, tmp_path):
    import repro.experiments.__main__ as cli

    script, outcome = ROUTING_RULES[scenario]
    argv = ROUTED_CALLS[command]
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(argv + ["--no-daemon"]) == 0
    reference = _deterministic(command, capsys.readouterr().out)

    client = _scripted_client(script)
    monkeypatch.setattr(cli, "DaemonClient", client)
    monkeypatch.setattr(cli, "_RETRY_ATTEMPTS", RETRIES)
    monkeypatch.setattr(cli, "_RETRY_BASE_S", 0.0)
    code = main(argv)
    captured = capsys.readouterr()

    assert client.attempts == script
    assert "daemon: routing via scripted.sock" in captured.err
    ran_inline = "running inline" in captured.err
    assert ran_inline == (outcome == "inline")
    if outcome in ("done", "inline"):
        assert code == 0
        assert _deterministic(command, captured.out) == reference
    else:
        # Output reached stdout before the attempt failed: no retry, no
        # inline re-run (it would print the table twice), exit code 1.
        assert code == outcome
        assert captured.out == reference
