"""Golden net for the ``fleet`` CLI subcommand.

``tests/golden/fleet-cli_<puf>.json`` pins the deterministic fields of
``fleet --json`` (everything except the wall-clock ``elapsed_seconds``,
``auths_per_second`` and ``latency``) for one small mixed genuine/impostor
run per fleet PUF.  Each fixture must match byte for byte both when the run
executes inline and when it is routed through a warm daemon.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.engine import DaemonClient, DaemonError, ExperimentDaemon
from repro.experiments.__main__ import main

GOLDEN_DIR = Path(__file__).parent / "golden"

PUFS = ("CODIC-sig PUF", "PreLatPUF", "DRAM Latency PUF")

FLEET_ARGS = [
    "fleet", "--devices", "200", "--requests", "300", "--impostor-ratio", "0.25",
    "--temperature-jitter", "5", "--challenges", "2", "--json",
]

VOLATILE_KEYS = ("elapsed_seconds", "auths_per_second", "latency")


def golden_path(puf: str) -> Path:
    return GOLDEN_DIR / f"fleet-cli_{puf.lower().replace(' ', '-')}.json"


def deterministic_text(stdout: str) -> str:
    """The CLI document minus its volatile keys, rendered like the fixture."""
    document = json.loads(stdout)
    for key in VOLATILE_KEYS:
        del document[key]
    return json.dumps(document, indent=2) + "\n"


@pytest.fixture(scope="module")
def daemon_socket(tmp_path_factory):
    """One warm in-process daemon shared by the routed golden runs."""
    if not hasattr(socket, "AF_UNIX"):
        pytest.skip("daemon mode requires AF_UNIX")
    root = tmp_path_factory.mktemp("fleet-golden")
    socket_path = root / "d.sock"
    server = ExperimentDaemon(socket_path, cache_dir=root / "cache", workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = DaemonClient(socket_path)
    deadline = time.time() + 30.0
    while not client.is_running():
        assert time.time() < deadline, "daemon did not come up"
        time.sleep(0.02)
    yield socket_path
    try:
        client.shutdown()
    except DaemonError:
        pass
    thread.join(timeout=10.0)


@pytest.mark.parametrize("puf", PUFS)
def test_inline_run_matches_golden(puf, capsys):
    assert main(FLEET_ARGS + ["--puf", puf, "--no-daemon"]) == 0
    out = capsys.readouterr().out
    assert deterministic_text(out) == golden_path(puf).read_text()


@pytest.mark.parametrize("puf", PUFS)
def test_routed_run_matches_golden(puf, daemon_socket, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(daemon_socket))
    assert main(FLEET_ARGS + ["--puf", puf]) == 0
    captured = capsys.readouterr()
    assert "daemon: routing via" in captured.err
    assert json.loads(captured.out)["latency"]["count"] == 300
    assert deterministic_text(captured.out) == golden_path(puf).read_text()
