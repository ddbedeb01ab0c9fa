"""Child processes of a benchmark run: CLI calls, daemons and clean-up.

Every program process runs from the checkout root with ``PYTHONPATH=src``
and with its daemon socket and default cache dir pointed into the run's own
work directory, so neither ``./.repro-cache`` nor the per-user default
socket is ever used.  Paths handed to the program are relative to the
checkout root, which keeps unix socket paths short however deep the
checkout lives.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTHON = sys.executable
#: Upper bound on one program call; the whole run must end within 180 s.
CALL_TIMEOUT_S = 150.0
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants (daemon pool workers), so they can be
    stopped and waited for, and their peak RSS is counted (Linux only)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def program_env(work: str) -> dict[str, str]:
    """Environment of every program process of one run.

    ``REPRO_*`` variables of the caller (a fault plan, say) pass through;
    the socket and default cache dir are always the run's own.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_DAEMON_SOCKET"] = f"{work}/daemon.sock"
    env["REPRO_CACHE_DIR"] = f"{work}/default-cache"
    return env


@dataclass
class CallResult:
    wall_s: float
    returncode: int
    stdout: bytes
    stderr: str


def run(command: list[str], env: dict[str, str]) -> CallResult:
    """Run one process to completion, timing it from spawn to exit."""
    start = time.perf_counter()
    completed = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, timeout=CALL_TIMEOUT_S
    )
    wall = time.perf_counter() - start
    return CallResult(wall, completed.returncode, completed.stdout,
                      completed.stderr.decode(errors="replace"))


def cli(argv: list[str], env: dict[str, str]) -> CallResult:
    """``python -m repro.experiments ARGV`` from the shell's point of view."""
    return run([PYTHON, "-m", "repro.experiments", *argv], env)


def traced_cli(argv, env, trace_file, trace_id, parent) -> CallResult:
    """The same call through ``perfbench/tracecall.py`` (spans on)."""
    command = [PYTHON, str(ROOT / "perfbench" / "tracecall.py"), str(trace_file),
               trace_id, parent, repr(time.time()), "--", *argv]
    return run(command, env)


def daemon_request(socket_path: str, message: dict, timeout: float = 5.0) -> dict:
    """One request/response exchange in the daemon's framing (length line,
    then one JSON line)."""
    data = json.dumps({"v": 2, **message}, separators=(",", ":")).encode() + b"\n"
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(socket_path)
        sock.sendall(f"{len(data)}\n".encode() + data)
        with sock.makefile("rb") as stream:
            length = int(stream.readline())
            return json.loads(stream.read(length))


class Daemon:
    """A daemon this run started, in its own process group."""

    def __init__(self, work: str, cache_dir: str, env: dict[str, str], workers: int = 2):
        self.socket_path = env["REPRO_DAEMON_SOCKET"]
        with open(ROOT / work / "daemon.log", "ab") as log:
            self.process = subprocess.Popen(
                [PYTHON, "-m", "repro.experiments", "daemon", "run",
                 "--socket", self.socket_path, "--cache-dir", cache_dir,
                 "--workers", str(workers)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Return once the daemon answers a ping (pool forked, drivers loaded)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with code {self.process.returncode}")
            try:
                if daemon_request(self.socket_path, {"op": "ping"}).get("type") == "pong":
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.02)
        raise RuntimeError(f"daemon did not answer on {self.socket_path} within {timeout:g}s")

    def stop(self) -> None:
        """Shut down gracefully, then kill whatever is left of its group."""
        try:
            daemon_request(self.socket_path, {"op": "shutdown"})
            self.process.wait(timeout=15.0)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()


def descendants() -> list[int]:
    """Every live descendant of this process (from ``/proc``)."""
    found, pending = [], [os.getpid()]
    while pending:
        pid = pending.pop()
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{pid}/task/{task}/children") as stream:
                    children = [int(child) for child in stream.read().split()]
            except OSError:
                continue
            found.extend(children)
            pending.extend(children)
    return found


def _reap() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_all(grace_s: float = 5.0) -> None:
    """Terminate every remaining descendant and wait until each has ended."""
    for sig, wait_s in ((signal.SIGTERM, grace_s), (signal.SIGKILL, 30.0)):
        for pid in descendants():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + wait_s
        while True:
            _reap()
            if not descendants() or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        if not descendants():
            return


def peak_rss_mb() -> float:
    """Peak RSS of the largest descendant so far, in MB: the ended ones
    (waited for) and the live ones (their ``VmHWM``), e.g. a daemon and its
    pool workers."""
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/status") as stream:
                for line in stream:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024.0
