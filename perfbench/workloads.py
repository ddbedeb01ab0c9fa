"""The benchmark's workloads: set-up, the timed CLI calls, and output checks.

Each workload is one closed-loop client: a single process that sends the
next CLI call only after the previous one has returned.  A call is timed
from spawn to exit, i.e. from the shell to the result, and its output is
checked against references stored in ``perfbench/reference/``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from perfbench import procs

REFERENCE = Path(__file__).resolve().parent / "reference"

ALL_IDS = (
    "table1", "table2", "waveforms", "fig5", "fig6", "aging", "table4", "table10",
    "fig7", "fig7-energy", "table6", "table11", "fig8", "fig9", "fleet-roc", "fleet-aging",
)
#: Experiments the warm workloads cache in set-up and then call: every
#: experiment whose quick compute takes well under a second, so set-up can
#: be repeated within a run.  A cached call does the same work whatever the
#: experiment (decode and render one small result).
WARM_IDS = (
    "table1", "table2", "waveforms", "aging", "table4", "fig7", "fig7-energy",
    "table6", "table11", "fleet-roc", "fleet-aging",
)
PUFS = ("CODIC-sig PUF", "PreLatPUF", "DRAM Latency PUF")
FLEET_SEEDS = tuple(range(1, 17))
FLEET_REQUESTS = 3000
FLEET_ARGV = (
    "fleet", "--devices", "10000", "--requests", str(FLEET_REQUESTS),
    "--impostor-ratio", "0.25", "--temperature-jitter", "5", "--challenges", "2",
    "--jobs", "2", "--json",
)
#: Deterministic fields of a fleet reply (the rest are wall-clock readings).
FLEET_FIELDS = (
    "genuine_trials", "impostor_trials", "frr", "far",
    "genuine_mean_jaccard", "impostor_mean_jaccard",
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fleet_argv(puf: str, seed: int) -> list[str]:
    return [*FLEET_ARGV, "--puf", puf, "--seed", str(seed)]


def fleet_fields(stdout: bytes) -> dict:
    reply = json.loads(stdout)
    return {key: reply[key] for key in FLEET_FIELDS}


def load_references() -> dict:
    return {
        "digests": json.loads((REFERENCE / "digests.json").read_text()),
        "fleet": json.loads((REFERENCE / "fleet.json").read_text()),
    }


@dataclass
class Call:
    """One planned CLI call and the check its result must pass."""

    kind: str
    argv: list[str]
    units: int
    check: Callable[[procs.CallResult], str | None]  # None when correct


class Run:
    """Shared state of one benchmark run: work dir, env, seed, references."""

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.env = procs.program_env(work)
        self.refs = load_references()
        self.daemon: procs.Daemon | None = None
        #: Disk cache the warm calls read, filled by the last set-up.
        self.warm_cache: str | None = None

    def path(self, name: str) -> str:
        """A path inside the work dir, relative to the checkout root."""
        return f"{self.work}/{name}"

    def fresh_dir(self, name: str) -> str:
        path = self.path(name)
        shutil.rmtree(procs.ROOT / path, ignore_errors=True)
        return path

    def start_daemon(self, cache_dir: str) -> None:
        self.daemon = procs.Daemon(self.work, cache_dir, self.env)
        self.daemon.wait_ready()

    def stop_daemon(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


def _failure(result: procs.CallResult) -> str | None:
    if result.returncode != 0:
        return f"exit code {result.returncode}: {result.stderr.strip()[-300:]}"
    return None


def _digest_check(expected: str, *needles: str):
    def check(result: procs.CallResult) -> str | None:
        failure = _failure(result)
        if failure:
            return failure
        if digest(result.stdout) != expected:
            return "output differs from the reference"
        missing = [needle for needle in needles if needle not in result.stderr]
        if missing:
            return f"stderr lacks {missing!r} (not served as expected)"
        return None

    return check


class Workload:
    name = ""
    why = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups = 3
    #: Fewest calls a run makes, however long they take; ``peak_rss_mb`` is
    #: read after this many, so it does not grow with the host's speed.
    min_calls = 1
    #: A run ends only after whole rounds of this many calls.
    round_calls = 1
    #: Calls of the untraced reference and of the traced replay.
    traced_calls = 1
    #: Whether the traced replay runs every experiment (then the layer
    #: probes need not).
    replay_computes = False
    unit = "calls"

    def setup(self, run: Run, index: int) -> None:
        raise NotImplementedError

    def teardown(self, run: Run) -> None:
        """Undo :meth:`setup` (untimed; runs between repeated set-ups)."""
        run.stop_daemon()

    def plan(self, run: Run):
        """Endless (or table-bounded) iterator of :class:`Call`."""
        raise NotImplementedError


class PaperCold(Workload):
    name = "paper-cold"
    why = "all 16 quick experiments from a cold cache; every simulator layer computes"
    unit = "experiments"
    replay_computes = True

    def setup(self, run: Run, index: int) -> None:
        # Load the CLI once so every timed report starts from the same warm
        # page cache; a report then needs only a fresh, empty cache dir.
        failure = _failure(procs.cli(["--list"], run.env))
        if failure:
            raise RuntimeError(f"--list failed: {failure}")
        run.fresh_dir("cold")

    def plan(self, run: Run):
        check = _digest_check(run.refs["digests"]["report"])
        index = 0
        while True:
            cache = run.fresh_dir(f"cold/{index}")
            yield Call("report", ["--no-daemon", "--json", "--jobs", "1", "--cache-dir", cache],
                       len(ALL_IDS), check)
            index += 1


class _CliWarm(Workload):
    # More than stats.TAIL_BEYOND calls, so the report always has a tail.
    min_calls = 11
    traced_calls = 4

    def _call(self, run: Run, experiment_id: str) -> Call:
        raise NotImplementedError

    def plan(self, run: Run):
        rng = random.Random(run.seed)
        while True:
            yield self._call(run, rng.choice(WARM_IDS))


class CliRouted(_CliWarm):
    name = "cli-routed"
    why = "single-experiment calls routed to a warm daemon, served from its memory index"

    def setup(self, run: Run, index: int) -> None:
        cache = run.fresh_dir(f"daemon-cache-{index}")
        run.start_daemon(cache)
        fill = procs.cli([*WARM_IDS, "--json"], run.env)
        failure = _digest_check(run.refs["digests"]["warm"], "daemon: routing via")(fill)
        if failure:
            raise RuntimeError(f"fill pass failed: {failure}")

    def _call(self, run: Run, experiment_id: str) -> Call:
        expected = run.refs["digests"]["experiments"][experiment_id]
        return Call("routed", [experiment_id, "--json"], 1,
                    _digest_check(expected, "daemon: routing via", "1 from memory index"))


class CliInline(_CliWarm):
    name = "cli-inline"
    why = "the same calls run inline with --no-daemon, served from the warm disk cache"

    def setup(self, run: Run, index: int) -> None:
        run.warm_cache = run.fresh_dir(f"warm-cache-{index}")
        fill = procs.cli([*WARM_IDS, "--json", "--no-daemon", "--cache-dir", run.warm_cache],
                         run.env)
        failure = _digest_check(run.refs["digests"]["warm"])(fill)
        if failure:
            raise RuntimeError(f"fill pass failed: {failure}")

    def _call(self, run: Run, experiment_id: str) -> Call:
        expected = run.refs["digests"]["experiments"][experiment_id]
        return Call("inline", [experiment_id, "--json", "--no-daemon", "--cache-dir", run.warm_cache],
                    1, _digest_check(expected, "cache: 1 hits, 0 misses"))


class FleetRouted(Workload):
    name = "fleet-routed"
    why = "uncached 10,000-device fleet auth runs through the daemon pool, cycling 3 PUFs"
    min_calls = 6
    round_calls = 3
    traced_calls = 3
    unit = "auths"

    def setup(self, run: Run, index: int) -> None:
        run.start_daemon(run.fresh_dir(f"daemon-cache-{index}"))

    def plan(self, run: Run):
        """Each PUF's reference seeds in a seed-shuffled order, PUFs cycled.

        Seeds never repeat within a run, so no reply can come from a cache;
        the plan ends when the reference table is used up.
        """
        rng = random.Random(run.seed)
        orders = [rng.sample(FLEET_SEEDS, len(FLEET_SEEDS)) for _ in PUFS]
        for round_seeds in zip(*orders):
            for puf, seed in zip(PUFS, round_seeds):
                expected = run.refs["fleet"][puf][str(seed)]
                yield Call("fleet", fleet_argv(puf, seed), FLEET_REQUESTS,
                           _fleet_check(expected))


def _fleet_check(expected: dict):
    def check(result: procs.CallResult) -> str | None:
        failure = _failure(result)
        if failure:
            return failure
        if "daemon: routing via" not in result.stderr:
            return "not routed to the daemon"
        try:
            reply = json.loads(result.stdout)
        except ValueError:
            return "output differs from the reference (not JSON)"
        if reply["latency"]["cached"]:
            return "served from the daemon cache"
        if {key: reply[key] for key in FLEET_FIELDS} != expected:
            return "deterministic fields differ from the reference"
        return None

    return check


WORKLOADS = {workload.name: workload for workload in
             (PaperCold(), CliRouted(), CliInline(), FleetRouted())}
