"""Benchmark-side timing spans and the layer boundaries they wrap.

Spans are recorded by the benchmark's own code, never by the program: a
:class:`Recorder` keeps them in memory and writes them out as NDJSON records
with the keys of ``repro.telemetry.spans.TRACE_RECORD_KEYS``, so
``benchmarks/summarize_trace.py`` renders a benchmark trace unchanged.

:func:`install` replaces the public functions at each layer boundary with
wrappers that open a span around the call and return the call's result
untouched.  Span names are ``<layer>.<call>``; the layer is the name without
its last component (``engine.cache.get`` belongs to ``engine.cache``).
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from perfbench.stats import layer_of

#: Mirror of ``repro.telemetry.spans.TRACE_RECORD_KEYS`` (a test keeps the
#: two equal); the parent process never imports the program.
TRACE_RECORD_KEYS = (
    "trace",
    "span",
    "parent",
    "name",
    "kind",
    "pid",
    "ts",
    "duration_s",
    "labels",
)


@dataclass
class _OpenSpan:
    span: str
    parent: str | None
    name: str
    labels: dict
    ts: float = field(default_factory=time.time)
    start: float = field(default_factory=time.perf_counter)


class Recorder:
    """In-memory span sink of one process.

    ``root`` is the parent of spans opened while no other span is open: the
    span of the process that spawned this one, so trees cross processes.
    """

    def __init__(self, trace_id: str, root: str | None = None):
        self.trace_id = trace_id
        self.root = root
        self.records: list[dict] = []
        self._open: list[str] = []
        self._sequence = itertools.count(1)

    def new_id(self) -> str:
        return f"{os.getpid():x}-b{next(self._sequence)}"

    def add(self, name, ts, duration_s, parent, labels=None, span=None) -> str:
        """Record a span measured elsewhere (e.g. across a process boundary)."""
        span = span or self.new_id()
        self.records.append(
            {
                "trace": self.trace_id,
                "span": span,
                "parent": parent,
                "name": name,
                "kind": layer_of(name),
                "pid": os.getpid(),
                "ts": ts,
                "duration_s": duration_s,
                "labels": labels or {},
            }
        )
        return span

    def current(self) -> str | None:
        return self._open[-1] if self._open else self.root

    def open(self, name: str, parent: str | None = None, **labels) -> _OpenSpan:
        handle = _OpenSpan(self.new_id(), parent or self.current(), name, labels)
        self._open.append(handle.span)
        return handle

    def close(self, handle: _OpenSpan) -> None:
        duration = time.perf_counter() - handle.start
        # A generator span can close after spans opened inside it.
        self._open.remove(handle.span)
        self.add(handle.name, handle.ts, duration, handle.parent, handle.labels, handle.span)

    @contextmanager
    def span(self, name: str, parent: str | None = None, **labels):
        """Time the ``with`` body; the yielded dict becomes the span's labels."""
        handle = self.open(name, parent, **labels)
        try:
            yield handle.labels
        finally:
            self.close(handle)

    def dump(self, path) -> None:
        with open(path, "a") as stream:
            for record in self.records:
                stream.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.records.clear()


def load(path) -> list[dict]:
    with open(path) as stream:
        return [json.loads(line) for line in stream if line.strip()]


# ----------------------------------------------------------------------
# Layer boundaries
# ----------------------------------------------------------------------
def _stats_ops(stats) -> dict:
    return {"dram_ops": stats.dram_reads + stats.dram_writes + stats.dram_row_ops}


#: ``(module, attribute, span name, labels from arguments, labels from
#: result)``; argument labels receive the call's arguments bound by name.
#: ``compute`` boundaries sit inside an experiment; ``cli`` boundaries are
#: the steps of one CLI call around it.
COMPUTE_BOUNDARIES = (
    ("repro.engine.jobs", "ExperimentJob.run", "experiments.compute",
     lambda a: {"id": a["self"].experiment_id}, None),
    ("repro.memctrl.system", "System.run", "memctrl.run", None, _stats_ops),
    ("repro.dealloc.simulation", "DeallocStudy.run_figure8", "dealloc.study",
     lambda a: {"figure": 8}, None),
    ("repro.dealloc.simulation", "DeallocStudy.run_figure9", "dealloc.study",
     lambda a: {"figure": 9}, None),
    ("repro.rng.nist.suite", "run_nist_suite", "rng.nist_suite", None, None),
    ("repro.rng.nist.suite", "run_single_test", "rng.nist_test",
     lambda a: {"test": a["name"]}, None),
    ("repro.circuit.montecarlo", "MonteCarloEngine.shard_flips", "circuit.shard_flips",
     lambda a: {"samples": a["stop"] - a["start"]}, None),
    ("repro.puf.evaluation", "quality_pairs_batch", "puf.quality_pairs",
     lambda a: {"pairs": len(a["rngs"])}, None),
    ("repro.puf.evaluation", "temperature_pairs_batch", "puf.temperature_pairs",
     lambda a: {"pairs": len(a["rngs"])}, None),
)

CLI_BOUNDARIES = (
    # Opening a cache hashes the package sources on first use in a process.
    ("repro.engine.cache", "ResultCache.__init__", "engine.cache.open", None, None),
    ("repro.engine.cache", "source_fingerprint", "engine.cache.fingerprint", None, None),
    ("repro.engine.cache", "ResultCache.get", "engine.cache.get", None,
     lambda value: {"hit": value is not None}),
    ("repro.engine.cache", "ResultCache.put", "engine.cache.put", None, None),
    ("repro.engine.sharding", "iter_sharded", "engine.run", None, None),
    ("repro.engine.daemon", "DaemonClient.is_running", "engine.daemon.ping", None, None),
    ("repro.engine.daemon", "DaemonClient.submit", "engine.daemon.submit", None, None),
    ("repro.engine.daemon", "DaemonClient.fleet", "engine.daemon.fleet", None, None),
    ("repro.experiments.__main__", "build_parser", "experiments.parse", None, None),
    ("repro.experiments.__main__", "_EventRenderer.finish", "experiments.render", None, None),
)


def _wrap(recorder: Recorder, original, name, labels_of, result_labels_of):
    signature = inspect.signature(original) if labels_of else None

    def wrapper(*args, **kwargs):
        labels = {}
        if labels_of is not None:
            labels = labels_of(signature.bind(*args, **kwargs).arguments)
        handle = recorder.open(name, **labels)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            recorder.close(handle)
            raise
        if inspect.isgenerator(result):
            return _spanning(recorder, handle, result)
        if result_labels_of is not None:
            handle.labels.update(result_labels_of(result))
        recorder.close(handle)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _spanning(recorder: Recorder, handle: _OpenSpan, generator):
    """Keep ``handle`` open until ``generator`` is exhausted or closed."""
    try:
        yield from generator
    finally:
        recorder.close(handle)


def install(recorder: Recorder, boundaries) -> None:
    """Wrap every boundary in ``boundaries`` with a span of ``recorder``.

    Functions are replaced in every loaded ``repro`` module that imported
    them by name, so call sites bound at import time are covered too.
    """
    for module_name, attribute, name, labels_of, result_labels_of in boundaries:
        module = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[member]
            setattr(owner, member, _wrap(recorder, original, name, labels_of, result_labels_of))
            continue
        original = getattr(module, member)
        wrapper = _wrap(recorder, original, name, labels_of, result_labels_of)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
