"""Summary statistics and span self-time accounting (stdlib only)."""

from __future__ import annotations

import statistics
from collections import defaultdict

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def tail(values, beyond: int = TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``, or ``None`` when fewer
    than ``beyond + 1`` samples exist (no percentile qualifies).  The value
    is the ``n - beyond``-th smallest sample, which is the percentile
    ``100 * (n - beyond) / n`` of the sample.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return None
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def layer_of(span_name: str) -> str:
    """Layer of a span: its name without the last dotted component."""
    return span_name.rsplit(".", 1)[0]


def _covered(interval, children) -> float:
    """Length of the union of ``children`` intervals clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi)
    total = 0.0
    end = lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(records) -> dict[str, float]:
    """Self time of every span: its duration minus what its children cover.

    ``records`` are trace records with ``span``, ``parent``, ``ts`` (start,
    epoch seconds) and ``duration_s``.  Children overlapping each other (a
    generator span interleaved with its consumer, spans of two processes)
    are merged first, so no instant is subtracted twice.
    """
    children = defaultdict(list)
    for record in records:
        if record["parent"] is not None:
            children[record["parent"]].append(
                (record["ts"], record["ts"] + record["duration_s"])
            )
    result = {}
    for record in records:
        interval = (record["ts"], record["ts"] + record["duration_s"])
        result[record["span"]] = record["duration_s"] - _covered(
            interval, children.get(record["span"], ())
        )
    return result


def layer_self_times(records, root_span: str) -> dict[str, float]:
    """Self time per layer below ``root_span``; the rest goes to ``other``.

    ``other`` collects the root's own uncovered time plus the self time of
    spans in the ``bench`` layer (the benchmark's per-call and per-probe
    envelopes), i.e. every instant of the root that no layer span covers.
    The values sum to the root span's duration.
    """
    by_id = {record["span"]: record for record in records}
    selfs = self_times(records)
    totals = defaultdict(float)
    for span_id, value in selfs.items():
        record = by_id[span_id]
        if span_id == root_span:
            totals["other"] += value
        elif _descends_from(record, root_span, by_id):
            layer = layer_of(record["name"])
            totals["other" if layer == "bench" else layer] += value
    return dict(totals)


def _descends_from(record, root_span, by_id) -> bool:
    seen = set()
    parent = record["parent"]
    while parent is not None and parent not in seen:
        if parent == root_span:
            return True
        seen.add(parent)
        parent = by_id.get(parent, {}).get("parent")
    return False
