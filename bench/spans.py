"""Per-layer totals from the spans one traced command records."""

from __future__ import annotations


def summarize(spans):
    """Map each span name to its calls, inclusive seconds, self seconds
    and largest entry bit size.

    A span is [name, start, end, parent index, d, bits].  Self time is a
    span's duration minus the durations of its direct children, which
    nest inside it.  Inclusive time counts a span only when no ancestor
    has the same name, so a layer's nested calls are not counted twice.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for index, (name, start, end, parent, _, bits) in enumerate(spans):
        row = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_bits": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[index]
        if not _has_ancestor(spans, parent, name):
            row["s"] += end - start
        if bits is not None:
            row["max_bits"] = max(row["max_bits"], bits)
    return totals


def _has_ancestor(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def merge(into, totals):
    """Add one command's totals to a pass's totals."""
    for name, row in totals.items():
        acc = into.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_bits": 0})
        acc["calls"] += row["calls"]
        acc["s"] += row["s"]
        acc["self_s"] += row["self_s"]
        acc["max_bits"] = max(acc["max_bits"], row["max_bits"])
    return into
