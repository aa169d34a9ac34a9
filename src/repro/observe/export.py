"""Trace serialization and the profile table.

One trace file serves two audiences: the ``traceEvents`` key is the
Chrome trace event format (open the file in ``chrome://tracing`` or
Perfetto), and the ``reproTrace`` key is the native span-tree form
this package reads back losslessly.  Chrome-only files (or files
produced by other tools) are reconstructed from event containment.

The profile table aggregates spans by name into calls / total /
self-time rows; self times partition the root span's duration exactly
(every recorded instant belongs to exactly one innermost span), which
is the reconciliation property ``repro convert --profile`` and the
observability tests assert.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.jsonio import write_json_atomic
from repro.observe.tracing import Span, Tracer

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


def _roots(trace: "Tracer | Iterable[Span]") -> list[Span]:
    if isinstance(trace, Tracer):
        return list(trace.roots)
    return list(trace)


def chrome_events(trace: "Tracer | Iterable[Span]") -> list[dict[str, Any]]:
    """Flatten a span forest into Chrome complete ('X') events.

    Timestamps are microseconds from the earliest span start, one
    event per span in depth-first order; attributes and the metrics
    delta ride in ``args``.
    """
    roots = _roots(trace)
    if not roots:
        return []
    base = min(root.start for root in roots)
    events: list[dict[str, Any]] = []
    for root in roots:
        for node in root.walk():
            args: dict[str, Any] = dict(node.attrs)
            if node.metrics_delta:
                args["metrics_delta"] = dict(node.metrics_delta)
            events.append(
                {
                    "name": node.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": (node.start - base) * 1e6,
                    "dur": node.duration * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
    return events


def to_chrome(trace: "Tracer | Iterable[Span]") -> dict[str, Any]:
    """The full trace document: Chrome events plus the native tree."""
    roots = _roots(trace)
    return {
        "traceEvents": chrome_events(roots),
        "displayTimeUnit": "ms",
        "reproTrace": {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "spans": [root.to_dict() for root in roots],
        },
    }


def write_trace(trace: "Tracer | Iterable[Span]", out_path: "str | Path") -> Path:
    """Serialize a trace to ``out_path`` (atomic, parents created)."""
    return write_json_atomic(to_chrome(trace), out_path)


def spans_from_chrome(events: Iterable[dict[str, Any]]) -> list[Span]:
    """Rebuild a span forest from Chrome complete events.

    Nesting is inferred from interval containment, which is exact for
    traces this package wrote (children open after and close before
    their parent); zero-duration boundary ties can land a span one
    level off, so the native ``reproTrace`` form is preferred when
    present (see :func:`load_trace`).
    """
    complete = [event for event in events if event.get("ph") == "X"]
    ordered = sorted(complete, key=lambda event: (event["ts"], -event.get("dur", 0.0)))
    roots: list[Span] = []
    stack: list[tuple[Span, float]] = []
    for event in ordered:
        start = event["ts"] / 1e6
        end = start + event.get("dur", 0.0) / 1e6
        args = dict(event.get("args", {}))
        delta = args.pop("metrics_delta", {})
        node = Span(
            event.get("name", "?"),
            args,
            start=start,
            end=end,
            metrics_delta=dict(delta),
        )
        while stack and start >= stack[-1][1]:
            stack.pop()
        if stack:
            stack[-1][0].children.append(node)
        else:
            roots.append(node)
        stack.append((node, end))
    return roots


def load_trace(path: "str | Path") -> list[Span]:
    """Load a trace file back into a span forest.

    Accepts the documents :func:`write_trace` produces (native tree
    preferred), bare Chrome ``{"traceEvents": [...]}`` documents, and
    bare event arrays.
    """
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "reproTrace" in data:
        spans = data["reproTrace"].get("spans", [])
        return [Span.from_dict(entry) for entry in spans]
    if isinstance(data, dict) and "spans" in data:
        return [Span.from_dict(entry) for entry in data["spans"]]
    if isinstance(data, dict):
        return spans_from_chrome(data.get("traceEvents", []))
    return spans_from_chrome(data)


# ---------------------------------------------------------------------------
# Profile table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileRow:
    """Aggregate of every span sharing one name."""

    name: str
    calls: int
    total_seconds: float
    self_seconds: float


def profile_rows(trace: "Tracer | Iterable[Span]") -> list[ProfileRow]:
    """Aggregate spans by name, hottest self-time first."""
    agg: dict[str, list[float]] = {}
    for root in _roots(trace):
        for node in root.walk():
            entry = agg.setdefault(node.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += node.duration
            entry[2] += node.self_seconds()
    rows = [
        ProfileRow(name, int(calls), total, self_s)
        for name, (calls, total, self_s) in agg.items()
    ]
    rows.sort(key=lambda row: (-row.self_seconds, row.name))
    return rows


def render_profile(trace: "Tracer | Iterable[Span]", top: int | None = None) -> str:
    """The human-readable per-phase/per-operator time table.

    Self times sum to the root spans' wall clock (the reconciliation
    line at the bottom makes the accounting visible).
    """
    roots = _roots(trace)
    rows = profile_rows(roots)
    shown = rows if top is None else rows[:top]
    root_total = sum(root.duration for root in roots)
    lines = [f"{'span':<40} {'calls':>7} {'total':>10} {'self':>10} {'self%':>7}"]
    for row in shown:
        share = (row.self_seconds / root_total * 100) if root_total else 0.0
        lines.append(
            f"{row.name:<40} {row.calls:>7} {row.total_seconds:>9.4f}s"
            f" {row.self_seconds:>9.4f}s {share:>6.1f}%"
        )
    if top is not None and len(rows) > top:
        lines.append(f"... {len(rows) - top} more span name(s)")
    total_self = sum(row.self_seconds for row in rows)
    lines.append(
        f"{len(roots)} root span(s), {root_total:.4f}s wall clock; "
        f"self times sum to {total_self:.4f}s"
    )
    return "\n".join(lines)
