"""Merging worker span forests into a coordinator trace.

Each parallel worker process runs under its own :class:`Tracer` with
its own ``time.perf_counter`` origin, so its span timestamps mean
nothing in the coordinator's clock.  The merge rebases every worker
span by a constant offset (preserving all durations and gaps), wraps
the worker's forest under one synthetic ``parallel.worker`` root span,
and appends that root to the coordinator's tracer.

The synthetic root spans exactly the interval from its first child's
start to its last child's end, so the profile table's reconciliation
invariant survives the merge: within each root, self times still
partition the root's duration exactly (the worker root's own self time
is precisely the idle gap between its children's spans).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.observe.tracing import Span, Tracer

#: Name of the synthetic per-worker root span.
WORKER_ROOT = "parallel.worker"


def rebase_spans(spans: Iterable[Span], offset: float) -> None:
    """Shift every span (and descendant) by ``offset`` seconds,
    in place.  Durations and inter-span gaps are unchanged."""
    for root in spans:
        for node in root.walk():
            node.start += offset
            if node.end is not None:
                node.end += offset


def worker_root(
    worker_id: int, spans: list[Span], **attrs: Any
) -> Span:
    """Wrap a worker's (non-empty) span forest under one root span
    covering exactly the children's envelope.

    Extra ``attrs`` ride on the root (the warm-pool executor has no
    per-batch attrs today, but chunk provenance can mount here without
    another merge-shape change).
    """
    if not spans:
        raise ValueError("cannot root an empty span forest")
    start = min(node.start for node in spans)
    end = max(node.end if node.end is not None else node.start for node in spans)
    return Span(
        WORKER_ROOT,
        {"worker": worker_id, **attrs},
        start=start,
        end=end,
        children=list(spans),
    )


def merge_worker_trace(
    tracer: Tracer,
    worker_id: int,
    span_dicts: list[dict[str, Any]],
    worker_base: float,
    coordinator_base: float,
    **attrs: Any,
) -> Span | None:
    """Fold one worker's serialized span forest into ``tracer``.

    ``worker_base`` is the worker's clock reading when it started its
    first program; ``coordinator_base`` is the coordinator-clock
    instant the parallel batch began.  Rebasing by their difference
    places every worker's spans on the coordinator timeline starting
    at the batch start, so concurrent workers overlap there just as
    they did in real time.

    Returns the appended root span, or ``None`` for an empty forest
    (a worker with no assigned programs).  Extra ``attrs`` land on the
    synthetic root (the executor stamps each worker's ``cost.*``
    counters there, so a trace shows which workers skipped rewrites).
    """
    spans = [Span.from_dict(entry) for entry in span_dicts]
    if not spans:
        return None
    rebase_spans(spans, coordinator_base - worker_base)
    root = worker_root(worker_id, spans, **attrs)
    tracer.roots.append(root)
    return root


__all__ = [
    "WORKER_ROOT",
    "merge_worker_trace",
    "rebase_spans",
    "worker_root",
]
