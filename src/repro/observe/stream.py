"""Streaming span consumption: the tracer-to-event bridge.

The :class:`~repro.observe.tracing.Tracer` collects a span forest and
hands it over *after* the traced activity finishes -- the right shape
for trace files and profile tables, and the wrong one for a
long-running service that wants to narrate a conversion *while it
runs*.  :class:`StreamingTracer` closes that gap: it is an ordinary
tracer (the span forest, the registry snapshots, the sampling -- all
unchanged), except that every span it closes is also handed to an
``on_close`` callback, optionally filtered by name prefix.

:func:`span_event` renders a closed span as the flat JSON-able dict
the service's server-sent-event stream carries: name, duration,
attributes, and the ``supervision.*`` / ``cost.*`` counter movement
observed inside the span.  The schema is deliberately small -- it is
the service's public wire format (see README "Conversion as a
service"), not an export of the whole span tree.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.observe.tracing import Span, Tracer

#: Counter namespaces a :func:`span_event` carries: the self-healing
#: supervision counters and the cascade's ``cost.rewrite_skips``
#: counter, the two bundles a conversion service's clients act on
#: (respawn storms, quarantine decisions, rewrite-skip rates).
EVENT_COUNTER_PREFIXES = ("supervision.", "cost.")


class StreamingTracer(Tracer):
    """A tracer that reports every closed span to a callback.

    ``on_close`` receives the :class:`~repro.observe.tracing.Span`
    *after* it closed -- ``end`` is set and the metrics delta is
    computed -- including spans that closed by exception, so a fault
    mid-conversion still produces its event.  ``prefixes`` restricts
    the callback to span names starting with any of the given strings
    (``None`` reports everything); unreported spans are still recorded
    in the span tree exactly as a plain tracer would.

    The callback runs on the traced thread, inside the instrumented
    region's caller: keep it cheap (the service's implementation
    appends to an in-memory event buffer) and never let it raise
    unless the intent is to abort the traced activity itself.
    """

    def __init__(
        self,
        on_close: Callable[[Span], None],
        prefixes: tuple[str, ...] | None = None,
        **kwargs: Any,
    ):
        super().__init__(**kwargs)
        self.on_close = on_close
        self.prefixes = prefixes

    def _reports(self, name: str) -> bool:
        if self.prefixes is None:
            return True
        return name.startswith(self.prefixes)

    @contextmanager
    def span(
        self, name: str, capture_metrics: bool = True, **attrs: Any
    ) -> Iterator[Span]:
        closed: Span | None = None
        try:
            with super().span(
                name, capture_metrics=capture_metrics, **attrs
            ) as opened:
                closed = opened
                yield opened
        finally:
            # The inner context has exited by the time this finally
            # runs: end and metrics_delta are final, even when the
            # body raised.
            if closed is not None and self._reports(name):
                self.on_close(closed)


def span_event(
    span: Span,
    prefixes: tuple[str, ...] = EVENT_COUNTER_PREFIXES,
) -> dict[str, Any]:
    """A closed span as the service's flat SSE payload.

    ``{"name", "seconds", **attrs}`` plus a ``"counters"`` mapping of
    the span's non-zero counter movement restricted to ``prefixes``.
    Attribute values are used as-is -- instrumented sites only attach
    JSON-able scalars (program names, counts, outcomes).
    """
    event: dict[str, Any] = {
        "name": span.name,
        "seconds": round(span.duration, 6),
    }
    event.update(span.attrs)
    counters = {
        name: value
        for name, value in span.metrics_delta.items()
        if name.startswith(prefixes) and value
    }
    if counters:
        event["counters"] = counters
    return event


__all__ = ["EVENT_COUNTER_PREFIXES", "StreamingTracer", "span_event"]
