"""Observability: structured tracing plus a unified metrics registry.

The paper puts a Conversion Supervisor over five phases precisely
because conversion jobs are long-running and opaque -- the Conversion
Analyst needs to see *where* a conversion spends its time and *why* a
strategy was chosen.  This package is the cross-cutting layer that
answers both questions:

* :mod:`repro.observe.registry` -- one :class:`MetricsRegistry` giving
  a namespaced, aggregated view over every live counter bundle in the
  process (engine :class:`~repro.engine.metrics.Metrics`, snapshot
  :class:`~repro.restructure.translator.SnapshotStats`, per-verb
  strategy counters), with zero write-path overhead: bundles keep
  their plain attribute APIs and register themselves for reading.
* :mod:`repro.observe.tracing` -- a context-var based :class:`Tracer`
  whose :func:`span` context manager produces a tree of timed spans,
  each closing with a registry snapshot and delta.  When no tracer is
  active every ``span(...)`` call is a shared null context manager, so
  instrumented code pays one context-var read when tracing is off.
* :mod:`repro.observe.export` -- Chrome ``chrome://tracing`` event
  export (plus a native tree form in the same file), round-trip
  loading, and the per-phase/per-operator profile table.
* :mod:`repro.observe.stream` -- :class:`StreamingTracer`, the
  span-to-event bridge behind the conversion service's server-sent
  progress stream: every closed span is handed to a callback while
  the traced activity is still running.
"""

from repro.observe.export import (
    load_trace,
    profile_rows,
    render_profile,
    spans_from_chrome,
    to_chrome,
    write_trace,
)
from repro.observe.merge import (
    WORKER_ROOT,
    merge_worker_trace,
    rebase_spans,
    worker_root,
)
from repro.observe.registry import (
    MetricsRegistry,
    NamedCounters,
    get_registry,
    named_counters,
    registry_delta,
)
from repro.observe.stream import (
    EVENT_COUNTER_PREFIXES,
    StreamingTracer,
    span_event,
)
from repro.observe.tracing import (
    NULL_SPAN,
    Span,
    Tracer,
    current_tracer,
    sampled_span,
    span,
)

__all__ = [
    "EVENT_COUNTER_PREFIXES",
    "MetricsRegistry",
    "NamedCounters",
    "NULL_SPAN",
    "WORKER_ROOT",
    "Span",
    "StreamingTracer",
    "Tracer",
    "current_tracer",
    "span_event",
    "get_registry",
    "load_trace",
    "merge_worker_trace",
    "named_counters",
    "rebase_spans",
    "worker_root",
    "profile_rows",
    "registry_delta",
    "render_profile",
    "sampled_span",
    "span",
    "spans_from_chrome",
    "to_chrome",
    "write_trace",
]
