"""Context-var based tracing: timed span trees over the pipeline.

A :class:`Tracer` produces a tree of :class:`Span` objects.  The
current span lives in a :mod:`contextvars` context variable, so
nesting follows the call stack and two threads (which start from
fresh contexts) never see each other's spans.  Instrumented code uses
the module-level :func:`span` / :func:`sampled_span` helpers: when no
tracer is active they return one shared null context manager, so the
tracing-off cost is a single context-var read per instrumented site.

Real spans close with the non-zero movement of the unified metrics
registry over their lifetime, tying the paper's access-path-length
counters to wall-clock phases; per-program-run hot spans opt out with
``capture_metrics=False`` so the two registry reads do not dominate
the region they measure.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Iterator

from repro.observe.registry import MetricsRegistry, get_registry, registry_delta

#: How many same-named sampled spans share one recorded span by
#: default.  Prime, so sampling does not phase-lock with the power-of-
#: ten loop strides the workload generators favour.
DEFAULT_SAMPLE_EVERY = 97


@dataclass
class Span:
    """One timed region: name, attributes, children, metrics movement.

    ``start``/``end`` are clock readings (``time.perf_counter`` unless
    the tracer was given another clock); ``metrics_delta`` is the
    registry's non-zero movement between open and close.
    """

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    end: float | None = None
    children: list["Span"] = field(default_factory=list)
    metrics_delta: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds between open and close (0.0 while still open)."""
        return (self.end if self.end is not None else self.start) - self.start

    def self_seconds(self) -> float:
        """Duration not attributed to any child span."""
        return self.duration - sum(child.duration for child in self.children)

    def set_attr(self, name: str, value: Any) -> None:
        """Attach one attribute (safe on the null span too)."""
        self.attrs[name] = value

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        """The native tree form (see :mod:`repro.observe.export`)."""
        out: dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.metrics_delta:
            out["metrics_delta"] = dict(self.metrics_delta)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Rebuild a span tree written by :meth:`to_dict`.  A
        ``metrics`` key, the registry snapshot that trace files written
        before 9.0.0 carry, is ignored."""
        return cls(
            name=data["name"],
            attrs=dict(data.get("attrs", {})),
            start=data["start"],
            end=data.get("end"),
            children=[cls.from_dict(child) for child in data.get("children", ())],
            metrics_delta=dict(data.get("metrics_delta", {})),
        )


class _NullSpan:
    """The do-nothing span handed out when no tracer is active."""

    __slots__ = ()

    def set_attr(self, name: str, value: Any) -> None:
        """Discard the attribute."""

    def __bool__(self) -> bool:
        return False


#: Shared null span; ``span(...)`` yields it when tracing is off.
NULL_SPAN = _NullSpan()


class _NullContext:
    """The do-nothing context manager behind inactive ``span()`` calls."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()

#: The tracer instrumented code reports to, per execution context.
#: Threads start from fresh contexts, so a tracer activated in one
#: thread is invisible to the others -- the isolation the cascade's
#: differential probes rely on.
_ACTIVE: ContextVar["Tracer | None"] = ContextVar("repro-active-tracer", default=None)


class Tracer:
    """Collects a forest of spans for one traced activity.

    Activate with ``with tracer:`` -- every :func:`span` call in the
    same execution context then records into ``tracer.roots``.  Spans
    opened while another span is open nest under it (tracked with a
    context variable, so threads and async tasks stay isolated).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        registry: MetricsRegistry | None = None,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
    ):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.roots: list[Span] = []
        self.sample_every = sample_every
        self._clock = clock
        self._registry = registry if registry is not None else get_registry()
        self._current: ContextVar[Span | None] = ContextVar(
            "repro-current-span", default=None
        )
        self._sample_counts: dict[str, int] = {}
        self._tokens: list[Any] = []

    # -- activation ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._tokens.append(_ACTIVE.set(self))
        return self

    def __exit__(self, *exc_info: object) -> bool:
        _ACTIVE.reset(self._tokens.pop())
        return False

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(
        self, name: str, capture_metrics: bool = True, **attrs: Any
    ) -> Iterator[Span]:
        """Open a child of the current span (or a new root).

        ``capture_metrics=False`` skips the open/close registry
        snapshots -- the opt-out for spans opened once per program
        execution (the interpreter's ``program.run``), where two
        full-registry reads would dominate the measured region.
        """
        parent = self._current.get()
        opened = Span(name, dict(attrs), start=self._clock())
        before = self._registry.snapshot() if capture_metrics else {}
        if parent is None:
            self.roots.append(opened)
        else:
            parent.children.append(opened)
        token = self._current.set(opened)
        try:
            yield opened
        finally:
            self._current.reset(token)
            opened.end = self._clock()
            if capture_metrics:
                after = self._registry.snapshot()
                opened.metrics_delta = registry_delta(before, after)

    def sampled_span(self, name: str, **attrs: Any) -> ContextManager[Any]:
        """Record every ``sample_every``-th same-named span.

        Unrecorded calls still count; ``sample_counts`` carries the
        true per-name totals, and each recorded span is stamped with
        the 1-based ``sample_index`` it represents.
        """
        count = self._sample_counts.get(name, 0) + 1
        self._sample_counts[name] = count
        if (count - 1) % self.sample_every:
            return _NULL_CONTEXT
        return self.span(name, sample_index=count, **attrs)

    @property
    def sample_counts(self) -> dict[str, int]:
        """True call counts per sampled-span name (copies)."""
        return dict(self._sample_counts)


def current_tracer() -> Tracer | None:
    """The tracer active in this execution context, if any."""
    return _ACTIVE.get()


def span(name: str, capture_metrics: bool = True, **attrs: Any) -> ContextManager[Any]:
    """A span on the active tracer, or the shared null context."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.span(name, capture_metrics=capture_metrics, **attrs)


def sampled_span(name: str, **attrs: Any) -> ContextManager[Any]:
    """A sampled span on the active tracer, or the null context."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.sampled_span(name, **attrs)
