"""Unified metrics registry.

Before this layer the codebase grew three disjoint counter families:
engine :class:`~repro.engine.metrics.Metrics` bundles, snapshot
:class:`~repro.restructure.translator.SnapshotStats`, and the ad-hoc
per-strategy counts buried in benchmark reports.  The registry unifies
them under namespaced counter names (``engine.records_read``,
``snapshot.index_probes``, ``emulation.store``, ...) without touching
the hot increment paths: a counter bundle keeps its plain attribute
API (the back-compat shim -- every pre-existing call site still works
and still passes its exact-count tests) and *registers itself* at
construction; the registry aggregates on read by summing the live
bundles.

Writes therefore cost exactly what they cost in the seed -- one int
attribute store -- and reads (span snapshots) pay one pass over the
live bundles.  Bundles are held weakly,
so the registry never extends an engine's lifetime; a snapshot taken
after a bundle is collected (or ``reset``) can be lower than one taken
before, which is why span deltas are computed within one span's
lifetime where the instrumented code keeps its bundles alive.
"""

from __future__ import annotations

import threading
import weakref
from typing import Iterable, Protocol


class MetricsSource(Protocol):
    """Anything that can report namespaced counter values."""

    def metrics_items(self) -> Iterable[tuple[str, int]]:
        """Yield ``(namespaced_name, value)`` pairs."""
        ...


class MetricsRegistry:
    """An aggregated, named view over every registered counter bundle.

    ``snapshot()`` returns ``{namespaced_name: value}`` summed across
    the live bundles; two bundles reporting the same name (two engines,
    say) sum into one counter, which is the per-process total the
    observability layer wants.
    """

    def __init__(self) -> None:
        self._sources: weakref.WeakValueDictionary[int, MetricsSource] = (
            weakref.WeakValueDictionary()
        )
        self._lock = threading.Lock()

    def register(self, source: MetricsSource) -> None:
        """Add a counter bundle to the aggregate view (weakly held)."""
        with self._lock:
            self._sources[id(source)] = source

    def sources(self) -> list[MetricsSource]:
        """The currently-live registered bundles."""
        with self._lock:
            return list(self._sources.values())

    def snapshot(self) -> dict[str, int]:
        """Sum every live bundle into one ``{name: value}`` dict."""
        out: dict[str, int] = {}
        for source in self.sources():
            for name, value in source.metrics_items():
                out[name] = out.get(name, 0) + value
        return dict(sorted(out.items()))


def registry_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    """The non-zero counter movement between two registry snapshots.

    Counters absent from ``before`` count from zero; counters that
    vanished from ``after`` (a collected bundle) are dropped rather
    than reported as negative.
    """
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


class NamedCounters:
    """A mutable bag of namespaced counters, registered on creation.

    The migration target for counter families that never had a typed
    bundle -- e.g. the per-verb emulation and bridge counts.  ``bump``
    is a dict increment, so it is safe on hot paths.
    """

    def __init__(self, namespace: str, registry: "MetricsRegistry | None" = None):
        self.namespace = namespace
        self._counts: dict[str, int] = {}
        (registry if registry is not None else get_registry()).register(self)

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment one counter (created at zero on first use)."""
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        """The current value of one counter (zero when never bumped)."""
        return self._counts.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """A plain dict copy of the current counts (un-namespaced)."""
        return dict(self._counts)

    def metrics_items(self) -> Iterable[tuple[str, int]]:
        """Yield ``(namespace.name, value)`` pairs for the registry."""
        for name, value in self._counts.items():
            yield f"{self.namespace}.{name}", value

    def __getstate__(self) -> dict:
        return {"namespace": self.namespace, "_counts": self._counts}

    def __setstate__(self, state: dict) -> None:
        # Mirror Metrics.__setstate__: a counter bag rehydrated in a
        # worker process (the cascade's cost counters travel inside
        # the pickled pool seed) must re-register so its movement
        # shows up in the worker's registry deltas.
        self.namespace = state["namespace"]
        self._counts = state["_counts"]
        get_registry().register(self)


#: The process-wide registry every bundle registers into by default.
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _GLOBAL


#: Process-wide named-counter bundles, held strongly (the registry
#: itself only holds sources weakly).
_NAMED: dict[str, NamedCounters] = {}
_NAMED_LOCK = threading.Lock()


def named_counters(namespace: str) -> NamedCounters:
    """The process-wide :class:`NamedCounters` bag for ``namespace``.

    Counter families that have no natural owner object -- e.g. the
    batch supervisor's ``supervision.*`` counts, bumped from the
    coordinator, the serial engine, and worker processes alike -- need
    a bundle that outlives any one conversion.  This accessor creates
    the bag on first use, keeps a strong reference so the registry's
    weak registration never drops it, and returns the same instance for
    the life of the process (in a worker, that is the worker process:
    its movement reaches the coordinator through the registry delta
    shipped with every chunk result, see :func:`absorb_counts`).
    """
    with _NAMED_LOCK:
        counters = _NAMED.get(namespace)
        if counters is None:
            counters = NamedCounters(namespace)
            _NAMED[namespace] = counters
        return counters


def absorb_counts(counts: dict[str, int]) -> None:
    """Add counter movement measured in another process to this one.

    The parallel coordinator absorbs each pool worker's registry delta
    here: every ``namespace.name`` count is bumped into the
    process-wide :func:`named_counters` bag for its namespace, so the
    worker's counts sum into the coordinator's snapshots exactly as if
    the work had run in-process, for the life of the process.
    """
    for name, value in counts.items():
        namespace, _, counter = name.partition(".")
        named_counters(namespace).bump(counter, value)
