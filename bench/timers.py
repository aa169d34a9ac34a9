"""Wall-clock layer timers for the traced benchmark run.

The traced run measures where time goes without changing the program:
:meth:`LayerTimers.install` replaces each entry point in
:data:`ENTRY_POINTS` with a wrapper that times the call, and
:meth:`LayerTimers.uninstall` puts the original objects back.  Nothing
under ``src/`` knows about these timers, and the untraced run never
installs them, so it measures unmodified code.

Each thread keeps its own stack of open calls.  A call's *self* time is
its duration minus the durations of the wrapped calls it made, so the
self times of every call under a root add up to the root's duration:
what no wrapped entry point covers is the root's own self time, the
residual a workload reports as ``other``.

A name is patched where it is looked up.  ``repro.batch`` and
``repro.service.jobs`` bound ``write_json_atomic`` at import time, so
patching ``repro.jsonio`` alone would miss their calls; methods are
patched on their class.  Worker processes of the parallel engine import
the program afresh and are never traced.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: ``(module, attribute path, metric name, byte hook)``.  The metric
#: name is ``<layer>.<entry>``; several lookups of one function share a
#: name.  A byte hook names a :class:`LayerTimers` method that sizes
#: the call's data after the call returns.
ENTRY_POINTS: tuple[tuple[str, str, str, str | None], ...] = (
    ("repro.batch", "convert_one", "batch.convert_one", None),
    ("repro.batch", "BatchCheckpoint.write", "batch.journal.write", None),
    ("repro.batch", "BatchCheckpoint.merge_shards",
     "batch.journal.merge_shards", None),
    ("repro.jsonio", "write_json_atomic", "jsonio.write_json_atomic",
     "_size_written"),
    ("repro.batch", "write_json_atomic", "jsonio.write_json_atomic",
     "_size_written"),
    ("repro.service.jobs", "write_json_atomic", "jsonio.write_json_atomic",
     "_size_written"),
    ("repro.jsonio", "fsync_dir", "jsonio.fsync_dir", None),
    ("repro.cost", "CostPredictor.predict", "cost.predict", None),
    ("repro.strategies.cascade", "FallbackCascade.convert",
     "strategies.cascade.convert", None),
    ("repro.strategies.cascade", "FallbackCascade.reference_trace",
     "strategies.cascade.reference_trace", None),
    ("repro.core.analyzer_program", "ProgramAnalyzer.analyze",
     "core.analyze", None),
    ("repro.core.converter", "ProgramConverter.convert", "core.convert",
     None),
    ("repro.core.optimizer", "Optimizer.optimize", "core.optimize", None),
    ("repro.core.generator", "ProgramGenerator.generate", "core.generate",
     None),
    ("repro.programs.interpreter", "run_program", "strategies.native.run",
     None),
    ("repro.strategies.rewrite", "RewriteStrategy.run",
     "strategies.rewrite.run", None),
    ("repro.strategies.emulation", "EmulationStrategy.run",
     "strategies.emulation.run", None),
    ("repro.strategies.bridge", "BridgeStrategy.run",
     "strategies.bridge.run", None),
    ("repro.network.database", "NetworkDatabase.savepoint",
     "engine.savepoint", None),
    ("repro.network.database", "NetworkDatabase.rollback",
     "engine.rollback", None),
    ("repro.parallel", "WorkerPool.__init__", "parallel.pool_init", None),
    ("repro.parallel", "WorkerPool.send", "parallel.send", "_size_sent"),
    ("repro.parallel", "WorkerPool.receive", "parallel.receive_wait",
     "_size_received"),
    ("repro.core.report", "ConversionReport.from_summary",
     "parallel.from_summary", None),
    ("repro.core.report", "parse_program", "programs.parse", None),
    ("repro.api", "parse_program", "programs.parse", None),
    ("repro.service.jobs", "parse_program", "programs.parse", None),
    ("repro.api", "build_cascade", "api.build_cascade", None),
    ("repro.api", "convert_batch", "api.convert_batch", None),
    ("repro.service.jobs", "validate_submission",
     "service.validate_submission", None),
    ("repro.service.jobs", "Job.persist", "service.persist", None),
    ("repro.service.jobs", "JobManager._execute", "service.execute", None),
    ("repro.service.server", "format_event", "service.format_event", None),
    ("repro.service.server", "ServiceHandler.do_POST", "service.http_post",
     None),
)

#: The span the byte hooks run under: sizing is tracing overhead, and
#: timing it as its own entry keeps it out of every other self time.
SIZING = "observe.sizing"


def entry_names() -> list[str]:
    """Every timed name, in table order, with :data:`SIZING` last."""
    names = dict.fromkeys(name for _m, _a, name, _h in ENTRY_POINTS)
    return [*names, SIZING]


def resolve_entry(module_name: str, path: str) -> tuple[Any, str]:
    """The object holding an entry point, and the attribute's name."""
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def stored_attribute(owner: Any, attr: str) -> Any:
    """The attribute as stored (a classmethod object, not the bound
    method), so it can be restored as the very same object."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class LayerTimers:
    """Per-thread call timers over the :data:`ENTRY_POINTS`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[str, list[float]]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.counters: dict[str, int] = {}

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point."""
        if self._patches:
            raise RuntimeError("layer timers are already installed")
        for module_name, path, name, hook in ENTRY_POINTS:
            owner, attr = resolve_entry(module_name, path)
            original = stored_attribute(owner, attr)
            after = getattr(self, hook) if hook else None
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(
                    self.timed(name, original.__func__, after))
            else:
                wrapped = self.timed(name, original, after)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- timing --------------------------------------------------------

    def _frames(self) -> tuple[list[list[float]], dict[str, list[float]]]:
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def timed(self, name: str, fn: Callable,
              after: Callable[[Any, tuple], None] | None = None) -> Callable:
        """``fn`` wrapped to count its calls, total and self time."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span(SIZING):
                    after(result, args)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one call of ``name``."""
        stack, table = self._frames()
        children = [0.0]
        stack.append(children)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            entry = table.get(name)
            if entry is None:
                entry = table[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - children[0]
            if stack:
                stack[-1][0] += elapsed

    def reset(self) -> None:
        """Forget every call and counter recorded so far."""
        with self._lock:
            for table in self._tables:
                table.clear()
            self.counters.clear()

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)`` over all
        threads."""
        merged: dict[str, list[float]] = {}
        with self._lock:
            for table in self._tables:
                for name, (calls, total, own) in list(table.items()):
                    entry = merged.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += calls
                    entry[1] += total
                    entry[2] += own
        return {name: (int(c), t, s) for name, (c, t, s) in merged.items()}

    # -- byte hooks ----------------------------------------------------

    def count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def _size_written(self, result: Any, args: tuple) -> None:
        path = Path(result)
        size = os.stat(path).st_size
        self.count("jsonio.bytes_written", size)
        if "checkpoint" in path.name:
            self.count("batch.journal.bytes_written", size)

    def _size_sent(self, result: Any, args: tuple) -> None:
        self.count("parallel.sent_bytes", len(pickle.dumps(args[2])))

    def _size_received(self, result: Any, args: tuple) -> None:
        self.count("parallel.received_bytes", len(pickle.dumps(result)))
