"""The one options dataclass behind the :mod:`repro.api` facade.

:class:`ConversionOptions` holds every knob of the supervisor, the
cascade, the batch runner and the CLI in one frozen, picklable value
that every public entry point accepts -- picklable matters, because
the parallel executor ships the options to its worker processes
verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # imported lazily to keep this module cycle-free
    from repro.catalog.model import RuleCatalog
    from repro.core.supervisor import Analyst
    from repro.faultinject import FaultPlan
    from repro.programs.interpreter import ProgramInputs

#: The supervisor's default optimizer pass order (Figure 4.1 phase 4).
DEFAULT_OPTIMIZER_PASSES = ("pushdown", "keyed", "calc-locate",
                            "hoist-locate", "dedup-locate", "owner-elim")

#: Minimum pending programs before a worker pool pays for itself.  The
#: floor is deliberately generous: spawning an interpreter and
#: rehydrating the cascade seed costs whole seconds, while a small
#: batch converts in milliseconds in-process.
DEFAULT_PARALLEL_THRESHOLD = 32

#: Ceiling for the auto-resolved dispatch chunk size.
MAX_AUTO_CHUNK = 64


@dataclass(frozen=True)
class ConversionOptions:
    """Every conversion knob the public API understands.

    One instance configures single-program conversion (pipeline knobs),
    cascade validation (stage knobs), and batch execution (journal and
    parallelism knobs) alike; entry points read only the fields they
    use, so one options value can drive a whole workflow end to end.
    """

    # -- pipeline (supervisor) knobs ----------------------------------
    #: Target data model for the generated program (``None``: keep the
    #: source program's model).
    target_model: str | None = None
    #: Optimizer passes, in application order.
    optimizer_passes: tuple[str, ...] = DEFAULT_OPTIMIZER_PASSES
    #: Conversion Analyst answering Section 4 questions (``None``: the
    #: permissive :class:`~repro.core.supervisor.AutoAnalyst`).
    analyst: "Analyst | None" = None
    #: Program name -> {generic-call index -> verb} pins for the
    #: verb-variability pathology.
    verb_pins: dict[str, dict[int, str]] | None = None
    #: Rule catalog driving the Program Converter (``None``: the
    #: shipped builtin catalog).  Load one with
    #: :func:`repro.api.load_rule_catalog`; the catalog is a frozen
    #: value, so it pickles with these options to parallel workers and
    #: its :meth:`~repro.catalog.model.RuleCatalog.identity` keys warm
    #: state sharing in the service.
    rule_catalog: "RuleCatalog | None" = None

    # -- cascade knobs ------------------------------------------------
    #: Terminal/file inputs replayed by every validation probe.
    inputs: "ProgramInputs | None" = None

    # -- batch knobs --------------------------------------------------
    #: Worker process count for batch conversion.  1 is the in-process
    #: fast path (no pooling, no pickling); ``None`` means "one worker
    #: per CPU" and is resolved by the parallel executor.
    jobs: int | None = 1
    #: Programs per parallel dispatch chunk (``None``: auto -- roughly
    #: eight chunks per worker, capped at :data:`MAX_AUTO_CHUNK`, so
    #: dynamic dispatch can rebalance without drowning the task queue).
    chunk_size: int | None = None
    #: Minimum pending programs before the executor spawns a worker
    #: pool; smaller batches auto-degrade to the in-process path
    #: (``None``: ``max(2 * jobs, DEFAULT_PARALLEL_THRESHOLD)``).
    parallel_threshold: int | None = None
    #: JSON checkpoint path: every settled program is appended to
    #: ``<checkpoint>.log``, folded into this document at batch end.
    checkpoint: str | Path | None = None
    #: Skip programs already journaled in ``checkpoint``.
    resume: bool = False
    #: Path for the batch-report artifact: the final
    #: :class:`~repro.core.report.BatchReport` summary written
    #: atomically (:func:`repro.jsonio.write_json_atomic`) when the
    #: batch completes; ``repro convert --report-json`` sets it.  The
    #: conversion service writes no such file: it renders the same
    #: bytes from a completed job's folded checkpoint, whose summaries
    #: are the report's (:meth:`repro.service.jobs.Job.report_bytes`).
    report_json: str | Path | None = None
    #: Deterministic fault plan armed per program unit (robustness
    #: testing; see :mod:`repro.faultinject`).
    fault_plan: "FaultPlan | None" = None

    # -- supervision knobs --------------------------------------------
    #: Per-program wall-clock conversion deadline in seconds, enforced
    #: cooperatively by the interpreter's statement loop (serial and
    #: in-worker alike, so timeout reports stay byte-identical at any
    #: jobs count).  ``None`` disables the watchdog.
    program_timeout: float | None = None

    def __post_init__(self) -> None:
        """Range-check the knobs every entry point trusts, so a bad
        value fails where it is set, not deep inside a batch."""
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.parallel_threshold is not None and self.parallel_threshold < 0:
            raise ValueError(
                f"parallel_threshold must be >= 0, got {self.parallel_threshold}"
            )
        if self.program_timeout is not None and self.program_timeout <= 0:
            raise ValueError(f"program_timeout must be > 0, got {self.program_timeout}")

    def replace(self, **changes: Any) -> "ConversionOptions":
        """A copy with the given fields replaced (frozen-safe)."""
        return replace(self, **changes)

    def resolved_jobs(self) -> int:
        """The effective worker count (``None`` -> CPU count)."""
        if self.jobs is None:
            import os

            return os.cpu_count() or 1
        return self.jobs

    def resolved_chunk_size(self, pending: int, jobs: int) -> int:
        """The effective dispatch chunk size for a batch of ``pending``
        programs across ``jobs`` workers."""
        if self.chunk_size is not None:
            return self.chunk_size
        slots = max(1, jobs) * 8
        return max(1, min(MAX_AUTO_CHUNK, -(-pending // slots)))

    def resolved_parallel_threshold(self, jobs: int) -> int:
        """The minimum pending-corpus size that justifies a pool."""
        if self.parallel_threshold is not None:
            return self.parallel_threshold
        return max(2 * jobs, DEFAULT_PARALLEL_THRESHOLD)


__all__ = [
    "ConversionOptions",
    "DEFAULT_OPTIMIZER_PASSES",
    "DEFAULT_PARALLEL_THRESHOLD",
    "MAX_AUTO_CHUNK",
]
