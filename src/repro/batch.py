"""Fault-isolated, checkpointed batch conversion.

Section 1.1: "a database application system is converted when each
program actually existing in the source system has been converted."
A real conversion shop runs hundreds of programs in one batch, and the
batch must survive any single program going wrong: one fault may not
take down the run, corrupt the databases the probes execute against,
or lose the work already done.

:func:`run_batch` provides those three guarantees over a
:class:`~repro.strategies.cascade.FallbackCascade`:

* **isolation** -- every program converts inside engine savepoints;
  a fault (even an injected engine fault) is caught, rolled back, and
  recorded as a failed :class:`~repro.core.report.ConversionReport`
  with a :class:`~repro.core.report.FaultContext` carrying the chained
  root cause, while the rest of the batch proceeds;
* **durability** -- after each program the batch journals its progress
  to a JSON checkpoint (atomic rename + directory fsync), so a killed
  run resumes with ``resume=True`` and completes only the unfinished
  programs;
* **fidelity** -- a resumed batch reproduces the same final
  :class:`~repro.core.report.BatchReport` (reports are serialized via
  the exact render/parse round trip).

The parallel executor (:mod:`repro.parallel`) reuses the same journal
through per-worker *shards*: worker ``k`` journals its cumulative
progress to ``<checkpoint>.shard<k>`` after every dispatch chunk, and
the coordinator merges the shards into the main checkpoint in program
order -- atomically, shards unlinked only after the merged document is
durable -- so a resumed parallel run is byte-identical to a serial
one.  The merge keys on program names, not shard order, so it is
indifferent to which worker converted which chunk.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from repro.core.report import (
    BatchReport,
    ConversionReport,
    FaultContext,
    STATUS_FAILED,
    STATUS_QUARANTINED,
)
from repro.errors import ReproError
from repro.faultinject import KIND_KILL_WORKER, FaultPlan, WorkerKilled
from repro.jsonio import remove_durable, write_json_atomic
from repro.observe.registry import named_counters
from repro.observe.tracing import span
from repro.options import ConversionOptions
from repro.programs.ast import Program
from repro.programs.interpreter import program_deadline
from repro.strategies.cascade import FallbackCascade

CHECKPOINT_VERSION = 1

#: Per-program progress callback: ``(report, done, total, resumed)``.
#: ``done`` counts settled programs (converted, failed, quarantined,
#: or recovered from a checkpoint), ``total`` is the batch size, and
#: ``resumed`` marks reports reconstructed from the journal rather
#: than converted in this run.  Serial batches call it in program
#: order; parallel batches call it in completion order (the final
#: :class:`~repro.core.report.BatchReport` is program-ordered either
#: way).  An exception raised from the callback aborts the batch after
#: the reported program -- with the journal already written, so a
#: ``KeyboardInterrupt`` here is exactly the graceful-interrupt path.
ProgressCallback = Callable[[ConversionReport, int, int, bool], None]


class CheckpointError(ReproError):
    """A checkpoint file is unreadable or belongs to a different batch."""


class BatchCheckpoint:
    """Journal of a batch run: which programs, which are done, and
    their report summaries -- one JSON document, rewritten atomically
    after every program."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> dict:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {exc}"
            ) from exc
        if data.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has version "
                f"{data.get('version')!r}, expected {CHECKPOINT_VERSION}"
            )
        return data

    def completed_summaries(self, programs: list[str]) -> dict[str, dict]:
        """The already-journaled report summaries, verified against
        this batch's program list (a checkpoint from a different batch
        is refused, not silently merged)."""
        data = self.load()
        if data.get("programs") != programs:
            raise CheckpointError(
                f"checkpoint {self.path} was written for programs "
                f"{data.get('programs')}, not {programs}"
            )
        return {
            entry["program"]: entry for entry in data.get("completed", ())
        }

    def completed_reports(self, programs: list[str]
                          ) -> dict[str, ConversionReport]:
        """:meth:`completed_summaries`, parsed back into reports."""
        return {
            name: ConversionReport.from_summary(entry)
            for name, entry in self.completed_summaries(programs).items()
        }

    def write(self, programs: list[str],
              completed: list[ConversionReport]) -> None:
        """Atomic journal update (write-then-rename, so a kill mid-write
        leaves the previous checkpoint intact)."""
        self.write_summaries(
            programs, [report.to_summary() for report in completed])

    def write_summaries(self, programs: list[str],
                        completed: list[dict]) -> None:
        data = {
            "version": CHECKPOINT_VERSION,
            "programs": programs,
            "completed": completed,
        }
        write_json_atomic(data, self.path)

    def clear(self) -> None:
        remove_durable(self.path)
        for shard in self.shard_paths():
            remove_durable(shard)

    # -- per-worker shards (parallel batches) --------------------------

    def shard_path(self, worker_id: int) -> Path:
        """Worker ``k``'s private journal, next to the main checkpoint."""
        return self.path.with_name(f"{self.path.name}.shard{worker_id}")

    def shard(self, worker_id: int) -> "BatchCheckpoint":
        return BatchCheckpoint(self.shard_path(worker_id))

    def shard_paths(self) -> list[Path]:
        """Existing shard files, ordered by worker id."""
        prefix = f"{self.path.name}.shard"
        found = [
            p for p in self.path.parent.glob(f"{prefix}*")
            if p.name[len(prefix):].isdigit()
        ]
        return sorted(found, key=lambda p: int(p.name[len(prefix):]))

    def merge_shards(self, programs: list[str]) -> None:
        """Fold every worker shard into the main checkpoint.

        The union of the main document and all shards is rewritten in
        program order -- the same order a serial run journals in, so
        the merged checkpoint is byte-identical to a serial one.  The
        merged document is written (and its directory fsynced) *before*
        the shards are unlinked: a crash inside the merge window leaves
        either the shards or the merged main, never neither.  The
        fault-injection harness targets exactly that window via
        ``inject(repro.batch, "write_json_atomic")`` and
        ``inject(repro.jsonio, "fsync_dir")``.
        """
        merged: dict[str, dict] = {}
        if self.exists():
            merged.update(self.completed_summaries(programs))
        shards = self.shard_paths()
        for shard_file in shards:
            merged.update(
                BatchCheckpoint(shard_file).completed_summaries(programs))
        ordered = [merged[name] for name in programs if name in merged]
        write_json_atomic(
            {
                "version": CHECKPOINT_VERSION,
                "programs": programs,
                "completed": ordered,
            },
            self.path,
        )
        # Durable unlink: a power loss must not resurrect already-merged
        # shards for a later resume to fold over fresher main state.
        for shard_file in shards:
            remove_durable(shard_file)

    def recover(self, programs: list[str]) -> dict[str, ConversionReport]:
        """Resume entry point: fold in any leftover shards (a parallel
        run killed before or during its merge), then return the
        completed reports.  Tolerates a missing main checkpoint."""
        if self.shard_paths():
            self.merge_shards(programs)
        if not self.exists():
            return {}
        return self.completed_reports(programs)


def check_program_names(programs: list[Program]) -> list[str]:
    """The batch's program names, refused on duplicates (the journal
    and the parallel merge both key on the name)."""
    names = [program.name for program in programs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate program names in batch: {names}")
    return names


def run_batch(cascade: FallbackCascade, programs: list[Program],
              options: ConversionOptions | None = None,
              progress: "ProgressCallback | None" = None) -> BatchReport:
    """Convert every program through the fallback cascade, isolating
    per-program faults and journaling progress.

    With ``options.resume`` and an existing checkpoint (or leftover
    parallel shards), programs already journaled are not re-run; their
    reports are reconstructed from the checkpoint so the final report
    matches an uninterrupted run.

    ``progress`` is invoked as ``progress(report, done, total,
    resumed)`` after every program settles -- *after* its report is
    journaled, so a callback that raises (the conversion service's
    cooperative stop raises ``KeyboardInterrupt`` there) always leaves
    a checkpoint that resumes past the reported program.  Programs
    recovered from the checkpoint are reported too, with
    ``resumed=True``, so a resumed batch still narrates every program
    exactly once.

    This is the serial engine; ``options.jobs`` is ignored here.  The
    facade's :func:`repro.api.convert_batch` dispatches to
    :class:`repro.parallel.ParallelExecutor` when ``jobs > 1``.
    """
    options = options if options is not None else ConversionOptions()
    names = check_program_names(programs)

    journal = BatchCheckpoint(options.checkpoint) if options.checkpoint \
        else None
    done: dict[str, ConversionReport] = {}
    if journal is not None and options.resume:
        done = journal.recover(names)

    batch = BatchReport()
    finished: list[ConversionReport] = [
        done[name] for name in names if name in done
    ]

    total = len(programs)
    settled = 0
    with span("batch.convert", programs=len(programs)):
        for program in programs:
            if program.name in done:
                batch.add(done[program.name])
                settled += 1
                if progress is not None:
                    progress(done[program.name], settled, total, True)
                continue
            with span("batch.program", program=program.name):
                report = convert_one(cascade, program, options)
            batch.add(report)
            finished.append(report)
            if journal is not None:
                journal.write(names, finished)
            settled += 1
            if progress is not None:
                progress(report, settled, total, False)
    return batch


def quarantine_report(program_name: str, attempts: int,
                      plan: "FaultPlan | None" = None) -> ConversionReport:
    """The synthesized report for a poison program pulled from a batch.

    Built from the *plan*, never from a live exception or worker id:
    the parallel coordinator synthesizes this report for a program
    whose worker died (there is no exception object, and worker ids
    vary with the jobs count), and the serial engine synthesizes the
    identical one after its in-process retries -- byte-identical
    checkpoints at any jobs count depend on both sides agreeing on
    every character here.
    """
    cause_chain: tuple[str, ...] = ()
    if plan is not None:
        for fault in plan.for_program(program_name):
            if fault.kind == KIND_KILL_WORKER:
                cause_chain = (
                    f"WorkerKilled: injected worker kill at "
                    f"{fault.describe()}",
                )
                break
    fault_context = FaultContext(
        error_type="WorkerKilled",
        message=(f"conversion killed its worker process "
                 f"{attempts} time(s); program quarantined"),
        program=program_name,
        phase="supervise",
        cause_chain=cause_chain,
    )
    report = ConversionReport(program_name, STATUS_QUARANTINED)
    report.failure = (f"quarantined as poison input: conversion killed "
                      f"its worker process {attempts} time(s)")
    report.fault = fault_context
    return report


def convert_one(cascade: FallbackCascade, program: Program,
                options: ConversionOptions) -> ConversionReport:
    """One program through the cascade, with belt-and-braces rollback:
    the cascade already probes inside savepoints, but if a fault
    escapes anyway both databases are restored here before the failure
    is recorded.

    When the options carry a fault plan, its faults for this program
    are armed around the conversion -- call counting scoped to this
    one program unit, so the plan fires identically no matter how the
    batch is ordered or sharded across workers.

    Supervision hooks live here too, because this is the one function
    both the serial engine and every pool worker route through:
    ``options.program_timeout`` arms the interpreter's cooperative
    deadline around each attempt, and a :class:`WorkerKilled` fault
    (the serial stand-in for a worker process dying) is retried up to
    ``options.max_program_retries`` times before the program is
    quarantined -- mirroring, attempt for attempt, what the parallel
    coordinator does when a real worker dies, so quarantine reports
    are byte-identical at any jobs count.  In a pool worker a kill
    fault never reaches this handler (the process exits).
    """
    source_sp = cascade.source_db.savepoint()
    target_sp = cascade.target_db.savepoint()
    plan = options.fault_plan
    retries = max(1, options.max_program_retries)
    kills = 0
    while True:
        try:
            with program_deadline(options.program_timeout):
                if plan:
                    with plan.armed(program.name, {
                        "source_db": cascade.source_db,
                        "target_db": cascade.target_db,
                    }):
                        outcome = cascade.convert(program, options=options)
                else:
                    outcome = cascade.convert(program, options=options)
        except WorkerKilled:
            cascade.source_db.rollback(source_sp)
            cascade.target_db.rollback(target_sp)
            kills += 1
            if kills >= retries:
                named_counters("supervision").bump("quarantined")
                return quarantine_report(program.name, kills, plan)
            continue
        except Exception as exc:
            cascade.source_db.rollback(source_sp)
            cascade.target_db.rollback(target_sp)
            fault = FaultContext.from_exception(exc, program=program.name,
                                                phase="convert-batch")
            report = ConversionReport(program.name, STATUS_FAILED)
            report.failure = str(exc)
            report.fault = fault
            return report
        return outcome.report

