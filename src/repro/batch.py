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
* **durability** -- after each program the batch appends its report
  summary to a journal log (one JSON line, fsynced), so a killed run
  resumes with ``resume=True`` and completes only the unfinished
  programs; once per batch -- at its end, on an interrupt, and when a
  resume starts -- the log is folded into the canonical JSON
  checkpoint document (atomic rename + directory fsync);
* **fidelity** -- a resumed batch reproduces the same final
  :class:`~repro.core.report.BatchReport` (reports are serialized via
  the exact render/parse round trip).

Journal cost is linear in the batch: every summary is written once to
the log and once to the checkpoint, where rewriting the whole document
after every program wrote the first summary n times.

The parallel executor (:mod:`repro.parallel`) uses the same log format
through per-worker *shards*: worker ``k`` appends each dispatch chunk's
summaries to ``<checkpoint>.shard<k>``, and the coordinator folds the
shards into the checkpoint in program order with the same single fold
step the serial engine uses, so a parallel run's checkpoint is
byte-identical to a serial one.  The fold keys on program names, not
log order, so it is indifferent to which worker converted which chunk.
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
from repro.engine.savepoint import Savepoint
from repro.errors import ReproError
from repro.faultinject import KIND_KILL_WORKER, FaultPlan, WorkerKilled
from repro.jsonio import (
    append_json_lines,
    read_json_lines,
    remove_durable,
    render_json,
    write_json_atomic,
)
from repro.observe.registry import named_counters
from repro.observe.tracing import span
from repro.options import ConversionOptions
from repro.programs.ast import Program
from repro.programs.interpreter import program_deadline
from repro.strategies.cascade import FallbackCascade

CHECKPOINT_VERSION = 1

#: How many times a single program may kill its worker process before
#: it is quarantined with a synthesized ``STATUS_QUARANTINED`` report
#: instead of being retried.  The serial engine (:func:`convert_one`)
#: and the parallel scheduler both read it, so quarantine reports are
#: byte-identical at any jobs count.
MAX_PROGRAM_RETRIES = 2

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


def _verified(path: Path, data: object,
              programs: list[str] | None) -> list[str]:
    """The program list of a checkpoint document or log header, which
    must have this journal's version and, when ``programs`` is given,
    exactly that program list."""
    version = data.get("version") if isinstance(data, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    if programs is not None and data.get("programs") != programs:
        raise CheckpointError(
            f"checkpoint {path} was written for programs "
            f"{data.get('programs')}, not {programs}"
        )
    return data.get("programs")


def _read_log(log: Path, programs: list[str] | None
              ) -> tuple[list[str] | None, list[dict]]:
    """One log's program list and summaries, in append order.

    A missing log holds nothing; so does one whose header was torn.
    A torn final line is dropped (by :func:`read_json_lines`); any
    other malformed line, or a header for other programs, is refused.
    """
    try:
        lines = read_json_lines(log)
    except FileNotFoundError:
        return programs, []
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"cannot read checkpoint log {log}: {exc}") from exc
    if not lines:
        return programs, []
    header, *records = lines
    programs = _verified(log, header, programs)
    for number, record in enumerate(records, start=2):
        if not isinstance(record, dict) or \
                not isinstance(record.get("program"), str):
            raise CheckpointError(
                f"checkpoint log {log} line {number} is not a report "
                f"summary")
    return programs, records


def _reports(document: dict) -> dict[str, ConversionReport]:
    return {
        entry["program"]: ConversionReport.from_summary(entry)
        for entry in document["completed"]
    }


class BatchCheckpoint:
    """Journal of a batch run: append-only logs of report summaries,
    folded into one canonical checkpoint document.

    The checkpoint at ``path`` is ``{"version", "programs",
    "completed"}``, the summaries in program order.  A running batch
    never rewrites it: :meth:`write` appends settled programs to a log
    whose first line is the header ``{"version", "programs"}`` and
    whose every further line is one summary.  The serial engine and the
    parallel coordinator append to ``<path>.log``; pool worker ``k``
    appends to its own ``<path>.shard<k>`` (see :meth:`shard`).
    :meth:`merge_shards` folds the checkpoint and every log into a new
    checkpoint and removes the logs.
    """

    def __init__(self, path: str | Path, log: str | Path | None = None):
        self.path = Path(path)
        #: The log :meth:`write` appends to.
        self.log_path = Path(log) if log is not None else \
            self._sibling(".log")

    def _sibling(self, suffix: str) -> Path:
        return self.path.with_name(self.path.name + suffix)

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> dict:
        """The canonical checkpoint document."""
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {exc}"
            ) from exc
        _verified(self.path, data, None)
        return data

    def write(self, programs: list[str], summaries: list[dict]) -> None:
        """Append report summaries to this journal's log in one durable
        append; the call that creates the log writes the header
        first."""
        append_json_lines(
            summaries, self.log_path,
            header={"version": CHECKPOINT_VERSION, "programs": programs})

    def logged(self, programs: list[str]) -> list[dict]:
        """The summaries in this journal's own log (none when absent)."""
        return _read_log(self.log_path, programs)[1]

    def clear(self) -> None:
        """Durably remove the checkpoint and every log."""
        for path in (self.path, *self.log_paths()):
            remove_durable(path)

    # -- logs ----------------------------------------------------------

    def shard_path(self, worker_id: int) -> Path:
        """Worker ``k``'s private log, next to the checkpoint."""
        return self._sibling(f".shard{worker_id}")

    def shard(self, worker_id: int) -> "BatchCheckpoint":
        """Worker ``k``'s journal: this checkpoint, its own log."""
        return BatchCheckpoint(self.path, log=self.shard_path(worker_id))

    def shard_paths(self) -> list[Path]:
        """Existing shard logs, ordered by worker id."""
        prefix = f"{self.path.name}.shard"
        found = [
            p for p in self.path.parent.glob(f"{prefix}*")
            if p.name[len(prefix):].isdigit()
        ]
        return sorted(found, key=lambda p: int(p.name[len(prefix):]))

    def log_paths(self) -> list[Path]:
        """Existing logs: the batch log, then the shards."""
        batch_log = self._sibling(".log")
        found = [batch_log] if batch_log.exists() else []
        return found + self.shard_paths()

    # -- the fold ------------------------------------------------------

    def _fold(self, programs: list[str] | None
              ) -> tuple[dict | None, list[Path]]:
        """The checkpoint document that folding every log into the
        current one gives, and the logs listed.

        Summaries are deduplicated by program name (a log's replace
        the document's) and ordered by the program list; with
        ``programs`` None the list comes from the journal itself, and
        the document is None when nothing has been journaled.  Logs are
        read before the document: a compaction writes the document
        before it removes a log, so a log that vanishes after listing
        is already in the document read after it.
        """
        logs = self.log_paths()
        appended: list[dict] = []
        for log in logs:
            programs, records = _read_log(log, programs)
            appended.extend(records)
        merged: dict[str, dict] = {}
        if self.exists():
            data = self.load()
            programs = _verified(self.path, data, programs)
            merged = {entry["program"]: entry
                      for entry in data.get("completed", ())}
        if programs is None:
            return None, logs
        merged.update((record["program"], record) for record in appended)
        document = {
            "version": CHECKPOINT_VERSION,
            "programs": programs,
            "completed": [merged[name] for name in programs
                          if name in merged],
        }
        return document, logs

    def merge_shards(self, programs: list[str]) -> dict:
        """Fold every log into the checkpoint; return the document.

        The one fold step of the journal: the checkpoint (if present)
        and every log -- the batch log, worker shards, quarantine
        records -- become one document in program order, the order a
        serial run settles in, so the result is byte-identical to a
        serial run's.  It is written (and its directory fsynced)
        *before* the logs are unlinked: a crash inside the fold leaves
        either the logs or the new checkpoint, never neither.  Without
        logs there is nothing to fold and nothing is written.
        """
        document, logs = self._fold(programs)
        if logs:
            write_json_atomic(document, self.path)
            # Durable unlink: a power loss must not resurrect folded
            # logs for a later resume to fold over fresher state.
            for log in logs:
                remove_durable(log)
        return document

    def recover(self, programs: list[str]) -> dict[str, ConversionReport]:
        """Resume entry point: fold whatever logs an interrupted or
        killed run left, then return the journaled reports.  Tolerates
        a missing checkpoint."""
        return _reports(self.merge_shards(programs))

    def render(self) -> bytes | None:
        """The bytes :meth:`merge_shards` would write now, without
        writing them: a reader's view of a running or killed batch
        (``None`` while nothing is journaled).  Safe while the batch
        appends and compacts concurrently."""
        document, _logs = self._fold(None)
        if document is None:
            return None
        return render_json(document).encode("utf-8")


def open_journal(options: ConversionOptions, names: list[str]
                 ) -> tuple[BatchCheckpoint | None,
                            dict[str, ConversionReport]]:
    """The batch's journal and the reports it already holds.

    Both engines start a batch here.  With ``options.resume`` the logs
    an interrupted run left are folded in and its reports recovered.
    Without it, whatever another run left at the checkpoint path --
    document, log, worker shards -- is durably removed before the first
    program, so it can neither leak into this batch's fold nor be
    refused by it.
    """
    if not options.checkpoint:
        return None, {}
    journal = BatchCheckpoint(options.checkpoint)
    if options.resume:
        return journal, journal.recover(names)
    journal.clear()
    return journal, {}


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
    logs), programs already journaled are not re-run; their reports
    are reconstructed from the journal so the final report matches an
    uninterrupted run.  Without it, a checkpoint path holding another
    run's journal starts empty.

    ``progress`` is invoked as ``progress(report, done, total,
    resumed)`` after every program settles -- *after* its report is
    appended to the log, so a callback that raises (the conversion
    service's cooperative stop raises ``KeyboardInterrupt`` there)
    always leaves a journal that resumes past the reported program;
    the log is folded into the checkpoint on the way out.  Programs
    recovered from the checkpoint are reported too, with
    ``resumed=True``, so a resumed batch still narrates every program
    exactly once.

    This is the serial engine; ``options.jobs`` is ignored here.  The
    facade's :func:`repro.api.convert_batch` dispatches to
    :class:`repro.parallel.ParallelExecutor` when ``jobs > 1``.
    """
    options = options if options is not None else ConversionOptions()
    names = check_program_names(programs)
    journal, done = open_journal(options, names)
    return convert_serially(cascade, programs, options, journal, done,
                            progress)


def convert_serially(cascade: FallbackCascade, programs: list[Program],
                     options: ConversionOptions,
                     journal: BatchCheckpoint | None,
                     done: dict[str, ConversionReport],
                     progress: "ProgressCallback | None" = None
                     ) -> BatchReport:
    """The serial engine over a journal :func:`open_journal` opened:
    one log append per converted program, one fold at the end -- in a
    ``finally``, so an interrupt still leaves the checkpoint
    document."""
    names = [program.name for program in programs]
    batch = BatchReport()
    total = len(programs)
    settled = 0
    with span("batch.convert", programs=total):
        try:
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
                if journal is not None:
                    journal.write(names, [report.to_summary()])
                settled += 1
                if progress is not None:
                    progress(report, settled, total, False)
        finally:
            if journal is not None:
                journal.merge_shards(names)
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
    :data:`MAX_PROGRAM_RETRIES` times before the program is
    quarantined -- mirroring, attempt for attempt, what the parallel
    coordinator does when a real worker dies, so quarantine reports
    are byte-identical at any jobs count.  In a pool worker a kill
    fault never reaches this handler (the process exits).
    """
    plan = options.fault_plan
    kills = 0
    while True:
        # Fresh savepoints per attempt: a rollback ends its savepoint.
        # Every path that does not roll them back releases them, or
        # the databases would go on logging for the rest of the batch.
        source_sp = cascade.source_db.savepoint()
        target_sp = cascade.target_db.savepoint()
        try:
            with program_deadline(options.program_timeout):
                if plan:
                    with plan.armed(program.name, {
                        "source_db": cascade.source_db,
                        "target_db": cascade.target_db,
                    }):
                        report = cascade.convert(program, options=options)
                else:
                    report = cascade.convert(program, options=options)
        except WorkerKilled:
            _rollback(cascade, source_sp, target_sp)
            kills += 1
            if kills >= MAX_PROGRAM_RETRIES:
                named_counters("supervision").bump("quarantined")
                return quarantine_report(program.name, kills, plan)
            continue
        except Exception as exc:
            _rollback(cascade, source_sp, target_sp)
            fault = FaultContext.from_exception(exc, program=program.name,
                                                phase="convert-batch")
            report = ConversionReport(program.name, STATUS_FAILED)
            report.failure = str(exc)
            report.fault = fault
            return report
        except BaseException:
            _release(cascade, source_sp, target_sp)
            raise
        _release(cascade, source_sp, target_sp)
        return report


def _rollback(cascade: FallbackCascade, source_sp: Savepoint,
              target_sp: Savepoint) -> None:
    """Restore both databases; the newer savepoint goes first, which
    matters only when both are the same database."""
    cascade.target_db.rollback(target_sp)
    cascade.source_db.rollback(source_sp)


def _release(cascade: FallbackCascade, source_sp: Savepoint,
             target_sp: Savepoint) -> None:
    """End both savepoints, keeping the databases as they are."""
    cascade.target_db.release(target_sp)
    cascade.source_db.release(source_sp)
