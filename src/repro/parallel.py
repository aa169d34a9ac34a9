"""Parallel multi-worker batch conversion over a persistent warm pool.

Batch conversion is embarrassingly parallel in exactly the way the
cascade's savepoint discipline guarantees: every probe rolls back, so
both databases are byte-identical before *every* program and the
per-program work is independent of batch order.  The original executor
exploited that with a spawn-per-batch pool, which made parallelism
*slower* than serial on realistic small batches -- process spawn plus
seed-state rehydration cost whole seconds against milliseconds of
work.  This module replaces it with a :class:`WorkerPool` of
long-lived worker processes:

* the coordinator pickles the cascade seed state **once** and ships it
  **once per worker at spawn**, never per batch; each worker
  rehydrates once and stays warm for any number of batches;
* programs are dispatched in **chunks** from a coordinator-side bag of
  tasks (dynamic dispatch: a fast worker completes more chunks, so an
  expensive pathology on one worker no longer stalls a static
  round-robin share);
* worker ``k`` appends every chunk's report summaries to its
  ``<checkpoint>.shard<k>`` log, one fsynced append per chunk (a group
  commit), so a killed or interrupted run resumes past every chunk a
  worker finished;
* batches below ``options.parallel_threshold`` pending programs
  auto-degrade to the in-process path (and say why at INFO level) --
  ``--jobs 8`` on a tiny batch must not cost 35x;
* Ctrl-C / SIGTERM inside the pool window **drains** gracefully: no
  new chunks are dispatched, in-flight chunks finish and are
  journaled, every log is folded into the checkpoint, and the
  interrupt is re-raised with a resumable journal on disk;
* the coordinator **supervises** the pool: a dead worker's in-flight
  chunks are reclaimed from the dealt-chunk ledger and re-dealt, a
  replacement worker is respawned (exponential backoff with
  deterministic, seed-stable jitter; bounded by
  ``options.max_worker_respawns`` consecutive respawns without
  progress), a chunk that keeps killing workers is bisected until the
  poison program is isolated, and a program that individually kills a
  worker ``options.max_program_retries`` times is **quarantined** with
  a synthesized ``STATUS_QUARANTINED`` report -- the batch completes
  instead of raising.  ``options.program_timeout`` arms the
  interpreter's cooperative watchdog so a hung program times out with
  the same deterministic report serially and in-worker.

The deterministic merge is unchanged from the spawn-per-batch
executor: report summaries come back through the exact render/parse
round trip and are reassembled in program order, per-program metrics
are reattached, worker registry deltas are absorbed via
:class:`~repro.observe.registry.FrozenMetricsSource`, worker span
forests mount under per-worker ``parallel.worker`` roots, and the
shards, together with the coordinator's quarantine records, fold into
the checkpoint in program order through the serial engine's fold step
(:meth:`repro.batch.BatchCheckpoint.merge_shards`) -- so reports,
checkpoint bytes, and metrics are byte-identical to a serial run at
any worker count, any chunk size, and any dispatch interleaving.

``jobs=1`` (or a batch with at most one pending program) takes the
in-process fast path: no pool, no pickling, no subprocess -- just the
serial engine, :func:`repro.batch.convert_serially`.
"""

from __future__ import annotations

import logging
import pickle
import random
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from multiprocessing import get_context
from queue import Empty
from typing import Iterator

from repro.batch import (
    BatchCheckpoint,
    CheckpointError,
    ProgressCallback,
    check_program_names,
    convert_one,
    convert_serially,
    open_journal,
    quarantine_report,
)
from repro.core.report import BatchReport, ConversionReport
from repro.errors import ReproError
from repro.faultinject import mark_worker_process
from repro.observe.merge import merge_worker_trace
from repro.observe.registry import (
    FrozenMetricsSource,
    get_registry,
    named_counters,
    registry_delta,
)
from repro.observe.tracing import Tracer, current_tracer, span
from repro.options import ConversionOptions
from repro.programs.ast import Program
from repro.strategies.cascade import FallbackCascade

log = logging.getLogger(__name__)

#: Chunks kept in flight per worker: two, so the worker that finishes
#: a chunk always has the next one already queued (the dispatch round
#: trip hides behind real work) while the bag keeps enough undispatched
#: chunks for dynamic rebalancing.
PREFILL = 2

#: Result-queue poll interval; every timeout re-checks worker health.
#: Historic default -- the live value is ``options.poll_interval``.
POLL_SECONDS = 0.2

#: Budget for the graceful-interrupt drain: in-flight chunks get this
#: long to finish and journal before the pool is terminated.  Historic
#: default -- the live value is ``options.drain_timeout``.
DRAIN_SECONDS = 30.0

#: How long ``close()`` waits for a worker to exit before terminating.
CLOSE_SECONDS = 5.0

#: Base of the respawn backoff: respawn ``n`` (since the last sign of
#: progress) sleeps ``BASE * 2**n`` seconds, capped, plus a
#: deterministic jitter seeded by the respawn ordinal -- seed-stable,
#: so chaos runs replay with identical pacing.
RESPAWN_BACKOFF_BASE = 0.02
RESPAWN_BACKOFF_CAP = 1.0


class ParallelExecutionError(ReproError):
    """The worker pool could not finish the batch.

    Individual worker deaths no longer raise this -- the coordinator
    reclaims the dead worker's chunks, respawns a replacement, and
    quarantines poison programs.  What remains fatal is a pool that
    crash-loops without making progress (``max_worker_respawns``
    consecutive respawns with nothing completed, quarantined, or
    narrowed) or a worker shipping a coordinator-level error.  Any
    per-worker checkpoint shards already journaled remain on disk, so
    a ``resume`` run completes only the genuinely unfinished programs.
    """


def _pool_worker(worker_id: int, seed_blob: bytes, task_queue, result_queue):
    """One long-lived worker process.

    Rehydrates the pickled ``(cascade, options)`` seed exactly once
    (unpickling re-registers the engine metrics bundles into *this*
    process's registry, see
    :meth:`repro.engine.metrics.Metrics.__setstate__`), then serves
    ``begin`` / ``chunk`` / ``flush`` / ``exit`` messages until told to
    stop.  SIGINT is ignored: a terminal Ctrl-C reaches the whole
    process group, and it is the coordinator's drain -- not the
    signal -- that must stop a worker, *after* its in-flight chunk is
    journaled.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def _drain_results() -> None:
        # Ran by an injected kill_worker fault just before os._exit:
        # close the result queue and join its feeder thread so a
        # previous chunk's already-queued result is fully written to
        # the pipe rather than torn mid-exit.
        result_queue.close()
        result_queue.join_thread()

    mark_worker_process(_drain_results)
    cascade, options = pickle.loads(seed_blob)
    registry = get_registry()

    journal: BatchCheckpoint | None = None
    names: list[str] = []
    tracer: Tracer | None = None
    before: dict[str, int] = {}
    clock_base = 0.0
    active = False

    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "exit":
            return
        if kind == "begin":
            _, names, checkpoint, trace = message
            journal = (
                BatchCheckpoint(checkpoint).shard(worker_id)
                if checkpoint
                else None
            )
            before = registry.snapshot()
            tracer = Tracer() if trace else None
            if tracer is not None:
                tracer.__enter__()
            clock_base = time.perf_counter()
            active = True
            continue
        if kind == "flush":
            if not active:
                result_queue.put(("flush", worker_id, {}, [], 0.0))
                continue
            if tracer is not None:
                tracer.__exit__(None, None, None)
            spans = (
                [root.to_dict() for root in tracer.roots] if tracer else []
            )
            result_queue.put(
                (
                    "flush",
                    worker_id,
                    registry_delta(before, registry.snapshot()),
                    spans,
                    clock_base,
                )
            )
            tracer = None
            active = False
            continue
        # ("chunk", chunk_id, programs_blob)
        _, chunk_id, programs_blob = message
        try:
            programs: list[Program] = pickle.loads(programs_blob)
            chunk_summaries: list[dict] = []
            chunk_metrics: dict[str, dict[str, int]] = {}
            for program in programs:
                with span("batch.program", program=program.name):
                    report = convert_one(cascade, program, options)
                chunk_summaries.append(report.to_summary())
                # A fault that escapes the cascade leaves metrics as
                # None (convert_one's belt-and-braces path); ship that
                # as-is so the merged report matches serial.
                if report.metrics is not None:
                    chunk_metrics[program.name] = dict(report.metrics)
            if journal is not None:
                journal.write(names, chunk_summaries)
        except Exception as exc:  # pragma: no cover - shipped upward
            result_queue.put(
                ("error", worker_id, f"{type(exc).__name__}: {exc}")
            )
            continue
        result_queue.put(
            ("chunk", worker_id, chunk_id, chunk_summaries, chunk_metrics)
        )


class WorkerPool:
    """A persistent pool of warm worker processes bound to one seed.

    Construction pickles ``(cascade, options)`` once and spawns
    ``jobs`` worker processes, each receiving the seed bytes exactly
    once; every worker rehydrates on startup and then serves any
    number of batches.  Reuse the pool across batches (via
    ``ParallelExecutor(..., pool=...)`` or
    :func:`repro.api.convert_batch`'s ``pool=``) to amortize spawn and
    rehydration entirely.

    The pool is a context manager; :meth:`close` shuts the workers
    down cleanly.  Savepoint discipline keeps every worker's engines
    byte-identical to the seed between programs, so a warm worker is
    exactly as deterministic as a fresh one.
    """

    def __init__(
        self,
        cascade: FallbackCascade,
        options: ConversionOptions | None = None,
        jobs: int | None = None,
        context: str = "spawn",
    ):
        options = options if options is not None else ConversionOptions()
        self.jobs = jobs if jobs is not None else options.resolved_jobs()
        if self.jobs < 1:
            raise ValueError(f"pool needs >= 1 worker, got {self.jobs}")
        # Spawn, not fork: fork in a threaded parent is deprecated (and
        # unsafe), and spawn gives each worker the clean interpreter
        # the rehydration contract assumes.
        ctx = get_context(context)
        self._ctx = ctx
        self.seed_blob = pickle.dumps((cascade, options))
        self._results = ctx.Queue()
        self._tasks = [ctx.Queue() for _ in range(self.jobs)]
        self._procs = [
            ctx.Process(
                target=_pool_worker,
                args=(k, self.seed_blob, self._tasks[k], self._results),
                name=f"repro-worker-{k}",
                daemon=True,
            )
            for k in range(self.jobs)
        ]
        for proc in self._procs:
            proc.start()
        #: Worker ids taken out of service by the supervisor (their
        #: shard logs stay on disk for the fold; their queues stay
        #: allocated so ids never recycle).
        self.retired: set[int] = set()
        self.closed = False

    # -- messaging -----------------------------------------------------

    def send(self, worker_id: int, message: tuple) -> None:
        self._tasks[worker_id].put(message)

    def receive(self, timeout: float) -> tuple:
        """The next worker result (raises ``queue.Empty`` on timeout)."""
        return self._results.get(timeout=timeout)

    def flush(self, worker_id: int) -> None:
        self.send(worker_id, ("flush",))

    # -- health and lifecycle ------------------------------------------

    def active_ids(self) -> list[int]:
        """Worker ids currently in service (spawned, not retired)."""
        return [
            k for k in range(len(self._procs)) if k not in self.retired
        ]

    def dead_workers(self) -> list[int]:
        """In-service workers whose process has exited."""
        return [
            k
            for k, proc in enumerate(self._procs)
            if k not in self.retired and not proc.is_alive()
        ]

    def retire(self, worker_id: int) -> None:
        """Take a (dead) worker out of service.  Its shard log stays
        on disk -- the chunks it journaled before dying are folded into
        the checkpoint at merge time."""
        self.retired.add(worker_id)

    def respawn(self) -> int:
        """Spawn a replacement worker under a fresh id.

        A fresh id, never a recycled one: the dead worker's shard must
        survive for the fold, so the replacement gets its own shard
        log (and its own task queue -- messages queued to the dead
        worker are reclaimed from the coordinator's ledger, not from
        its queue).
        """
        worker_id = len(self._procs)
        task_queue = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(worker_id, self.seed_blob, task_queue, self._results),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        self._tasks.append(task_queue)
        self._procs.append(proc)
        proc.start()
        return worker_id

    def worker_pids(self) -> list[int]:
        """Live worker PIDs (stable across batches: the warmness proof)."""
        return [
            proc.pid
            for k, proc in enumerate(self._procs)
            if k not in self.retired
        ]

    def close(self) -> None:
        """Shut the workers down; idempotent."""
        if self.closed:
            return
        self.closed = True
        for worker_id in range(len(self._tasks)):
            try:
                self.send(worker_id, ("exit",))
            except (OSError, ValueError):  # queue already torn down
                pass
        for proc in self._procs:
            proc.join(timeout=CLOSE_SECONDS)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=CLOSE_SECONDS)

    def terminate(self) -> None:
        """Hard-kill the workers (drain deadline exceeded)."""
        self.closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=CLOSE_SECONDS)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@contextmanager
def _interrupt_on_sigterm() -> Iterator[None]:
    """Convert SIGTERM into KeyboardInterrupt inside the pool window,
    so an orchestrator's polite kill takes the same graceful-drain path
    as a terminal Ctrl-C.  No-op outside the main thread (signal
    handlers cannot be installed elsewhere)."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def handler(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class ParallelExecutor:
    """Coordinates a multi-process batch conversion over a warm pool.

    The executor owns the deterministic merge: reports come back in
    program order regardless of which worker converted what, checkpoint
    shards fold into the checkpoint in program order, worker metrics
    are absorbed into the coordinator registry, and worker span forests
    mount under per-worker roots on the active tracer.

    Pass ``pool=`` to reuse a :class:`WorkerPool` across batches (the
    caller owns its lifecycle); otherwise the executor spins one up for
    the run and closes it after.  With an external pool the pool's
    seed state and worker count govern the conversion.
    """

    def __init__(
        self,
        cascade: FallbackCascade,
        programs: list[Program],
        options: ConversionOptions | None = None,
        pool: WorkerPool | None = None,
        progress: ProgressCallback | None = None,
    ):
        self.cascade = cascade
        self.programs = list(programs)
        self.options = options if options is not None else ConversionOptions()
        self.pool = pool
        #: Per-program progress callback (see
        #: :data:`repro.batch.ProgressCallback`).  On the pool path it
        #: fires in completion order, once per program, as chunk
        #: results reach the coordinator -- after the producing worker
        #: journaled its shard, so a callback that raises
        #: ``KeyboardInterrupt`` (the service's cooperative stop)
        #: drains to a checkpoint that resumes past every reported
        #: program.
        self.progress = progress
        #: Strong references to absorbed worker deltas (the registry
        #: holds sources weakly).
        self.absorbed: list[FrozenMetricsSource] = []

    def run(self) -> BatchReport:
        """Convert the batch; equivalent to :func:`run_batch` output."""
        options = self.options
        names = check_program_names(self.programs)
        jobs = self.pool.jobs if self.pool is not None else options.resolved_jobs()

        journal, done = open_journal(options, names)
        pending = [p for p in self.programs if p.name not in done]

        if jobs <= 1 or len(pending) <= 1:
            # In-process fast path: no pool, no pickling, no fork.
            return convert_serially(
                self.cascade, self.programs, options, journal, done, self.progress
            )
        threshold = options.resolved_parallel_threshold(jobs)
        if self.pool is None and len(pending) < threshold:
            # Auto-degrade: below the threshold the pool's spawn and
            # rehydration cost dwarfs the conversion work.  An external
            # warm pool skips this check -- its marginal cost is nil.
            log.info(
                "parallel: %d pending program(s) is below the pool "
                "threshold %d for jobs=%d; converting in-process "
                "(spawn + seed rehydration would dominate)",
                len(pending),
                threshold,
                jobs,
            )
            return convert_serially(
                self.cascade, self.programs, options, journal, done, self.progress
            )

        pool = self.pool
        owned = pool is None
        if owned:
            pool = WorkerPool(
                self.cascade, options, jobs=min(jobs, len(pending))
            )
        trace = current_tracer() is not None
        coordinator_base = time.perf_counter()
        try:
            with _interrupt_on_sigterm():
                try:
                    chunk_results, flushes, quarantined = self._run_pool(
                        pool, pending, names, journal, trace, done
                    )
                except (KeyboardInterrupt, SystemExit):
                    self._drain(pool, names, journal)
                    raise
        finally:
            if owned:
                pool.close()

        return self._merge(
            chunk_results,
            flushes,
            names,
            done,
            journal,
            coordinator_base,
            quarantined,
        )

    # -- the pool ------------------------------------------------------

    def _run_pool(
        self,
        pool: WorkerPool,
        pending: list[Program],
        names: list[str],
        journal: BatchCheckpoint | None,
        trace: bool,
        done: dict[str, ConversionReport],
    ) -> tuple[
        list[tuple[list[dict], dict, dict]],
        list[tuple],
        dict[str, ConversionReport],
    ]:
        """Dispatch chunks dynamically, supervising the pool.

        Returns ``(chunk_results, flushes, quarantined)``: chunk
        results in arrival order (the merge re-sorts by program), one
        flush per surviving worker in worker-id order, and the reports
        synthesized for quarantined poison programs.

        Supervision: every result-queue poll timeout re-checks worker
        health.  A dead worker is retired, its dealt-but-unjournaled
        chunks are reclaimed from the ledger and re-dealt (the first
        chunk not fully present in its shard journal is the suspect:
        shards are journaled after every chunk, so that is exactly
        where the worker died), suspect chunks are bisected until the
        poison program is isolated, and a program whose chunk-of-one
        kills ``options.max_program_retries`` workers is quarantined
        with the same synthesized report the serial engine produces.
        A replacement worker is respawned under backoff whenever
        re-dealt work exists; ``options.max_worker_respawns``
        consecutive respawns without progress (a chunk completed,
        quarantined, or narrowed) fail the batch instead of
        crash-looping forever.
        """
        options = self.options
        if options.poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be > 0, got {options.poll_interval}"
            )
        if options.drain_timeout < 0:
            raise ValueError(
                f"drain_timeout must be >= 0, got {options.drain_timeout}"
            )
        chunk_size = options.resolved_chunk_size(len(pending), pool.jobs)
        supervision = named_counters("supervision")
        retries = max(1, options.max_program_retries)

        bag: deque[tuple[int, list[Program]]] = deque()
        next_chunk_id = 0
        for index in range(0, len(pending), chunk_size):
            bag.append((next_chunk_id, pending[index : index + chunk_size]))
            next_chunk_id += 1

        #: worker id -> chunks dealt to it and not yet completed, in
        #: deal order (workers process their queue FIFO).
        ledger: dict[int, deque[tuple[int, list[Program]]]] = {}
        kill_counts: dict[str, int] = {}
        quarantined: dict[str, ConversionReport] = {}
        remaining = {program.name for program in pending}
        unproductive_respawns = 0
        total_respawns = 0

        progress = self.progress
        total = len(names)
        settled = 0
        reported: set[str] = set()

        def notify(report: ConversionReport, resumed: bool = False) -> None:
            # Once per program, in completion order; re-dealt duplicate
            # chunk results are filtered on the program name.  Raising
            # here (the service's cooperative stop) propagates into the
            # graceful-drain path with the reporting worker's shard
            # already journaled.
            nonlocal settled
            if progress is None or report.program_name in reported:
                return
            reported.add(report.program_name)
            settled += 1
            progress(report, settled, total, resumed)

        for name in names:
            if name in done:
                notify(done[name], resumed=True)

        def begin(worker_id: int) -> None:
            checkpoint = str(journal.path) if journal is not None else None
            pool.send(worker_id, ("begin", names, checkpoint, trace))
            ledger[worker_id] = deque()

        def fill(worker_id: int) -> None:
            dealt = ledger.get(worker_id)
            if dealt is None:
                return
            while len(dealt) < PREFILL and bag:
                chunk_id, chunk = bag.popleft()
                pool.send(
                    worker_id, ("chunk", chunk_id, pickle.dumps(chunk))
                )
                dealt.append((chunk_id, chunk))

        def quarantine(program: Program) -> None:
            report = quarantine_report(
                program.name,
                kill_counts[program.name],
                options.fault_plan,
            )
            quarantined[program.name] = report
            remaining.discard(program.name)
            supervision.bump("quarantined")
            if journal is not None:
                # Quarantined programs never complete in any worker:
                # the coordinator appends their records to the batch
                # log, which the fold reads with the shards.
                journal.write(names, [report.to_summary()])
            notify(report)
            log.warning(
                "parallel: quarantined %s after it killed %d worker(s)",
                program.name,
                kill_counts[program.name],
            )

        def journaled_names(worker_id: int) -> set[str]:
            # What the dead worker durably finished: it appends to its
            # shard after every chunk, so the first dealt chunk not
            # fully present in it is where the worker died.
            if journal is None:
                return set()
            try:
                logged = journal.shard(worker_id).logged(names)
            except CheckpointError:
                return set()
            return {summary["program"] for summary in logged}

        def handle_death(worker_id: int) -> None:
            nonlocal next_chunk_id, total_respawns, unproductive_respawns
            dealt = ledger.pop(worker_id, None) or deque()
            pool.retire(worker_id)
            finished = journaled_names(worker_id)
            progressed = False
            suspect_found = False
            for chunk_id, chunk in dealt:
                complete = all(p.name in finished for p in chunk)
                if not suspect_found and not complete:
                    # The chunk the worker died inside.
                    suspect_found = True
                    progressed = True
                    if len(chunk) == 1:
                        program = chunk[0]
                        kill_counts[program.name] = (
                            kill_counts.get(program.name, 0) + 1
                        )
                        if kill_counts[program.name] >= retries:
                            quarantine(program)
                        else:
                            bag.append((chunk_id, chunk))
                            supervision.bump("chunks_redealt")
                    else:
                        # Bisect: the poison program is in here
                        # somewhere; halving isolates it in O(log n)
                        # redeliveries while innocent neighbours
                        # convert on the way.
                        mid = (len(chunk) + 1) // 2
                        log.warning(
                            "parallel: worker %d died in a %d-program "
                            "chunk; bisecting for the poison program",
                            worker_id,
                            len(chunk),
                        )
                        for half in (chunk[:mid], chunk[mid:]):
                            bag.append((next_chunk_id, half))
                            next_chunk_id += 1
                            supervision.bump("chunks_redealt")
                else:
                    # Innocent: journaled already (its result may be in
                    # flight or lost with the worker -- re-running is
                    # deterministic and the merge dedups by name) or
                    # dealt behind the suspect and never started.
                    bag.append((chunk_id, chunk))
                    supervision.bump("chunks_redealt")
            if not bag:
                # Nothing to re-deal; surviving workers hold the rest.
                return
            if not progressed:
                # Died holding no unfinished work: the canary of a
                # crash-looping pool (e.g. seed state that cannot
                # rehydrate), which re-dealing cannot fix.
                unproductive_respawns += 1
                if unproductive_respawns > max(
                    0, options.max_worker_respawns
                ):
                    raise ParallelExecutionError(
                        f"worker pool is crash-looping: "
                        f"{unproductive_respawns} consecutive respawns "
                        "without progress; completed programs are "
                        "journaled in the checkpoint shards -- rerun "
                        "with resume to finish the batch"
                    )
            total_respawns += 1
            supervision.bump("respawns")
            self._backoff(total_respawns, unproductive_respawns)
            replacement = pool.respawn()
            log.warning(
                "parallel: worker %d died; respawned replacement %d "
                "(%d chunk(s) re-dealt)",
                worker_id,
                replacement,
                len(bag),
            )
            begin(replacement)
            fill(replacement)

        if not pool.active_ids():
            # A warm external pool whose every worker was retired by a
            # previous chaotic batch: revive it to full strength.
            for _ in range(pool.jobs):
                pool.respawn()
        for worker_id in pool.active_ids():
            begin(worker_id)
        for worker_id in pool.active_ids():
            fill(worker_id)

        chunk_results: list[tuple[list[dict], dict]] = []
        while remaining:
            message = self._receive(pool)
            kind = message[0]
            if kind == "dead":
                for worker_id in message[1]:
                    handle_death(worker_id)
                for worker_id in pool.active_ids():
                    fill(worker_id)
            elif kind == "chunk":
                _, worker_id, chunk_id, summaries, metrics = message
                chunk_results.append((summaries, metrics))
                unproductive_respawns = 0
                dealt = ledger.get(worker_id)
                if dealt is not None:
                    for index, (dealt_id, _chunk) in enumerate(dealt):
                        if dealt_id == chunk_id:
                            del dealt[index]
                            break
                for summary in summaries:
                    remaining.discard(summary["program"])
                if progress is not None:
                    for summary in summaries:
                        if summary["program"] in reported:
                            continue
                        report = ConversionReport.from_summary(summary)
                        raw = metrics.get(report.program_name)
                        report.metrics = dict(raw) if raw is not None else None
                        notify(report)
                fill(worker_id)
            elif kind == "flush":  # pragma: no cover - defensive
                continue
            else:  # ("error", worker_id, detail)
                raise ParallelExecutionError(
                    f"worker {message[1]} failed: {message[2]}; "
                    "completed programs are journaled in the checkpoint "
                    "shards -- rerun with resume to finish the batch"
                )

        # Every program is accounted for; flush the survivors for
        # their observability deltas (metrics, spans).
        expected = set(pool.active_ids())
        for worker_id in sorted(expected):
            pool.flush(worker_id)
        flushes: dict[int, tuple] = {}
        while expected - set(flushes):
            message = self._receive(pool)
            kind = message[0]
            if kind == "flush":
                if message[1] in expected:
                    flushes[message[1]] = message
            elif kind == "chunk":
                # A re-dealt duplicate whose original result raced the
                # end of the batch; keep it -- the merge dedups.
                chunk_results.append((message[3], message[4]))
            elif kind == "dead":
                for worker_id in message[1]:
                    pool.retire(worker_id)
                    if worker_id in expected:
                        expected.discard(worker_id)
                        log.warning(
                            "parallel: worker %d died during flush; "
                            "its observability delta is lost",
                            worker_id,
                        )
            else:  # pragma: no cover - defensive
                raise ParallelExecutionError(
                    f"worker {message[1]} failed during flush: "
                    f"{message[2]}"
                )
        ordered_flushes = [flushes[k] for k in sorted(flushes)]
        return chunk_results, ordered_flushes, quarantined

    def _backoff(self, total_respawns: int, unproductive: int) -> None:
        """Sleep before a respawn: exponential in the consecutive
        no-progress count, plus a small deterministic jitter seeded by
        the respawn ordinal (seed-stable: chaos replays pace
        identically; jitter still decorrelates respawn storms when
        several supervisors share a machine)."""
        delay = min(
            RESPAWN_BACKOFF_CAP,
            RESPAWN_BACKOFF_BASE * (2 ** min(unproductive, 6)),
        )
        jitter = random.Random(f"respawn:{total_respawns}").uniform(
            0.0, RESPAWN_BACKOFF_BASE
        )
        time.sleep(delay + jitter)

    def _receive(self, pool: WorkerPool) -> tuple:
        """Wait for the next worker message, watching pool health.

        A separate method so the fault-injection harness can arm the
        coordinator's receive path (e.g. raising KeyboardInterrupt to
        model a mid-batch Ctrl-C at a precise point).  Dead workers are
        reported as a synthetic ``("dead", [worker_id, ...])`` message
        for the supervision loop to reclaim and respawn."""
        while True:
            try:
                return pool.receive(timeout=self.options.poll_interval)
            except Empty:
                dead = pool.dead_workers()
                if dead:
                    return ("dead", dead)

    def _drain(
        self,
        pool: WorkerPool,
        names: list[str],
        journal: BatchCheckpoint | None,
    ) -> None:
        """Graceful-interrupt path: let in-flight chunks finish and
        journal, stop dispatching, fold every log into the checkpoint,
        and leave the pool idle (warm) or terminated.

        Called with the interrupt pending; the caller re-raises it once
        the journal is resumable."""
        active = set(pool.active_ids())
        log.warning(
            "parallel: interrupted -- draining %d worker(s), "
            "in-flight chunks will be journaled",
            len(active),
        )
        deadline = time.monotonic() + self.options.drain_timeout
        try:
            for worker_id in sorted(active):
                pool.flush(worker_id)
            flushed: set[int] = set()
            while (
                len(flushed) < len(active)
                and time.monotonic() < deadline
            ):
                try:
                    message = pool.receive(
                        timeout=self.options.poll_interval
                    )
                except Empty:
                    if not set(pool.active_ids()) - set(
                        pool.dead_workers()
                    ):
                        break
                    continue
                if message[0] == "flush":
                    flushed.add(message[1])
            if len(flushed) < len(active):
                log.warning(
                    "parallel: drain deadline exceeded; terminating workers"
                )
                pool.terminate()
        except (KeyboardInterrupt, SystemExit):
            # A second interrupt mid-drain: stop waiting, kill the pool,
            # still fold whatever the logs already hold.
            pool.terminate()
        finally:
            if journal is not None:
                journal.merge_shards(names)
                log.warning(
                    "parallel: progress journaled to %s -- rerun with "
                    "resume to finish the batch",
                    journal.path,
                )

    # -- the deterministic merge --------------------------------------

    def _merge(
        self,
        chunk_results: list[tuple[list[dict], dict]],
        flushes: list[tuple],
        names: list[str],
        done: dict[str, ConversionReport],
        journal: BatchCheckpoint | None,
        coordinator_base: float,
        quarantined: dict[str, ConversionReport] | None = None,
    ) -> BatchReport:
        by_name: dict[str, ConversionReport] = dict(done)
        if quarantined:
            by_name.update(quarantined)
        for summaries, metrics in chunk_results:
            for summary in summaries:
                report = ConversionReport.from_summary(summary)
                raw_metrics = metrics.get(report.program_name)
                report.metrics = (dict(raw_metrics)
                                  if raw_metrics is not None else None)
                by_name[report.program_name] = report
        for _, worker_id, delta, spans, clock_base in flushes:
            self._absorb_registry(delta)
            self._absorb_trace(worker_id, spans, clock_base, coordinator_base,
                               delta)

        missing = [name for name in names if name not in by_name]
        if missing:
            raise ParallelExecutionError(
                f"parallel batch lost programs: {missing}"
            )

        if journal is not None:
            journal.merge_shards(names)

        batch = BatchReport()
        for name in names:
            batch.add(by_name[name])
        return batch

    def _absorb_registry(self, delta: dict[str, int]) -> None:
        if not delta:
            return
        source = FrozenMetricsSource(delta)
        self.absorbed.append(source)
        get_registry().register(source)

    def _absorb_trace(
        self,
        worker_id: int,
        spans: list[dict],
        clock_base: float,
        coordinator_base: float,
        delta: dict[str, int] | None = None,
    ) -> None:
        tracer = current_tracer()
        if tracer is None or not spans:
            return
        cost_attrs = {
            name.replace(".", "_"): value
            for name, value in (delta or {}).items()
            if name.startswith("cost.")
        }
        merge_worker_trace(
            tracer,
            worker_id,
            spans,
            worker_base=clock_base,
            coordinator_base=coordinator_base,
            **cost_attrs,
        )


def run_parallel_batch(
    cascade: FallbackCascade,
    programs: list[Program],
    options: ConversionOptions | None = None,
    pool: WorkerPool | None = None,
    progress: ProgressCallback | None = None,
) -> BatchReport:
    """Run a batch with ``options.jobs`` workers (function form)."""
    return ParallelExecutor(
        cascade, programs, options, pool=pool, progress=progress
    ).run()


__all__ = [
    "ParallelExecutionError",
    "ParallelExecutor",
    "WorkerPool",
    "run_parallel_batch",
]
