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

* the coordinator pickles the cascade **once** and ships it **once per
  worker at spawn**, never per batch; each worker rehydrates once and
  stays warm for any number of batches, each converted with the
  options its ``begin`` message brings;
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
  new chunks are dispatched, in-flight chunks get
  :data:`DRAIN_SECONDS` to finish and journal, every log is folded
  into the checkpoint, and the interrupt is re-raised with a
  resumable journal on disk;
* the coordinator **supervises** the pool.  Every decision is made by
  the I/O-free :class:`Scheduler`; :class:`ParallelExecutor` polls the
  result queue every :data:`POLL_SECONDS` and carries the decisions
  out.  A dead worker's in-flight chunks are reclaimed from the
  dealt-chunk ledger and re-dealt, a replacement worker is respawned
  (exponential backoff with deterministic, seed-stable jitter; bounded
  by :data:`MAX_WORKER_RESPAWNS` consecutive respawns without
  progress), a chunk that keeps killing workers is bisected until the
  poison program is isolated, and a program that individually kills a
  worker :data:`repro.batch.MAX_PROGRAM_RETRIES` times is
  **quarantined** with a synthesized ``STATUS_QUARANTINED`` report --
  the batch completes instead of raising.  ``options.program_timeout``
  arms the interpreter's cooperative watchdog so a hung program times
  out with the same deterministic report serially and in-worker.

The deterministic merge is unchanged from the spawn-per-batch
executor: report summaries come back with each target program rendered
to text, and :meth:`~repro.core.report.ConversionReport.from_summary`
keeps that text, parsing it only if something reads the report's
``target_program`` (the render/parse round trip is exact), so the merge
parses nothing.  Reports are reassembled in program order, and the
shards, together with the coordinator's quarantine records, fold into
the checkpoint in program order through the serial engine's fold step
(:meth:`repro.batch.BatchCheckpoint.merge_shards`) -- so reports and
checkpoint bytes are byte-identical to a serial run at any worker
count, any chunk size, and any dispatch interleaving.
Every chunk result also carries its worker's registry delta since the
batch began and the spans it closed since its previous chunk.  The
coordinator keeps each worker's latest delta (it is cumulative, so a
re-dealt duplicate cannot count twice), adds it into the process-wide
named counters (:func:`~repro.observe.registry.absorb_counts`), and
mounts worker span forests under per-worker ``parallel.worker`` roots.
A batch ends when every program has settled and no chunk is in
flight, so a warm pool never carries a duplicate result into the next
batch.

``jobs=1`` (or a batch with at most one pending program) takes the
in-process fast path: no pool, no pickling, no subprocess -- just the
serial engine, :func:`repro.batch.convert_serially`.
"""

from __future__ import annotations

import gc
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
from typing import Iterator, NamedTuple

from repro.batch import (
    MAX_PROGRAM_RETRIES,
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
    absorb_counts,
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

#: Result-queue poll interval in seconds; every timeout re-checks
#: worker health, so this bounds dead-worker detection latency.
POLL_SECONDS = 0.2

#: Budget in seconds for the graceful-interrupt drain: in-flight chunks
#: get this long to finish and journal before the pool is terminated.
DRAIN_SECONDS = 30.0

#: Consecutive respawns without progress (a completed chunk, a
#: quarantine decision, or a narrowed suspect chunk) tolerated before
#: the batch fails with :class:`ParallelExecutionError`: the guard
#: against a crash-looping pool, e.g. seed state that cannot rehydrate.
MAX_WORKER_RESPAWNS = 3

#: How long ``close()`` waits for a worker to exit before terminating.
CLOSE_SECONDS = 5.0

#: Base of the respawn backoff: respawn ``n`` (since the last sign of
#: progress) sleeps ``BASE * 2**n`` seconds, capped, plus a
#: deterministic jitter seeded by the respawn ordinal -- seed-stable,
#: so chaos runs replay with identical pacing.
RESPAWN_BACKOFF_BASE = 0.02
RESPAWN_BACKOFF_CAP = 1.0

#: A dispatch unit: ``(chunk_id, programs)``.
Chunk = tuple[int, list[Program]]


class ParallelExecutionError(ReproError):
    """The worker pool could not finish the batch.

    Individual worker deaths no longer raise this -- the coordinator
    reclaims the dead worker's chunks, respawns a replacement, and
    quarantines poison programs.  What remains fatal is a pool that
    crash-loops without making progress (more than
    :data:`MAX_WORKER_RESPAWNS` consecutive respawns with nothing
    completed, quarantined, or narrowed) or a worker shipping a
    coordinator-level error.  Any per-worker checkpoint shards already
    journaled remain on disk, so a ``resume`` run completes only the
    genuinely unfinished programs.
    """


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the body with the cyclic collector off, then restore the
    collector's previous state, also when the body raises.

    A worker decodes each chunk under it: unpickling a chunk allocates
    hundreds of thousands of tracked objects, none of them garbage, and
    with the collector on, each burst of allocations sets off a
    collection that scans them all (E30: 19 chunks of 1,200 programs
    parsed from text took 5.86-7.09 s to decode with the collector on,
    1.49-1.60 s with it paused).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _pool_worker(worker_id: int, seed_blob: bytes, task_queue, result_queue):
    """One long-lived worker process.

    Rehydrates the pickled cascade exactly once (unpickling
    re-registers the engine metrics bundles into *this* process's
    registry, see :meth:`repro.engine.metrics.Metrics.__setstate__`)
    and moves it into the collector's permanent generation
    (:func:`gc.freeze`; only a worker does this, never the caller's
    process), then serves ``begin`` / ``chunk`` / ``exit`` messages until told to
    stop.  ``begin`` brings the batch's pickled options, which convert
    its chunks and name the worker's shard (``options.checkpoint``).
    Each chunk is decoded with the collector paused
    (:func:`_collector_paused`).
    Each chunk result carries, besides the chunk's summaries, the
    worker's registry delta since ``begin``, the spans closed since the
    previous chunk, and the worker's clock base.  SIGINT is
    ignored: a terminal Ctrl-C reaches the whole process group, and it
    is the coordinator's drain -- not the signal -- that must stop a
    worker, *after* its in-flight chunk is journaled.
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
    cascade = pickle.loads(seed_blob)
    # The cascade lives as long as the worker: freeze it, with every
    # module the spawn imported, so full collections stop rescanning it.
    gc.collect()
    gc.freeze()
    registry = get_registry()

    options: ConversionOptions | None = None
    journal: BatchCheckpoint | None = None
    names: list[str] = []
    tracer: Tracer | None = None
    before: dict[str, int] = {}
    clock_base = 0.0

    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "exit":
            return
        if kind == "begin":
            _, names, options_blob, trace = message
            options = pickle.loads(options_blob)
            journal = (
                BatchCheckpoint(options.checkpoint).shard(worker_id)
                if options.checkpoint
                else None
            )
            before = registry.snapshot()
            if tracer is not None:
                # Stop recording into the previous batch's tracer.
                tracer.__exit__(None, None, None)
            tracer = Tracer().__enter__() if trace else None
            clock_base = time.perf_counter()
            continue
        # ("chunk", chunk_id, programs_blob)
        _, chunk_id, programs_blob = message
        try:
            with _collector_paused():
                programs: list[Program] = pickle.loads(programs_blob)
            chunk_summaries: list[dict] = []
            for program in programs:
                with span("batch.program", program=program.name):
                    report = convert_one(cascade, program, options)
                chunk_summaries.append(report.to_summary())
            if journal is not None:
                journal.write(names, chunk_summaries)
        except Exception as exc:  # pragma: no cover - shipped upward
            result_queue.put(("error", worker_id, f"{type(exc).__name__}: {exc}"))
            continue
        spans = [root.to_dict() for root in tracer.roots] if tracer else []
        if tracer is not None:
            tracer.roots.clear()
        delta = registry_delta(before, registry.snapshot())
        result_queue.put(
            (
                "chunk",
                worker_id,
                chunk_id,
                chunk_summaries,
                delta,
                spans,
                clock_base,
            )
        )


class WorkerPool:
    """A persistent pool of warm worker processes bound to one cascade.

    Construction pickles the cascade once (``seed_blob``) and spawns
    ``jobs`` worker processes, each receiving the seed bytes exactly
    once; every worker rehydrates on startup and then serves any
    number of batches, each with the batch's own options (``options``
    here only resolves a ``None`` worker count).  Reuse the pool across
    batches (via ``ParallelExecutor(..., pool=...)`` or
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
    ):
        options = options if options is not None else ConversionOptions()
        self.jobs = jobs if jobs is not None else options.resolved_jobs()
        if self.jobs < 1:
            raise ValueError(f"pool needs >= 1 worker, got {self.jobs}")
        # Spawn, not fork: fork in a threaded parent is deprecated (and
        # unsafe), and spawn gives each worker the clean interpreter
        # the rehydration contract assumes.
        ctx = get_context("spawn")
        self._ctx = ctx
        self.seed_blob = pickle.dumps(cascade)
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

    # -- health and lifecycle ------------------------------------------

    def active_ids(self) -> list[int]:
        """Worker ids currently in service (spawned, not retired)."""
        return [k for k in range(len(self._procs)) if k not in self.retired]

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
            proc.pid for k, proc in enumerate(self._procs) if k not in self.retired
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


class Death(NamedTuple):
    """The :class:`Scheduler`'s answer to one worker's death."""

    #: Programs to quarantine: each has now killed
    #: :data:`repro.batch.MAX_PROGRAM_RETRIES` workers on its own.
    quarantine: list[str]
    #: Chunks put back in the bag (a bisected chunk counts as two).
    redealt: int
    #: Whether to spawn a replacement worker.
    respawn: bool
    #: Size of the suspect chunk that was bisected (0: none was).
    bisected: int


class Scheduler:
    """The worker pool's supervision decisions, free of I/O.

    Owns the *bag* (chunks not yet dealt), each worker's *ledger* (the
    chunks dealt to it and not yet answered, in the FIFO order it
    converts them), the programs not yet settled, per-program kill
    counts, the count of consecutive unproductive respawns, and the
    respawn ordinal.  :class:`ParallelExecutor` feeds it pool events
    and carries out its answers; nothing here touches a queue, a
    process, the clock, a file, or the log, so any schedule of events
    can be replayed in-process.
    """

    def __init__(self, programs: list[Program], chunk_size: int):
        self.bag: deque[Chunk] = deque(
            enumerate(
                programs[start : start + chunk_size]
                for start in range(0, len(programs), chunk_size)
            )
        )
        self.next_chunk_id = len(self.bag)
        self.ledger: dict[int, deque[Chunk]] = {}
        #: Names of the programs not yet settled.
        self.remaining = {program.name for program in programs}
        #: Program name -> workers it killed while alone in its chunk.
        self.kills: dict[str, int] = {}
        #: Deaths in a row, since the last completed chunk, that found
        #: no unfinished chunk while the bag still held work.
        self.unproductive = 0
        #: Replacement workers asked for so far (the jitter's seed).
        self.respawns = 0

    def add_worker(self, worker_id: int) -> None:
        """Open an empty ledger for a worker that began the batch."""
        self.ledger[worker_id] = deque()

    def deal(self, worker_id: int) -> list[Chunk]:
        """The chunks to send ``worker_id`` now: its ledger topped up
        to :data:`PREFILL` from the bag (none once every program has
        settled, or for a worker without a ledger)."""
        dealt = self.ledger.get(worker_id)
        chunks: list[Chunk] = []
        if dealt is None or not self.remaining:
            return chunks
        while len(dealt) < PREFILL and self.bag:
            chunks.append(self.bag.popleft())
            dealt.append(chunks[-1])
        return chunks

    def completed(self, worker_id: int, chunk_id: int, names: list[str]) -> list[str]:
        """Record ``worker_id``'s result for one chunk; return the
        ``names`` settled for the first time (none for a re-dealt
        duplicate).  Any result counts as progress."""
        self.unproductive = 0
        dealt = self.ledger.get(worker_id, deque())
        for index, (dealt_id, _chunk) in enumerate(dealt):
            if dealt_id == chunk_id:
                del dealt[index]
                break
        settled = [name for name in names if name in self.remaining]
        self.remaining.difference_update(settled)
        return settled

    def died(self, worker_id: int, journaled: set[str]) -> Death:
        """Reclaim a dead worker's ledger, given the program names its
        shard log holds.

        The *suspect* is the first ledger chunk not fully journaled:
        the worker journals after every chunk and converts its ledger
        in order, so that is where it died.  A multi-program suspect is
        bisected at ``(len + 1) // 2``; a program alone in the suspect
        is charged one kill and quarantined at
        :data:`~repro.batch.MAX_PROGRAM_RETRIES`.  Every other ledger
        chunk goes back in the bag.  A replacement is wanted only while
        the bag holds work.  Raises :class:`ParallelExecutionError`
        when more than :data:`MAX_WORKER_RESPAWNS` deaths in a row
        found no suspect: re-dealing cannot fix a crash-looping pool.
        """
        dealt = self.ledger.pop(worker_id, deque())
        if not self.remaining:
            # Everything settled: the worker held only duplicates.
            return Death([], 0, False, 0)
        quarantine: list[str] = []
        redeal: list[Chunk] = []
        bisected = 0
        suspect_found = False
        for chunk_id, chunk in dealt:
            if suspect_found or all(p.name in journaled for p in chunk):
                # Innocent: journaled already (its result may be in
                # flight or lost with the worker -- re-running is
                # deterministic) or dealt behind the suspect.
                redeal.append((chunk_id, chunk))
                continue
            suspect_found = True
            if len(chunk) > 1:
                # The poison program is in here somewhere; halving
                # isolates it in O(log n) redeliveries while innocent
                # neighbours convert on the way.
                bisected = len(chunk)
                mid = (len(chunk) + 1) // 2
                for half in (chunk[:mid], chunk[mid:]):
                    redeal.append((self.next_chunk_id, half))
                    self.next_chunk_id += 1
                continue
            name = chunk[0].name
            self.kills[name] = self.kills.get(name, 0) + 1
            if self.kills[name] < MAX_PROGRAM_RETRIES:
                redeal.append((chunk_id, chunk))
            elif name in self.remaining:
                quarantine.append(name)
                self.remaining.discard(name)
            # else: a re-dealt duplicate of a settled program, dropped.
        self.bag.extend(redeal)
        if not self.bag:
            # Nothing to re-deal; surviving workers hold the rest.
            return Death(quarantine, len(redeal), False, bisected)
        if not suspect_found:
            self.unproductive += 1
            if self.unproductive > MAX_WORKER_RESPAWNS:
                raise ParallelExecutionError(
                    f"worker pool is crash-looping: {self.unproductive} "
                    "consecutive respawns without progress; completed "
                    "programs are journaled in the checkpoint shards -- "
                    "rerun with resume to finish the batch"
                )
        self.respawns += 1
        return Death(quarantine, len(redeal), True, bisected)

    def backoff(self) -> float:
        """Seconds to wait before the respawn :meth:`died` asked for:
        exponential in the unproductive count, capped, plus a small
        jitter seeded by the respawn ordinal (seed-stable: chaos
        replays pace identically; jitter still decorrelates respawn
        storms when several supervisors share a machine)."""
        delay = min(
            RESPAWN_BACKOFF_CAP,
            RESPAWN_BACKOFF_BASE * (2 ** min(self.unproductive, 6)),
        )
        jitter = random.Random(f"respawn:{self.respawns}").uniform(
            0.0, RESPAWN_BACKOFF_BASE
        )
        return delay + jitter

    def in_flight(self) -> set[int]:
        """Workers holding dealt chunks not yet answered."""
        return {worker_id for worker_id, dealt in self.ledger.items() if dealt}

    def finished(self) -> bool:
        """Every program settled and no chunk in flight: the batch-end
        barrier (a re-dealt duplicate still in flight must not land in
        a warm pool's next batch)."""
        return not self.remaining and not self.in_flight()


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


@contextmanager
def _signals_held() -> Iterator[None]:
    """Hold SIGINT and SIGTERM while chunks are dealt, then deliver
    them: a chunk that entered a worker's ledger but was never queued
    would keep the interrupt drain waiting until its deadline.  No-op
    outside the main thread (no signal is handled there)."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    held: list[int] = []
    previous = {
        signum: signal.signal(signum, lambda caught, frame: held.append(caught))
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        for signum in held:
            signal.raise_signal(signum)


class ParallelExecutor:
    """Coordinates a multi-process batch conversion over a warm pool.

    The executor owns the deterministic merge: reports come back in
    program order regardless of which worker converted what, checkpoint
    shards fold into the checkpoint in program order, worker metrics
    are absorbed into the coordinator's named counters, and worker span
    forests mount under per-worker roots on the active tracer.

    Pass ``pool=`` to reuse a :class:`WorkerPool` across batches (the
    caller owns its lifecycle); otherwise the executor spins one up for
    the run and closes it after.  With an external pool the pool's
    worker count governs the conversion.
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
            pool = WorkerPool(self.cascade, jobs=min(jobs, len(pending)))
        scheduler = Scheduler(
            pending, options.resolved_chunk_size(len(pending), pool.jobs)
        )
        coordinator_base = time.perf_counter()
        try:
            with _interrupt_on_sigterm():
                try:
                    reports, deltas, forests = self._run_pool(
                        pool, scheduler, names, journal, done
                    )
                except (KeyboardInterrupt, SystemExit):
                    self._drain(pool, scheduler, names, journal)
                    raise
        finally:
            if owned:
                pool.close()

        tracer = current_tracer()
        for worker_id in sorted(deltas):
            delta = deltas[worker_id]
            absorb_counts(delta)
            clock_base, spans = forests[worker_id]
            if tracer is not None and spans:
                cost_attrs = {
                    name.replace(".", "_"): value
                    for name, value in delta.items()
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
        missing = [name for name in names if name not in reports]
        if missing:
            raise ParallelExecutionError(f"parallel batch lost programs: {missing}")
        if journal is not None:
            journal.merge_shards(names)
        batch = BatchReport()
        for name in names:
            batch.add(reports[name])
        return batch

    # -- driving the pool ----------------------------------------------

    def _run_pool(
        self,
        pool: WorkerPool,
        scheduler: Scheduler,
        names: list[str],
        journal: BatchCheckpoint | None,
        done: dict[str, ConversionReport],
    ) -> tuple[
        dict[str, ConversionReport],
        dict[int, dict[str, int]],
        dict[int, tuple[float, list[dict]]],
    ]:
        """Feed pool events to ``scheduler`` and carry out its answers
        until it has :meth:`~Scheduler.finished`.

        Returns ``(reports, deltas, forests)``: every program's report
        by name (journaled, converted, or quarantined), each worker's
        latest registry delta, and each worker's clock base with the
        spans it shipped.  Every result-queue poll timeout re-checks
        worker health (see :meth:`_receive`); a dead worker goes to
        :meth:`_bury`.
        """
        trace = current_tracer() is not None
        begin = ("begin", names, pickle.dumps(self.options), trace)
        reports: dict[str, ConversionReport] = {}
        deltas: dict[int, dict[str, int]] = {}
        forests: dict[int, tuple[float, list[dict]]] = {}
        for name in names:
            if name in done:
                self._settle(reports, done[name], resumed=True)
        if not pool.active_ids():
            # A warm external pool whose every worker was retired by a
            # previous chaotic batch: revive it to full strength.
            for _ in range(pool.jobs):
                pool.respawn()
        for worker_id in pool.active_ids():
            self._start(pool, scheduler, worker_id, begin)

        while not scheduler.finished():
            message = self._receive(pool)
            kind = message[0]
            if kind == "dead":
                for worker_id in message[1]:
                    replacement = self._bury(
                        pool, scheduler, worker_id, names, journal, reports
                    )
                    if replacement is not None:
                        self._start(pool, scheduler, replacement, begin)
                for worker_id in pool.active_ids():
                    self._deal(pool, scheduler, worker_id)
            elif kind == "chunk":
                _, worker_id, chunk_id, summaries, delta, spans, clock_base = message
                deltas[worker_id] = delta
                forests.setdefault(worker_id, (clock_base, []))[1].extend(spans)
                converted = [summary["program"] for summary in summaries]
                fresh = set(scheduler.completed(worker_id, chunk_id, converted))
                for summary in summaries:
                    if summary["program"] not in fresh:
                        continue
                    self._settle(reports, ConversionReport.from_summary(summary))
                self._deal(pool, scheduler, worker_id)
            else:  # ("error", worker_id, detail)
                raise ParallelExecutionError(
                    f"worker {message[1]} failed: {message[2]}; "
                    "completed programs are journaled in the checkpoint "
                    "shards -- rerun with resume to finish the batch"
                )
        return reports, deltas, forests

    def _settle(
        self,
        reports: dict[str, ConversionReport],
        report: ConversionReport,
        resumed: bool = False,
    ) -> None:
        """Record a program's final report and narrate it.  Raising
        from the progress callback (the service's cooperative stop)
        propagates into the graceful-drain path with the reporting
        worker's shard already journaled."""
        reports[report.program_name] = report
        if self.progress is not None:
            self.progress(report, len(reports), len(self.programs), resumed)

    def _start(
        self, pool: WorkerPool, scheduler: Scheduler, worker_id: int, begin: tuple
    ) -> None:
        """Begin the batch on one worker and deal it its first chunks."""
        pool.send(worker_id, begin)
        scheduler.add_worker(worker_id)
        self._deal(pool, scheduler, worker_id)

    def _deal(self, pool: WorkerPool, scheduler: Scheduler, worker_id: int) -> None:
        with _signals_held():
            for chunk_id, chunk in scheduler.deal(worker_id):
                pool.send(worker_id, ("chunk", chunk_id, pickle.dumps(chunk)))

    def _bury(
        self,
        pool: WorkerPool,
        scheduler: Scheduler,
        worker_id: int,
        names: list[str],
        journal: BatchCheckpoint | None,
        reports: dict[str, ConversionReport],
    ) -> int | None:
        """Retire a dead worker and carry out the scheduler's answer:
        quarantine poison programs, then spawn a replacement under
        backoff when one is wanted; return its id."""
        pool.retire(worker_id)
        journaled: set[str] = set()
        if journal is not None:
            try:
                logged = journal.shard(worker_id).logged(names)
            except CheckpointError:
                logged = []
            journaled = {summary["program"] for summary in logged}
        death = scheduler.died(worker_id, journaled)
        supervision = named_counters("supervision")
        if death.redealt:
            supervision.bump("chunks_redealt", death.redealt)
        if death.bisected:
            log.warning(
                "parallel: worker %d died in a %d-program chunk; "
                "bisecting for the poison program",
                worker_id,
                death.bisected,
            )
        for name in death.quarantine:
            report = quarantine_report(
                name, MAX_PROGRAM_RETRIES, self.options.fault_plan
            )
            supervision.bump("quarantined")
            if journal is not None:
                # Quarantined programs never complete in any worker:
                # the coordinator appends their records to the batch
                # log, which the fold reads with the shards.
                journal.write(names, [report.to_summary()])
            self._settle(reports, report)
            log.warning(
                "parallel: quarantined %s after it killed %d worker(s)",
                name,
                MAX_PROGRAM_RETRIES,
            )
        if not death.respawn:
            return None
        supervision.bump("respawns")
        time.sleep(scheduler.backoff())
        replacement = pool.respawn()
        log.warning(
            "parallel: worker %d died; respawned replacement %d "
            "(%d chunk(s) re-dealt)",
            worker_id,
            replacement,
            death.redealt,
        )
        return replacement

    def _receive(self, pool: WorkerPool) -> tuple:
        """Wait for the next worker message, watching pool health.

        A separate method so the fault-injection harness can arm the
        coordinator's receive path (e.g. raising KeyboardInterrupt to
        model a mid-batch Ctrl-C at a precise point).  Dead workers are
        reported as a synthetic ``("dead", [worker_id, ...])`` message
        for the supervision loop to reclaim and respawn."""
        while True:
            try:
                return pool.receive(timeout=POLL_SECONDS)
            except Empty:
                dead = pool.dead_workers()
                if dead:
                    return ("dead", dead)

    def _drain(
        self,
        pool: WorkerPool,
        scheduler: Scheduler,
        names: list[str],
        journal: BatchCheckpoint | None,
    ) -> None:
        """Graceful-interrupt path: stop dispatching, wait until no
        live worker has a chunk in flight (each journals it), fold
        every log into the checkpoint, and leave the pool idle (warm)
        or terminated.

        Called with the interrupt pending; the caller re-raises it once
        the journal is resumable."""
        log.warning(
            "parallel: interrupted -- draining %d worker(s), "
            "in-flight chunks will be journaled",
            len(scheduler.in_flight()),
        )
        deadline = time.monotonic() + DRAIN_SECONDS
        try:
            while scheduler.in_flight() - set(pool.dead_workers()):
                if time.monotonic() >= deadline:
                    log.warning(
                        "parallel: drain deadline exceeded; terminating workers"
                    )
                    pool.terminate()
                    break
                try:
                    message = pool.receive(timeout=POLL_SECONDS)
                except Empty:
                    continue
                if message[0] == "chunk":
                    _, worker_id, chunk_id, summaries = message[:4]
                    converted = [summary["program"] for summary in summaries]
                    scheduler.completed(worker_id, chunk_id, converted)
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
    "DRAIN_SECONDS",
    "MAX_WORKER_RESPAWNS",
    "POLL_SECONDS",
    "ParallelExecutionError",
    "ParallelExecutor",
    "Scheduler",
    "WorkerPool",
    "run_parallel_batch",
]
