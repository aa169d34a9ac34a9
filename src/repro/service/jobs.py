"""The conversion service's job engine: queue, spool, and executor.

A *job* is one batch conversion submitted over HTTP: schema DDL, a
restructuring spec, program sources, an optional loader program and
terminal inputs, plus a bag of conversion options -- exactly the
artifacts ``repro convert`` takes on the shell, normalized by
:func:`validate_submission`.  The :class:`JobManager` owns a bounded
queue of jobs, one executor thread draining it, and a *spool*
directory in which every job keeps its manifest (``job.json``), its
batch checkpoint (``checkpoint.json``, the same journal the CLI
writes), and its report artifact (``report.json``).  The manifest and
report are written through :func:`repro.jsonio.write_json_atomic`;
the checkpoint is the batch layer's journal: while the job runs,
settled programs are appended to ``checkpoint.json.log`` (and to
``checkpoint.json.shard<k>`` by pool workers), folded into
``checkpoint.json`` once the batch ends or is interrupted.  A crash at
any instant leaves parseable, resumable state, and
``GET /jobs/<id>/checkpoint`` serves the folded document even while
only the logs exist (:meth:`Job.checkpoint_bytes`).

Execution routes through the public facade
(:func:`repro.api.build_cascade` + :func:`repro.api.convert_batch`),
which is the byte-identity contract: a served job's checkpoint and
report are the same bytes a ``repro convert`` run of the same
artifacts produces.  Progress streams out as in-memory events (see
:meth:`Job.follow`): per-program events from the batch layer's
progress callback, span events from a
:class:`~repro.observe.stream.StreamingTracer`, and a final counter
delta of the ``supervision.*`` / ``cost.*`` registries.

Shutdown is cooperative: :meth:`JobManager.stop` sets a flag the
running job's progress callback checks after every settled program,
raising ``KeyboardInterrupt`` -- the batch layer's graceful-interrupt
path, which finishes in-flight parallel chunks and folds every shard
into the checkpoint before unwinding.  The interrupted job lands in
state ``interrupted`` with a resumable journal; resubmitting it (the
``{"resume": "<job-id>"}`` form of ``POST /jobs``) completes only the
unfinished programs and produces a final report byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import queue
import threading
from pathlib import Path
from typing import Any, Iterator

from repro import api
from repro.batch import BatchCheckpoint
from repro.core.report import ConversionReport
from repro.errors import ReproError
from repro.jsonio import write_json_atomic
from repro.observe.registry import get_registry, registry_delta
from repro.observe.stream import (
    EVENT_COUNTER_PREFIXES,
    StreamingTracer,
    span_event,
)
from repro.options import ConversionOptions
from repro.parallel import ParallelExecutionError, WorkerPool
from repro.programs.interpreter import ProgramInputs
from repro.programs.parser import parse_program

log = logging.getLogger(__name__)

MANIFEST_VERSION = 1

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_COMPLETED = "completed"
STATE_FAILED = "failed"
STATE_INTERRUPTED = "interrupted"

#: States a job never leaves on its own; only a resume resubmission
#: moves ``interrupted`` / ``failed`` back to ``queued``.
TERMINAL_STATES = (STATE_COMPLETED, STATE_FAILED, STATE_INTERRUPTED)

#: Option fields a submission's ``"options"`` object may set, with the
#: accepted JSON types.  Everything else about a conversion (journal
#: paths, resume, fault plans) is owned by the service.
SUBMISSION_OPTIONS: dict[str, tuple[type, ...]] = {
    "jobs": (int,),
    "chunk_size": (int,),
    "parallel_threshold": (int,),
    "strategy_order": (str,),
    "program_timeout": (int, float),
}


class SubmissionError(ReproError):
    """A job submission is malformed (HTTP 400) or not resumable in
    its current state (HTTP 409)."""


class QueueFullError(ReproError):
    """The bounded job queue is at capacity (HTTP 503)."""


def validate_submission(payload: Any) -> dict[str, Any]:
    """Normalize and validate one job submission.

    Artifacts are parsed *now*, so a submission with a DDL typo is
    refused at the front door (HTTP 400 with the parse error) instead
    of burning a queue slot to fail later.  Returns the normalized
    submission dict that is persisted in the job manifest.
    """
    if not isinstance(payload, dict):
        raise SubmissionError("submission must be a JSON object")
    for field in ("ddl", "spec"):
        if not isinstance(payload.get(field), str) or not payload[field]:
            message = f"submission field {field!r} must be non-empty DDL/spec text"
            raise SubmissionError(message)
    programs = payload.get("programs")
    valid_programs = isinstance(programs, list) and bool(programs)
    if valid_programs:
        valid_programs = all(isinstance(p, str) and p for p in programs)
    if not valid_programs:
        message = "submission field 'programs' must be a non-empty list of texts"
        raise SubmissionError(message)
    data = payload.get("data")
    if data is not None and not isinstance(data, str):
        raise SubmissionError("submission field 'data' must be loader program text")
    rules = payload.get("rules")
    if rules is not None and not isinstance(rules, str):
        raise SubmissionError(
            "submission field 'rules' must be rule-catalog text")
    inputs = payload.get("inputs", [])
    valid_inputs = isinstance(inputs, list)
    if valid_inputs:
        valid_inputs = all(isinstance(line, str) for line in inputs)
    if not valid_inputs:
        message = "submission field 'inputs' must be a list of terminal input lines"
        raise SubmissionError(message)
    options = payload.get("options", {})
    if not isinstance(options, dict):
        raise SubmissionError("submission field 'options' must be an object")
    for key, value in options.items():
        accepted = SUBMISSION_OPTIONS.get(key)
        if accepted is None:
            message = f"unknown option {key!r}; accepted: {sorted(SUBMISSION_OPTIONS)}"
            raise SubmissionError(message)
        if not isinstance(value, accepted) or isinstance(value, bool):
            type_names = "/".join(t.__name__ for t in accepted)
            raise SubmissionError(f"option {key!r} must be of type {type_names}")
    if options.get("strategy_order") not in (None, "cost", "fixed"):
        raise SubmissionError("option 'strategy_order' must be 'cost' or 'fixed'")

    try:
        api.load_schema(payload["ddl"])
        from repro.restructure.spec import parse_spec

        parse_spec(payload["spec"])
        names = [parse_program(text).name for text in programs]
        if data is not None:
            parse_program(data)
        if rules is not None:
            api.load_rule_catalog(rules)
    except ReproError as exc:
        raise SubmissionError(f"unparseable submission artifact: {exc}") from exc
    if len(set(names)) != len(names):
        raise SubmissionError(f"duplicate program names in batch: {names}")

    return {
        "ddl": payload["ddl"],
        "spec": payload["spec"],
        "programs": list(programs),
        "program_names": names,
        "data": data,
        "rules": rules,
        "inputs": list(inputs),
        "options": dict(options),
    }


class Job:
    """One submitted batch conversion and its event stream.

    State, progress counters, and the bounded-memory event buffer all
    live behind one condition variable; SSE followers block on it in
    :meth:`follow` and are woken by every :meth:`emit`.
    """

    def __init__(
        self,
        job_id: str,
        directory: Path,
        submission: dict[str, Any],
        state: str = STATE_QUEUED,
    ):
        self.id = job_id
        self.dir = Path(directory)
        self.submission = submission
        self.state = state
        self.error: str | None = None
        self.resume = False
        self.total = len(submission["programs"])
        self.done = 0
        self.counts: dict[str, int] = {}
        self.events: list[tuple[int, str, dict[str, Any]]] = []
        self.cond = threading.Condition()

    # -- spool paths ---------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.dir / "job.json"

    @property
    def checkpoint_path(self) -> Path:
        return self.dir / "checkpoint.json"

    @property
    def report_path(self) -> Path:
        return self.dir / "report.json"

    def checkpoint_bytes(self) -> bytes | None:
        """The checkpoint as the batch's fold writes it, or ``None``
        before the first program settles.  A running job -- or one
        whose server was killed -- has journal logs but no folded
        document yet; they are folded here in memory, writing
        nothing."""
        return BatchCheckpoint(self.checkpoint_path).render()

    # -- state ---------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def set_state(self, state: str, error: str | None = None) -> None:
        """Transition and narrate: every state change is also a
        ``job`` event on the stream."""
        with self.cond:
            self.state = state
            self.error = error
        self.emit("job", self._job_event())

    def _job_event(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "job": self.id,
            "state": self.state,
            "done": self.done,
            "total": self.total,
        }
        if self.error:
            data["error"] = self.error
        if self.counts:
            data["counts"] = dict(self.counts)
        return data

    def emit(self, event: str, data: dict[str, Any]) -> int:
        with self.cond:
            seq = len(self.events)
            self.events.append((seq, event, data))
            self.cond.notify_all()
        return seq

    def record_program(
        self,
        report: ConversionReport,
        done: int,
        total: int,
        resumed: bool,
    ) -> None:
        """The batch layer's progress callback target: one ``program``
        event per settled program."""
        with self.cond:
            self.done = done
            self.total = total
        data: dict[str, Any] = {
            "job": self.id,
            "program": report.program_name,
            "status": report.status,
            "strategy": report.strategy,
            "done": done,
            "total": total,
        }
        if resumed:
            data["resumed"] = True
        if report.failure:
            data["failure"] = report.failure
        self.emit("program", data)

    def follow(
        self,
        start: int = 0,
        stop: threading.Event | None = None,
        poll: float = 0.25,
    ) -> Iterator[tuple[int, str, dict]]:
        """Yield events from ``start`` onward, blocking for live ones.

        Returns once the job is terminal and every buffered event has
        been yielded, or when ``stop`` is set (service shutdown) --
        the SSE handler turns either into end-of-stream.
        """
        next_index = max(0, start)
        while True:
            with self.cond:
                while next_index >= len(self.events):
                    if self.terminal:
                        return
                    if stop is not None and stop.is_set():
                        return
                    self.cond.wait(timeout=poll)
                batch = list(self.events[next_index:])
                next_index += len(batch)
            yield from batch

    # -- the public JSON view ------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        with self.cond:
            base = f"/jobs/{self.id}"
            return {
                "id": self.id,
                "state": self.state,
                "error": self.error,
                "done": self.done,
                "total": self.total,
                "counts": dict(self.counts),
                "links": {
                    "self": base,
                    "events": f"{base}/events",
                    "report": f"{base}/report",
                    "checkpoint": f"{base}/checkpoint",
                },
            }

    # -- persistence ---------------------------------------------------

    def persist(self) -> None:
        with self.cond:
            manifest = {
                "version": MANIFEST_VERSION,
                "id": self.id,
                "state": self.state,
                "error": self.error,
                "done": self.done,
                "total": self.total,
                "counts": dict(self.counts),
                "submission": self.submission,
            }
        write_json_atomic(manifest, self.manifest_path)

    @classmethod
    def restore(cls, manifest_path: Path) -> "Job":
        data = json.loads(manifest_path.read_text())
        if data.get("version") != MANIFEST_VERSION:
            found = data.get("version")
            message = (
                f"job manifest {manifest_path} has version {found!r}, "
                f"expected {MANIFEST_VERSION}"
            )
            raise SubmissionError(message)
        job = cls(
            data["id"],
            manifest_path.parent,
            data["submission"],
            state=data["state"],
        )
        job.error = data.get("error")
        job.done = data.get("done", 0)
        job.total = data.get("total", job.total)
        job.counts = dict(data.get("counts", {}))
        return job


def pool_key(submission: dict[str, Any]) -> str:
    """The warm-pool cache key: everything that shapes the pickled
    worker seed.  Two jobs share a pool only when their probe
    databases, operator, inputs, and conversion-relevant options are
    identical -- the condition under which a warm worker is
    byte-equivalent to a fresh one for the second job."""
    options = submission.get("options", {})
    relevant = {
        "ddl": submission["ddl"],
        "spec": submission["spec"],
        "data": submission.get("data"),
        "rules": submission.get("rules"),
        "inputs": submission.get("inputs", []),
        "jobs": options.get("jobs"),
        "strategy_order": options.get("strategy_order", "cost"),
        "program_timeout": options.get("program_timeout"),
    }
    blob = json.dumps(relevant, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class JobManager:
    """Bounded job queue, executor thread, spool persistence, and the
    warm-pool cache.

    ``queue_limit`` bounds *waiting* jobs (HTTP 503 when full) -- the
    backpressure that keeps a flood of submissions from exhausting the
    spool.  One executor thread drains the queue: conversions
    themselves parallelize across worker processes (a job's
    ``options.jobs``), and a single in-order executor keeps the
    process-wide metrics registry's per-job deltas meaningful.
    """

    def __init__(
        self,
        spool: "str | Path",
        queue_limit: int = 16,
    ):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.queue: "queue.Queue[Job]" = queue.Queue(maxsize=queue_limit)
        self.jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._pool: tuple[str, WorkerPool] | None = None
        self._cascade: tuple[str, Any] | None = None
        self._counter = 0
        self._restore_spool()
        self._executor = threading.Thread(
            target=self._run_loop,
            name="repro-service-executor",
            daemon=True,
        )
        self._executor.start()

    # -- restore -------------------------------------------------------

    def _restore_spool(self) -> None:
        """Reload job manifests left by a previous server process.

        Jobs that were queued or running when that process died are
        marked ``interrupted`` -- their checkpoints (if any) are
        resumable.  Terminal jobs get their event buffers rebuilt from
        the report artifact so an SSE replay still narrates every
        program."""
        for manifest in sorted(self.spool.glob("job-*/job.json")):
            try:
                job = Job.restore(manifest)
            except (OSError, ValueError, KeyError, ReproError) as exc:
                log.warning(
                    "service: skipping unreadable manifest %s: %s",
                    manifest,
                    exc,
                )
                continue
            if job.state in (STATE_QUEUED, STATE_RUNNING):
                phase = "queued" if job.done == 0 else "running"
                job.state = STATE_INTERRUPTED
                job.error = (
                    f"server stopped while the job was {phase}; resubmit "
                    f'with {{"resume": "{job.id}"}}'
                )
                job.persist()
            self._replay_from_report(job)
            self.jobs[job.id] = job
            suffix = job.id.rpartition("-")[2]
            if suffix.isdigit():
                self._counter = max(self._counter, int(suffix))

    def _replay_from_report(self, job: Job) -> None:
        if not job.report_path.exists():
            job.events.append((0, "job", job._job_event()))
            return
        try:
            summary = json.loads(job.report_path.read_text())
        except (OSError, ValueError):
            return
        reports = summary.get("reports", ())
        for index, entry in enumerate(reports, start=1):
            report = ConversionReport.from_summary(entry)
            job.record_program(report, index, job.total, resumed=False)
        job.events.append((len(job.events), "job", job._job_event()))

    # -- submission ----------------------------------------------------

    def _next_id(self) -> str:
        self._counter += 1
        return f"job-{self._counter:06d}"

    def _queue_full_error(self) -> QueueFullError:
        limit = self.queue.maxsize
        return QueueFullError(
            f"job queue is full ({limit} waiting); retry after a job finishes"
        )

    def submit(self, payload: Any) -> Job:
        """Validate, spool, and enqueue a new job (or raise
        :class:`SubmissionError` / :class:`QueueFullError`)."""
        submission = validate_submission(payload)
        with self._lock:
            job_id = self._next_id()
            job = Job(job_id, self.spool / job_id, submission)
            self.jobs[job_id] = job
        job.dir.mkdir(parents=True, exist_ok=True)
        # Persist and emit *before* enqueueing: once the executor can
        # see the job it may persist concurrently, and two writers
        # racing one manifest path is exactly what atomic writes of a
        # shared temp name cannot survive.
        job.persist()
        job.emit("job", job._job_event())
        try:
            self.queue.put_nowait(job)
        except queue.Full:
            with self._lock:
                del self.jobs[job_id]
            try:
                job.manifest_path.unlink()
                job.dir.rmdir()
            except OSError:
                pass  # best-effort spool cleanup on refusal
            raise self._queue_full_error() from None
        return job

    def resume_job(self, job_id: str) -> Job:
        """Re-enqueue an interrupted (or failed) job with
        ``resume=True``: programs already journaled in its checkpoint
        are recovered, the rest convert, and the final report is
        byte-identical to an uninterrupted run."""
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        with job.cond:
            if job.state not in (STATE_INTERRUPTED, STATE_FAILED):
                message = (
                    f"job {job_id} is {job.state}; only interrupted or "
                    "failed jobs can be resumed"
                )
                raise SubmissionError(message)
            job.state = STATE_QUEUED
            job.error = None
            job.resume = True
            job.done = 0
            job.counts = {}
            job.events = []
        job.persist()
        job.emit("job", job._job_event())
        try:
            self.queue.put_nowait(job)
        except queue.Full:
            with job.cond:
                job.state = STATE_INTERRUPTED
            job.persist()
            raise self._queue_full_error() from None
        return job

    def list_jobs(self) -> list[dict[str, Any]]:
        with self._lock:
            ordered = sorted(self.jobs)
        return [self.jobs[job_id].snapshot() for job_id in ordered]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            states: dict[str, int] = {}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        return {
            "jobs": sum(states.values()),
            "states": states,
            "queue_depth": self.queue.qsize(),
            "queue_limit": self.queue.maxsize,
        }

    # -- execution -----------------------------------------------------

    def _run_loop(self) -> None:
        while not self._stop.is_set():
            try:
                job = self.queue.get(timeout=0.2)
            except queue.Empty:
                continue
            if self._stop.is_set():
                self._park(job)
                break
            try:
                self._execute(job)
            except Exception:  # pragma: no cover - defensive
                log.exception("service: executor crashed on %s", job.id)
                job.set_state(STATE_FAILED, error="internal executor fault")
                job.persist()

    def _park(self, job: Job) -> None:
        error = (
            "service stopped before the job started; resubmit with "
            f'{{"resume": "{job.id}"}}'
        )
        job.set_state(STATE_INTERRUPTED, error=error)
        job.persist()

    def _options_for(self, job: Job) -> ConversionOptions:
        submitted = job.submission.get("options", {})
        terminal = list(job.submission.get("inputs", []))
        rules = job.submission.get("rules")
        return ConversionOptions(
            rule_catalog=None if rules is None
            else api.load_rule_catalog(rules),
            checkpoint=str(job.checkpoint_path),
            resume=job.resume,
            report_json=str(job.report_path),
            inputs=ProgramInputs(terminal=terminal),
            jobs=submitted.get("jobs", 1),
            chunk_size=submitted.get("chunk_size"),
            parallel_threshold=submitted.get("parallel_threshold"),
            strategy_order=submitted.get("strategy_order", "cost"),
            program_timeout=submitted.get("program_timeout"),
        )

    def _pool_for(
        self,
        job: Job,
        cascade: Any,
        options: ConversionOptions,
        pending: int,
    ) -> WorkerPool | None:
        """The shared warm pool, when this job can use one.

        Cache of one: the common served pattern is a stream of jobs
        over the same application system, and those all hit the same
        key.  A job with a different seed closes the cached pool and
        warms its own."""
        jobs = options.resolved_jobs()
        if jobs <= 1 or pending < options.resolved_parallel_threshold(jobs):
            return None
        key = pool_key(job.submission)
        with self._lock:
            if self._pool is not None:
                cached_key, cached = self._pool
                if cached_key == key and not cached.closed:
                    return cached
                cached.close()
                self._pool = None
        pool = WorkerPool(cascade, options, jobs=jobs)
        with self._lock:
            self._pool = (key, pool)
        return pool

    def _cascade_for(self, job: Job, options: ConversionOptions) -> Any:
        """The shared cascade, cache-of-one keyed like the warm pool.

        Building a cascade replays the DDL parse, the loader program,
        and the restructuring -- the dominant per-job cost for a
        stream of jobs over one application system.  Probes roll every
        mutation back inside savepoints, so a reused cascade's probe
        databases are byte-identical to freshly built ones, and the
        cascade keeps no per-batch state that reaches report or
        checkpoint bytes."""
        submission = job.submission
        key = pool_key(submission)
        with self._lock:
            if self._cascade is not None and self._cascade[0] == key:
                return self._cascade[1]
        cascade = api.build_cascade(
            submission["ddl"],
            submission["spec"],
            data=submission.get("data"),
            options=options,
        )
        with self._lock:
            self._cascade = (key, cascade)
        return cascade

    def _execute(self, job: Job) -> None:
        job.set_state(STATE_RUNNING)
        job.persist()
        submission = job.submission
        registry = get_registry()
        try:
            options = self._options_for(job)
            cascade = self._cascade_for(job, options)
            programs = [parse_program(text) for text in submission["programs"]]
            pool = self._pool_for(job, cascade, options, len(programs))
            # After the cache lookups: evicting a cached cascade drops
            # its counters from the registry, which must not cancel
            # this job's movement.
            before = registry.snapshot()

            def progress(
                report: ConversionReport,
                done: int,
                total: int,
                resumed: bool,
            ) -> None:
                job.record_program(report, done, total, resumed)
                _after_program(job, report)
                if self._stop.is_set():
                    # Cooperative stop: the journal already holds this
                    # program, so raising here is the batch layer's
                    # graceful-interrupt path (parallel batches drain
                    # in-flight chunks and merge shards on the way out).
                    raise KeyboardInterrupt("service shutdown")

            tracer = StreamingTracer(
                lambda span: job.emit("span", span_event(span)),
                prefixes=("batch.",),
            )
            with tracer:
                batch = api.convert_batch(
                    cascade,
                    programs,
                    options,
                    pool=pool,
                    progress=progress,
                )
        except KeyboardInterrupt:
            error = (
                "interrupted by service shutdown; checkpoint is resumable "
                f'-- resubmit with {{"resume": "{job.id}"}}'
            )
            job.set_state(STATE_INTERRUPTED, error=error)
        except ParallelExecutionError as exc:
            job.set_state(STATE_FAILED, error=str(exc))
        except ReproError as exc:
            job.set_state(STATE_FAILED, error=str(exc))
        except Exception as exc:
            job.set_state(STATE_FAILED, error=f"{type(exc).__name__}: {exc}")
        else:
            delta = registry_delta(before, registry.snapshot())
            counters = {
                name: value
                for name, value in delta.items()
                if name.startswith(EVENT_COUNTER_PREFIXES) and value
            }
            with job.cond:
                job.counts = batch.counts()
            if counters:
                job.emit("counters", {"job": job.id, "counters": counters})
            job.set_state(STATE_COMPLETED)
        finally:
            job.persist()

    # -- shutdown ------------------------------------------------------

    @property
    def stopping(self) -> threading.Event:
        return self._stop

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful drain: the running job is interrupted at its next
        program boundary (resumable checkpoint on disk), queued jobs
        are parked as ``interrupted``, the warm pool is closed, and
        every SSE follower is woken to end its stream."""
        self._stop.set()
        self._executor.join(timeout=timeout)
        while True:
            try:
                job = self.queue.get_nowait()
            except queue.Empty:
                break
            self._park(job)
        with self._lock:
            if self._pool is not None:
                self._pool[1].close()
                self._pool = None
            self._cascade = None
        for job in list(self.jobs.values()):
            with job.cond:
                job.cond.notify_all()


def _after_program(job: Job, report: ConversionReport) -> None:
    """Test seam: called after every settled program's event is
    emitted, before the cooperative-stop check.  The shutdown tests
    install a gate here to park a job mid-batch deterministically."""


__all__ = [
    "Job",
    "JobManager",
    "QueueFullError",
    "STATE_COMPLETED",
    "STATE_FAILED",
    "STATE_INTERRUPTED",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "SubmissionError",
    "TERMINAL_STATES",
    "pool_key",
    "validate_submission",
]
