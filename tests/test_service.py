"""Tests for the conversion service: progress callbacks, the SSE wire
format, the job manager and its event stream, the HTTP surface, and
the graceful-shutdown / resume byte-identity contract."""

import json
import shutil
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from functools import partial

import pytest

from repro import api
from repro.cli import main
from repro.core import report as report_mod
from repro.observe.registry import MetricsRegistry
from repro.options import ConversionOptions
from repro.parallel import WorkerPool
from repro.programs.ast import render_program
from repro.programs.interpreter import ProgramInputs
from repro.programs.parser import parse_program
from repro.service import jobs as jobs_mod
from repro.service.jobs import (
    JobManager,
    QueueFullError,
    SubmissionError,
    pool_key,
    validate_submission,
)
from repro.service.server import ConversionService
from repro.service.sse import format_event, parse_events
from repro.workloads.company import FIGURE_4_3_DDL
from repro.workloads.corpus import CorpusSpec, generate_corpus

FIG44_SPEC = ("INTERPOSE DEPT (DEPT-NAME) ON DIV-EMP "
              "AS DIV-DEPT, DEPT-EMP.\n")

PROGRAM_TEMPLATE = """\
PROGRAM {name} (network / COMPANY-NAME).
  FIND ANY DIV USING DIV-NAME='MACHINERY'.
  FIND FIRST EMP WITHIN DIV-EMP.
  PERFORM WHILE (DB-STATUS = '0000')
    GET EMP.
    IF (EMP.AGE > {age})
      DISPLAY EMP.EMP-NAME.
    END-IF
    FIND NEXT EMP WITHIN DIV-EMP.
  END-PERFORM
"""


def corpus(size=3):
    return [PROGRAM_TEMPLATE.format(name=f"REPORT{i}", age=40 + i)
            for i in range(size)]


def submission(size=3, **extra):
    payload = {"ddl": FIGURE_4_3_DDL, "spec": FIG44_SPEC,
               "programs": corpus(size)}
    payload.update(extra)
    return payload


def wait_terminal(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    with job.cond:
        while not job.terminal:
            assert time.monotonic() < deadline, (
                f"job {job.id} still {job.state} after {timeout}s")
            job.cond.wait(timeout=0.2)
    return job.state


#: A completed job's spool directory: no report file beside the
#: checkpoint whose summaries are its report.
SPOOL_FILES = ["checkpoint.json", "job.json", "submission.json"]


def spooled(job):
    return sorted(path.name for path in job.dir.iterdir())


def spy_persist(monkeypatch):
    """Record every manifest write as (job id, state, calling function)."""
    writes = []
    persist = jobs_mod.Job.persist

    def spying(job):
        writes.append((job.id, job.state, sys._getframe(1).f_code.co_name))
        persist(job)

    monkeypatch.setattr(jobs_mod.Job, "persist", spying)
    return writes


def cli_reference_run(tmp_path, size=3):
    """The shell-side of the byte-identity contract: the same batch via
    ``repro convert``, returning (report_bytes, checkpoint_bytes)."""
    ref = tmp_path / "cli-ref"
    ref.mkdir()
    ddl = ref / "company.ddl"
    ddl.write_text(FIGURE_4_3_DDL)
    spec = ref / "fig44.spec"
    spec.write_text(FIG44_SPEC)
    program_args = []
    for i, text in enumerate(corpus(size)):
        path = ref / f"p{i}.cob"
        path.write_text(text)
        program_args += ["--program", str(path)]
    checkpoint = ref / "checkpoint.json"
    report = ref / "report.json"
    code = main(["convert", "--ddl", str(ddl), "--spec", str(spec),
                 *program_args, "--jobs", "1",
                 "--checkpoint", str(checkpoint),
                 "--report-json", str(report)])
    assert code == 0
    return report.read_bytes(), checkpoint.read_bytes()


# -- progress callbacks (batch layer) ---------------------------------


def build_cascade(options=None):
    return api.build_cascade(FIGURE_4_3_DDL, FIG44_SPEC, options=options)


def test_serial_progress_callback_order(tmp_path):
    calls = []

    def progress(report, done, total, resumed):
        calls.append((report.program_name, done, total, resumed))

    programs = [parse_program(text) for text in corpus(3)]
    options = ConversionOptions(inputs=ProgramInputs(terminal=[]))
    api.convert_batch(build_cascade(options), programs, options,
                      progress=progress)
    assert calls == [("REPORT0", 1, 3, False), ("REPORT1", 2, 3, False),
                     ("REPORT2", 3, 3, False)]


def test_progress_interrupt_is_resumable(tmp_path):
    """Raising from the progress callback is the graceful-interrupt
    path: the journal holds everything already reported, and a resumed
    run reports the survivors with ``resumed=True``."""
    checkpoint = tmp_path / "ck.json"
    options = ConversionOptions(inputs=ProgramInputs(terminal=[]),
                                checkpoint=checkpoint)
    programs = [parse_program(text) for text in corpus(3)]

    first = []

    def interrupt_after_one(report, done, total, resumed):
        first.append((report.program_name, resumed))
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        api.convert_batch(build_cascade(options), programs, options,
                          progress=interrupt_after_one)
    assert first == [("REPORT0", False)]
    assert checkpoint.exists()

    second = []
    resumed_options = options.replace(resume=True)
    api.convert_batch(
        build_cascade(resumed_options), programs, resumed_options,
        progress=lambda r, d, t, res: second.append((r.program_name, res)))
    assert second == [("REPORT0", True), ("REPORT1", False),
                      ("REPORT2", False)]


# -- the SSE wire format ----------------------------------------------


def test_sse_round_trip():
    wire = b"".join([
        format_event("job", {"state": "queued"}, event_id=0),
        b": keep-alive\n\n",
        format_event("program", {"program": "P1", "done": 1}, event_id=1),
    ])
    events = list(parse_events(wire.splitlines(keepends=True)))
    assert events == [("job", {"state": "queued"}),
                      ("program", {"program": "P1", "done": 1})]


def test_sse_format_is_byte_stable():
    one = format_event("program", {"b": 1, "a": 2}, event_id=7)
    two = format_event("program", {"a": 2, "b": 1}, event_id=7)
    assert one == two
    assert one == b'id: 7\nevent: program\ndata: {"a":2,"b":1}\n\n'


def test_a_follower_always_receives_the_terminal_event(tmp_path):
    """The terminal state and its ``job`` event appear to a follower
    together: one polling while the event is being appended waits for
    it instead of ending the stream without it."""
    job = jobs_mod.Job("job-000001", tmp_path, 0)
    emit = job.emit
    appending = threading.Event()
    release = threading.Event()

    def slow_emit(event, data):
        if data.get("state") == jobs_mod.STATE_COMPLETED:
            appending.set()
            release.wait(timeout=30.0)
        return emit(event, data)

    job.emit = slow_emit
    received = []
    follower = threading.Thread(
        target=lambda: received.extend(job.follow(poll=0.01)))
    follower.start()
    finisher = threading.Thread(target=job.set_state,
                                args=(jobs_mod.STATE_COMPLETED,))
    finisher.start()
    assert appending.wait(timeout=30.0)
    time.sleep(0.1)  # ten polls while the event is on its way
    release.set()
    finisher.join(timeout=30.0)
    follower.join(timeout=30.0)
    assert not finisher.is_alive() and not follower.is_alive()
    assert [data["state"] for _, name, data in received if name == "job"] \
        == [jobs_mod.STATE_COMPLETED]


# -- submission validation --------------------------------------------


@pytest.mark.parametrize("mutate, message", [
    (lambda p: p.pop("ddl"), "'ddl'"),
    (lambda p: p.update(programs=[]), "'programs'"),
    (lambda p: p.update(programs=["PROGRAM"]), "unparseable"),
    (lambda p: p.update(ddl="SCHEMA NAME COMPANY."), "unparseable"),
    (lambda p: p.update(options={"bogus": 1}), "unknown option"),
    (lambda p: p.update(options={"jobs": "two"}), "'jobs'"),
    (lambda p: p.update(options={"strategy_order": "random"}),
     "unknown option 'strategy_order'"),
    (lambda p: p.update(options={"jobs": 0}), "jobs must be >= 1"),
    (lambda p: p.update(options={"jobs": 2, "parallel_threshold": -1}),
     "parallel_threshold must be >= 0"),
    (lambda p: p.update(options={"program_timeout": 0}),
     "program_timeout must be > 0"),
    (lambda p: p.update(options={"jobs": 2, "chunk_size": 0}),
     "chunk_size must be >= 1"),
    (lambda p: p.update(programs=corpus(2) + [corpus(2)[0]]),
     "duplicate"),
])
def test_validate_submission_rejects(mutate, message):
    payload = submission()
    mutate(payload)
    with pytest.raises(SubmissionError, match=message):
        validate_submission(payload)


def test_validate_submission_normalizes():
    normalized, programs = validate_submission(
        submission(2, inputs=["STORE"]))
    assert normalized["program_names"] == ["REPORT0", "REPORT1"]
    assert normalized["inputs"] == ["STORE"]
    assert programs == [parse_program(text) for text in corpus(2)]


def test_pool_key_ignores_service_side_fields():
    a, b = submission(2), submission(5)
    assert pool_key(a) == pool_key(b)  # program list is not in the seed
    assert pool_key(a) != pool_key(
        submission(2, options={"program_timeout": 30}))


# -- the job manager ---------------------------------------------------


def test_job_manager_runs_job_to_byte_identical_artifacts(tmp_path):
    manager = JobManager(tmp_path / "spool")
    try:
        job = manager.submit(submission())
        assert wait_terminal(job) == jobs_mod.STATE_COMPLETED
        assert job.counts == {"converted-with-warnings": 3}
        events = [name for _, name, _ in job.events]
        assert events.count("program") == 3
        report_bytes, checkpoint_bytes = cli_reference_run(tmp_path)
        assert job.report_bytes() == report_bytes
        assert job.checkpoint_path.read_bytes() == checkpoint_bytes
    finally:
        manager.stop()


def test_job_manager_queue_limit(tmp_path, monkeypatch):
    gate = threading.Event()
    entered = threading.Event()

    def block(job, report):
        entered.set()
        gate.wait(timeout=30.0)

    monkeypatch.setattr(jobs_mod, "_after_program", block)
    manager = JobManager(tmp_path / "spool", queue_limit=1)
    try:
        running = manager.submit(submission(2))
        assert entered.wait(timeout=30.0)
        manager.submit(submission(2))  # fills the single queue slot
        with pytest.raises(QueueFullError):
            manager.submit(submission(2))
        gate.set()
        assert wait_terminal(running) == jobs_mod.STATE_COMPLETED
    finally:
        gate.set()
        manager.stop()


def test_refused_resume_changes_neither_job_nor_manifest(tmp_path,
                                                        monkeypatch):
    """A resume refused because the queue is full leaves the failed
    job exactly as it was, in memory and in its ``job.json``."""
    fail_next = threading.Event()
    fail_next.set()
    gate = threading.Event()
    entered = threading.Event()

    def fail_once_then_block(job, report):
        if fail_next.is_set():
            fail_next.clear()
            raise RuntimeError("injected failure")
        entered.set()
        gate.wait(timeout=30.0)

    monkeypatch.setattr(jobs_mod, "_after_program", fail_once_then_block)
    manager = JobManager(tmp_path / "spool", queue_limit=1)
    try:
        failed = manager.submit(submission(2))
        assert wait_terminal(failed) == jobs_mod.STATE_FAILED
        running = manager.submit(submission(2))
        # The single executor finished the failed job, manifest write
        # included, before it began the running one.
        assert entered.wait(timeout=30.0)
        manager.submit(submission(2))  # fills the single queue slot

        def observed():
            return (failed.state, failed.error, failed.done,
                    list(failed.events), failed.manifest_path.read_bytes())

        before = observed()
        assert "injected failure" in before[1]
        with pytest.raises(QueueFullError):
            manager.resume_job(failed.id)
        assert observed() == before
        gate.set()
        assert wait_terminal(running) == jobs_mod.STATE_COMPLETED
    finally:
        gate.set()
        manager.stop()


def test_racing_submits_and_resumes_share_the_last_slots(tmp_path,
                                                       monkeypatch):
    """Eight requests race for two free queue slots: exactly two are
    admitted, the rest are refused with ``QueueFullError``, and every
    refused resume leaves its job's manifest untouched."""
    failing = threading.Event()
    failing.set()
    gate = threading.Event()
    entered = threading.Event()

    def fail_then_block(job, report):
        if failing.is_set():
            raise RuntimeError("injected failure")
        entered.set()
        gate.wait(timeout=30.0)

    monkeypatch.setattr(jobs_mod, "_after_program", fail_then_block)
    manager = JobManager(tmp_path / "spool", queue_limit=2)
    interval = sys.getswitchinterval()
    try:
        failed = []
        for _ in range(4):
            job = manager.submit(submission(1))
            assert wait_terminal(job) == jobs_mod.STATE_FAILED
            failed.append(job)
        failing.clear()
        manager.submit(submission(1))
        assert entered.wait(timeout=30.0)  # the executor is parked
        manifests = {job.id: job.manifest_path.read_bytes()
                     for job in failed}
        requests = {f"resume {job.id}": partial(manager.resume_job, job.id)
                    for job in failed}
        requests.update({f"submit {n}": partial(manager.submit, submission(1))
                         for n in range(4)})
        outcomes = {}

        def attempt(label, request):
            try:
                request()
                outcomes[label] = "admitted"
            except QueueFullError:
                outcomes[label] = "refused"
            except Exception as exc:
                outcomes[label] = repr(exc)

        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=attempt, args=item)
                   for item in requests.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(outcomes.values()) == ["admitted"] * 2 + ["refused"] * 6
        for job in failed:
            if outcomes[f"resume {job.id}"] == "refused":
                assert job.state == jobs_mod.STATE_FAILED
                assert job.manifest_path.read_bytes() == manifests[job.id]
    finally:
        sys.setswitchinterval(interval)
        gate.set()
        manager.stop()


def test_job_manager_warm_pool_is_shared_across_jobs(tmp_path):
    manager = JobManager(tmp_path / "spool")
    try:
        options = {"jobs": 2, "parallel_threshold": 2, "chunk_size": 1}
        first = manager.submit(submission(4, options=options))
        assert wait_terminal(first) == jobs_mod.STATE_COMPLETED
        assert manager._pool is not None
        pool = manager._pool[1]
        second = manager.submit(submission(4, options=options))
        assert wait_terminal(second) == jobs_mod.STATE_COMPLETED
        assert manager._pool is not None
        assert manager._pool[1] is pool  # same warm pool, no respawn
        assert second.counts == {"converted-with-warnings": 4}
        assert [n for _, n, _ in second.events].count("program") == 4
    finally:
        manager.stop()


def test_every_job_emits_its_own_counters(tmp_path):
    """A job's ``counters`` event is its own registry movement, also
    when the job evicts the cached cascade (other ``inputs``) and when
    its worker pool's deltas arrive from other processes."""
    programs = [render_program(item.program) for item in generate_corpus(
        CorpusSpec(seed=1979, size=8, pathology_rate=0.75))]
    manager = JobManager(tmp_path / "spool")
    try:
        emitted = []
        for inputs, options in ((["STORE"], {"jobs": 1}),
                                (["STORE", "STORE"], {"jobs": 1}),
                                (["STORE"], {"jobs": 2,
                                             "parallel_threshold": 1})):
            job = manager.submit({"ddl": FIGURE_4_3_DDL,
                                  "spec": FIG44_SPEC, "programs": programs,
                                  "inputs": inputs, "options": options})
            assert wait_terminal(job) == jobs_mod.STATE_COMPLETED
            emitted.append([payload["counters"]
                            for _, name, payload in job.events
                            if name == "counters"])
        assert emitted[0] == [{"cost.rewrite_skips": 1}]
        assert emitted[1] == emitted[0]
        assert emitted[2] == emitted[0]
    finally:
        manager.stop()


def e2_submission(size, options):
    """A job of the E2 corpus shape (seeded, 25% pathology, ``STORE``
    input)."""
    programs = [render_program(item.program) for item in generate_corpus(
        CorpusSpec(seed=1979, size=size, pathology_rate=0.25))]
    return {"ddl": FIGURE_4_3_DDL, "spec": FIG44_SPEC, "programs": programs,
            "inputs": ["STORE"], "options": options}


def test_a_served_job_reads_the_registry_twice(tmp_path, monkeypatch):
    """A served job runs with no tracer: building its cascade and
    converting 25 programs record no spans, and its only registry
    reads are the pair its ``counters`` event is the delta of."""
    calls = []
    snapshot = MetricsRegistry.snapshot

    def counting(registry):
        calls.append(registry)
        return snapshot(registry)

    monkeypatch.setattr(MetricsRegistry, "snapshot", counting)
    manager = JobManager(tmp_path / "spool")
    try:
        job = manager.submit(e2_submission(25, {"jobs": 1}))
        assert wait_terminal(job) == jobs_mod.STATE_COMPLETED
    finally:
        manager.stop()
    assert len(calls) == 2


def test_serial_and_pool_jobs_stream_the_same_events(tmp_path):
    """The stream does not depend on ``jobs``: three ``job``
    transitions, one ``program`` event per program and the
    ``counters`` event, whether the job converts in-process or on the
    worker pool."""
    manager = JobManager(tmp_path / "spool")
    try:
        kinds = []
        for options in ({"jobs": 1}, {"jobs": 2, "parallel_threshold": 1}):
            job = manager.submit(e2_submission(25, options))
            assert wait_terminal(job) == jobs_mod.STATE_COMPLETED
            kinds.append(Counter(name for _, name, _ in job.events))
    finally:
        manager.stop()
    assert kinds[0] == {"job": 3, "program": 25, "counters": 1}
    assert kinds[1] == kinds[0]


def test_a_served_pool_job_begins_its_workers_untraced(tmp_path,
                                                        monkeypatch):
    """With no tracer active, the pool's ``begin`` message turns
    tracing off in every worker, so they ship no span trees back."""
    sent = []
    send = WorkerPool.send

    def spying(pool, worker_id, message):
        sent.append(message)
        send(pool, worker_id, message)

    monkeypatch.setattr(WorkerPool, "send", spying)
    manager = JobManager(tmp_path / "spool")
    try:
        job = manager.submit(
            e2_submission(4, {"jobs": 2, "parallel_threshold": 1}))
        assert wait_terminal(job) == jobs_mod.STATE_COMPLETED
    finally:
        manager.stop()
    begins = [message for message in sent if message[0] == "begin"]
    assert [message[3] for message in begins] == [False, False]


def test_resume_rejects_running_or_completed(tmp_path):
    manager = JobManager(tmp_path / "spool")
    try:
        job = manager.submit(submission(2))
        wait_terminal(job)
        with pytest.raises(SubmissionError, match="completed"):
            manager.resume_job(job.id)
        with pytest.raises(KeyError):
            manager.resume_job("job-999999")
    finally:
        manager.stop()


# -- the HTTP surface --------------------------------------------------


@pytest.fixture
def service(tmp_path):
    svc = ConversionService(tmp_path / "spool", port=0)
    svc.start()
    try:
        yield svc
    finally:
        svc.stop()


def url(service, path):
    host, port = service.address
    return f"http://{host}:{port}{path}"


def post_json(service, path, payload):
    request = urllib.request.Request(
        url(service, path), data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def get_json(service, path):
    with urllib.request.urlopen(url(service, path)) as response:
        return response.status, json.loads(response.read())


def get_bytes(service, path):
    with urllib.request.urlopen(url(service, path)) as response:
        return response.read()


def test_http_end_to_end(service, tmp_path):
    status, job = post_json(service, "/jobs", submission())
    assert status == 202
    assert job["state"] in ("queued", "running", "completed")

    events = []
    with urllib.request.urlopen(
            url(service, job["links"]["events"])) as response:
        assert response.headers["Content-Type"] == "text/event-stream"
        events = list(parse_events(response))

    # One event per program between the job's transitions, and the
    # counter delta, empty here: no rewrite was skipped.
    programs = [data["program"] for name, data in events
                if name == "program"]
    assert programs == ["REPORT0", "REPORT1", "REPORT2"]
    assert events[-1][0] == "job"
    assert events[-1][1]["state"] == "completed"
    assert Counter(name for name, _ in events) == \
        {"job": 3, "program": 3, "counters": 1}
    assert events[-2] == ("counters", {"job": job["id"], "counters": {}})

    status, snap = get_json(service, job["links"]["self"])
    assert snap["state"] == "completed"
    assert snap["done"] == snap["total"] == 3

    report_bytes, checkpoint_bytes = cli_reference_run(tmp_path)
    assert get_bytes(service, job["links"]["report"]) == report_bytes
    assert get_bytes(service, job["links"]["checkpoint"]) == \
        checkpoint_bytes

    status, health = get_json(service, "/healthz")
    assert health["status"] == "ok"
    assert health["jobs"] == 1

    status, listing = get_json(service, "/jobs")
    assert [entry["id"] for entry in listing["jobs"]] == [job["id"]]


@pytest.mark.parametrize("options", [
    {"jobs": 1}, {"jobs": 2, "parallel_threshold": 1}], ids=["serial", "pool"])
def test_a_completed_job_spools_three_files_and_serves_the_cli_report(
        tmp_path, options):
    """The folded checkpoint is the job's report: the spool holds no
    report file, and ``GET /report`` renders the CLI's bytes."""
    service = ConversionService(tmp_path / "spool", port=0).start()
    try:
        _, snap = post_json(service, "/jobs", submission(options=options))
        job = service.manager.jobs[snap["id"]]
        assert wait_terminal(job) == jobs_mod.STATE_COMPLETED
        served = get_bytes(service, snap["links"]["report"])
    finally:
        # Stopping joins the executor, whose manifest write follows
        # the terminal event.
        service.stop()
    report_bytes, _checkpoint_bytes = cli_reference_run(tmp_path)
    assert served == report_bytes
    assert job.report_bytes() == report_bytes
    assert spooled(job) == SPOOL_FILES


def test_http_sse_replay_with_last_event_id(service):
    _, job = post_json(service, "/jobs", submission(2))
    with urllib.request.urlopen(
            url(service, job["links"]["events"])) as response:
        full = list(parse_events(response))
    request = urllib.request.Request(
        url(service, job["links"]["events"]),
        headers={"Last-Event-ID": "1"})
    with urllib.request.urlopen(request) as response:
        tail = list(parse_events(response))
    assert tail == full[2:]


def test_http_errors(service):
    with pytest.raises(urllib.error.HTTPError) as err:
        post_json(service, "/jobs", {"ddl": "x"})
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        post_json(service, "/jobs",
                  submission(2, options={"strategy_order": "fixed"}))
    assert err.value.code == 400
    assert "unknown option 'strategy_order'" in \
        json.loads(err.value.read())["error"]
    with pytest.raises(urllib.error.HTTPError) as err:
        get_json(service, "/jobs/job-999999")
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        get_json(service, "/nope")
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        post_json(service, "/jobs", {"resume": "job-999999"})
    assert err.value.code == 404


def test_http_report_404_before_completion(service, monkeypatch):
    gate = threading.Event()
    entered = threading.Event()

    def block(job, report):
        entered.set()
        gate.wait(timeout=30.0)

    monkeypatch.setattr(jobs_mod, "_after_program", block)
    try:
        _, job = post_json(service, "/jobs", submission(2))
        assert entered.wait(timeout=30.0)
        with pytest.raises(urllib.error.HTTPError) as err:
            get_json(service, job["links"]["report"])
        assert err.value.code == 404
    finally:
        gate.set()


def test_http_checkpoint_while_the_job_runs(service, monkeypatch, tmp_path):
    """Mid-batch the job has a journal log but no folded checkpoint;
    the endpoint serves the fold of the log -- the bytes the batch's
    compaction would write -- and writes nothing itself."""
    gate = threading.Event()
    entered = threading.Event()

    def block(job, report):
        entered.set()
        gate.wait(timeout=30.0)

    monkeypatch.setattr(jobs_mod, "_after_program", block)
    try:
        _, job = post_json(service, "/jobs", submission())
        assert entered.wait(timeout=30.0)
        checkpoint_path = service.manager.jobs[job["id"]].checkpoint_path
        served = get_bytes(service, job["links"]["checkpoint"])
        assert not checkpoint_path.exists()
    finally:
        gate.set()
    assert wait_terminal(service.manager.jobs[job["id"]]) == "completed"

    _, checkpoint_bytes = cli_reference_run(tmp_path)
    final = json.loads(checkpoint_bytes)
    partial = dict(final, completed=final["completed"][:1])
    assert served == (json.dumps(partial, indent=2) + "\n").encode()


# -- graceful shutdown and resume -------------------------------------


def test_shutdown_mid_batch_then_resume_is_byte_identical(
        tmp_path, monkeypatch):
    """The acceptance contract: SIGTERM mid-batch leaves a resumable
    checkpoint, and a restarted server resumes the job to a report
    byte-identical to an uninterrupted run."""
    spool = tmp_path / "spool"
    first_program = threading.Event()
    release = threading.Event()

    def gate(job, report):
        first_program.set()
        release.wait(timeout=30.0)

    monkeypatch.setattr(jobs_mod, "_after_program", gate)
    service = ConversionService(spool, port=0).start()
    _, job = post_json(service, "/jobs", submission())
    assert first_program.wait(timeout=30.0)

    # The drain: stop() interrupts the batch at the next program
    # boundary -- exactly what the SIGTERM handler triggers.
    stopper = threading.Thread(target=service.stop)
    stopper.start()
    time.sleep(0.2)  # let stop() raise the flag before releasing
    release.set()
    stopper.join(timeout=60.0)
    assert not stopper.is_alive()

    monkeypatch.setattr(jobs_mod, "_after_program", lambda j, r: None)
    restarted = ConversionService(spool, port=0).start()
    try:
        _, snap = get_json(restarted, f"/jobs/{job['id']}")
        assert snap["state"] == "interrupted"
        checkpoint = json.loads(
            get_bytes(restarted, snap["links"]["checkpoint"]))
        assert len(checkpoint["completed"]) >= 1  # progress survived

        status, resumed = post_json(restarted, "/jobs",
                                    {"resume": job["id"]})
        assert status == 202
        with urllib.request.urlopen(
                url(restarted, resumed["links"]["events"])) as response:
            events = list(parse_events(response))
        recovered = [data for name, data in events
                     if name == "program" and data.get("resumed")]
        assert recovered  # journaled programs came back from the log
        # The resumed run's stream starts over: each program once,
        # under this run's transitions only.
        assert sorted(data["program"] for name, data in events
                      if name == "program") == ["REPORT0", "REPORT1",
                                                "REPORT2"]
        assert [data["state"] for name, data in events if name == "job"] \
            == ["queued", "running", "completed"]

        _, final = get_json(restarted, f"/jobs/{job['id']}")
        assert final["state"] == "completed"
        report_bytes, checkpoint_bytes = cli_reference_run(tmp_path)
        assert get_bytes(restarted,
                         final["links"]["report"]) == report_bytes
        assert get_bytes(restarted,
                         final["links"]["checkpoint"]) == checkpoint_bytes
    finally:
        restarted.stop()
    resumed_job = restarted.manager.jobs[job["id"]]
    assert resumed_job.report_bytes() == report_bytes
    assert spooled(resumed_job) == SPOOL_FILES


def test_manifest_naming_strategy_order_still_resumes(tmp_path):
    """A manifest spooled before 6.0.0 may name the retired
    ``strategy_order`` option: the job restores, resumes, and converts
    to the shell run's bytes."""
    normalized, _programs = validate_submission(submission())
    normalized["options"] = {"strategy_order": "fixed"}
    job_dir = tmp_path / "spool" / "job-000001"
    job_dir.mkdir(parents=True)
    # Version 1, the layout that embeds the submission in job.json.
    (job_dir / "job.json").write_text(json.dumps({
        "version": 1, "id": "job-000001",
        "state": jobs_mod.STATE_QUEUED, "error": None, "done": 0,
        "total": 3, "counts": {}, "submission": normalized}))
    manager = JobManager(tmp_path / "spool")
    try:
        job = manager.jobs["job-000001"]
        assert job.state == jobs_mod.STATE_INTERRUPTED
        manager.resume_job(job.id)
        assert wait_terminal(job) == jobs_mod.STATE_COMPLETED
        report_bytes, checkpoint_bytes = cli_reference_run(tmp_path)
        assert job.report_bytes() == report_bytes
        assert job.checkpoint_path.read_bytes() == checkpoint_bytes
    finally:
        manager.stop()


LOADER = """\
PROGRAM LOADER (network / COMPANY-NAME).
  STORE DIV (DIV-NAME='MACHINERY', DIV-LOC='DETROIT').
  STORE EMP (EMP-NAME='SMITH', DEPT-NAME='SALES', AGE=51, DIV-NAME='MACHINERY').
"""


def count_parses(monkeypatch):
    """Record every text a served job parses: through
    ``repro.service.jobs`` (admission, restore) and ``repro.api``
    (the loader, when a cascade is built)."""
    parsed = []
    original = jobs_mod.parse_program

    def counting(text):
        parsed.append(text)
        return original(text)

    monkeypatch.setattr(jobs_mod, "parse_program", counting)
    monkeypatch.setattr(api, "parse_program", counting)
    return parsed


def test_a_served_job_parses_each_program_once(tmp_path, monkeypatch):
    """Admission parses the N programs and the loader, the executor
    converts those ASTs, and the finished job keeps neither them nor
    the texts.  The loader is parsed once more only when the cascade
    is built, not when a later job reuses it.  The submission is
    spooled once, beside a manifest that holds only state."""
    parsed = count_parses(monkeypatch)
    manager = JobManager(tmp_path / "spool")
    try:
        job = manager.submit(submission(4, data=LOADER))
        assert wait_terminal(job) == jobs_mod.STATE_COMPLETED
        assert parsed == corpus(4) + [LOADER, LOADER]
        assert (job.submission, job.programs) == (None, None)
        del parsed[:]
        again = manager.submit(submission(4, data=LOADER))
        assert wait_terminal(again) == jobs_mod.STATE_COMPLETED
        assert parsed == corpus(4) + [LOADER]
    finally:
        manager.stop()
    manifest = json.loads(job.manifest_path.read_text())
    assert manifest["version"] == jobs_mod.MANIFEST_VERSION
    assert "submission" not in manifest
    spooled = json.loads(job.submission_path.read_text())
    assert spooled["programs"] == corpus(4)
    assert spooled["data"] == LOADER


def test_a_restored_job_parses_its_programs_from_the_spool(tmp_path,
                                                           monkeypatch):
    """A job parked by a stopped server is restored without its
    submission in memory; resuming it parses the N programs from
    ``submission.json`` and converts them to the shell run's bytes."""
    gate = threading.Event()
    entered = threading.Event()

    def block(job, report):
        entered.set()
        gate.wait(timeout=30.0)

    monkeypatch.setattr(jobs_mod, "_after_program", block)
    spool = tmp_path / "spool"
    first = JobManager(spool)
    first.submit(submission(2))
    assert entered.wait(timeout=30.0)
    parked = first.submit(submission())
    stopper = threading.Thread(target=first.stop)
    stopper.start()
    time.sleep(0.2)
    gate.set()
    stopper.join(timeout=60.0)
    assert not stopper.is_alive()
    assert parked.state == jobs_mod.STATE_INTERRUPTED

    monkeypatch.setattr(jobs_mod, "_after_program", lambda j, r: None)
    parsed = count_parses(monkeypatch)
    second = JobManager(spool)
    try:
        job = second.jobs[parked.id]
        assert (job.submission, job.programs) == (None, None)
        second.resume_job(job.id)
        assert wait_terminal(job) == jobs_mod.STATE_COMPLETED
        assert parsed == corpus()
        assert (job.submission, job.programs) == (None, None)
        report_bytes, checkpoint_bytes = cli_reference_run(tmp_path)
        assert job.report_bytes() == report_bytes
        assert job.checkpoint_path.read_bytes() == checkpoint_bytes
    finally:
        second.stop()


def test_a_waiting_job_holds_its_programs_and_no_texts(tmp_path,
                                                       monkeypatch):
    """Once ``submission.json`` is written, a job keeps its parsed
    programs and not their texts, also when it reads the submission
    back from the spool; it still converts to the shell run's bytes."""
    gate = threading.Event()
    entered = threading.Event()

    def block(job, report):
        entered.set()
        gate.wait(timeout=30.0)

    monkeypatch.setattr(jobs_mod, "_after_program", block)
    manager = JobManager(tmp_path / "spool")
    try:
        manager.submit(submission(2))
        assert entered.wait(timeout=30.0)
        waiting = manager.submit(submission())
        assert waiting.state == jobs_mod.STATE_QUEUED
        assert waiting.programs == [parse_program(text) for text in corpus()]
        assert "programs" not in waiting.submission
        spooled_texts = json.loads(waiting.submission_path.read_text())
        assert spooled_texts["programs"] == corpus()
        gate.set()
        assert wait_terminal(waiting) == jobs_mod.STATE_COMPLETED
    finally:
        gate.set()
        manager.stop()
    report_bytes, checkpoint_bytes = cli_reference_run(tmp_path)
    assert waiting.report_bytes() == report_bytes
    assert waiting.checkpoint_path.read_bytes() == checkpoint_bytes

    reloaded = jobs_mod.Job(waiting.id, waiting.dir, waiting.total)
    reloaded.load_submission()
    assert reloaded.programs == [parse_program(text) for text in corpus()]
    assert "programs" not in reloaded.submission


def test_each_transition_writes_its_manifest_once(tmp_path, monkeypatch):
    """Every manifest write of a transition is made by ``set_state``,
    once: a completed, a parked and a resumed job."""
    blocking = threading.Event()
    gate = threading.Event()
    entered = threading.Event()

    def block(job, report):
        if blocking.is_set():
            entered.set()
            gate.wait(timeout=30.0)

    monkeypatch.setattr(jobs_mod, "_after_program", block)
    writes = spy_persist(monkeypatch)
    spool = tmp_path / "spool"
    first = JobManager(spool)
    completed = first.submit(submission(2))
    assert wait_terminal(completed) == jobs_mod.STATE_COMPLETED
    blocking.set()
    stopped = first.submit(submission(2))
    assert entered.wait(timeout=30.0)
    parked = first.submit(submission(2))
    stopper = threading.Thread(target=first.stop)
    stopper.start()
    time.sleep(0.2)
    gate.set()
    stopper.join(timeout=60.0)
    assert not stopper.is_alive()

    blocking.clear()
    second = JobManager(spool)
    try:
        resumed = second.resume_job(parked.id)
        assert wait_terminal(resumed) == jobs_mod.STATE_COMPLETED
    finally:
        second.stop()

    def states(job):
        return [state for job_id, state, _caller in writes
                if job_id == job.id]

    run = ["queued", "running"]
    assert states(completed) == run + ["completed"]
    assert states(stopped) == run + ["interrupted"]
    assert states(parked) == ["queued", "interrupted"] + run + ["completed"]
    assert {caller for _id, _state, caller in writes} == {"set_state"}


def test_a_job_stranded_by_a_dead_server_restores_with_its_phase(
        tmp_path, monkeypatch):
    """A server that dies mid-batch leaves a ``running`` manifest (with
    ``done`` 0: progress is not persisted) and a ``queued`` one; the
    restore names each phase and writes each manifest itself, with no
    event beyond the replayed one."""
    gate = threading.Event()
    entered = threading.Event()

    def block(job, report):
        entered.set()
        gate.wait(timeout=30.0)

    monkeypatch.setattr(jobs_mod, "_after_program", block)
    manager = JobManager(tmp_path / "spool")
    try:
        running = manager.submit(submission(2))
        assert entered.wait(timeout=30.0)
        queued = manager.submit(submission(2))
        # The spool as a killed server would leave it.
        shutil.copytree(tmp_path / "spool", tmp_path / "crashed")
    finally:
        gate.set()
        manager.stop()

    monkeypatch.setattr(jobs_mod, "_after_program", lambda j, r: None)
    writes = spy_persist(monkeypatch)
    restored = JobManager(tmp_path / "crashed")
    restored.stop()
    for job, phase in ((running, "running"), (queued, "queued")):
        again = restored.jobs[job.id]
        assert again.state == jobs_mod.STATE_INTERRUPTED
        assert again.error.startswith(
            f"server stopped while the job was {phase};")
        manifest = json.loads(again.manifest_path.read_text())
        assert (manifest["state"], manifest["error"]) == \
            (again.state, again.error)
        assert [name for _, name, _ in again.events] == ["job"]
    assert sorted(writes) == sorted(
        (job.id, jobs_mod.STATE_INTERRUPTED, "_restore_spool")
        for job in (running, queued))


def test_a_restart_narrates_completed_jobs_without_parsing(tmp_path,
                                                           monkeypatch):
    """A restarted server replays a completed job from its folded
    checkpoint's summaries, parsing no program: its ``program`` events
    as the job streamed them, then its final ``job`` event.  A job
    whose checkpoint cannot be read replays that ``job`` event alone."""
    spool = tmp_path / "spool"
    first = JobManager(spool)
    try:
        served = [first.submit(payload) for payload in (
            e2_submission(8, {"jobs": 1}),
            e2_submission(4, {"program_timeout": 1e-6}),
            submission(2))]
        for job in served:
            assert wait_terminal(job) == jobs_mod.STATE_COMPLETED
    finally:
        first.stop()
    served[2].checkpoint_path.write_text("{")

    parsed = []
    original = report_mod.parse_program

    def counting(text):
        parsed.append(text)
        return original(text)

    monkeypatch.setattr(report_mod, "parse_program", counting)
    restored = JobManager(spool)
    restored.stop()
    assert parsed == []
    for job in served:
        live = [(name, data) for _, name, data in job.events]
        expected = [event for event in live if event[0] == "program"]
        if job is served[2]:
            expected = []
        expected.append(live[-1])
        replay = restored.jobs[job.id].events
        assert [(name, data) for _, name, data in replay] == expected
        assert [seq for seq, _, _ in replay] == list(range(len(replay)))
    failures = [data.get("failure") for _, name, data in
                restored.jobs[served[1].id].events if name == "program"]
    assert len(failures) == 4 and all(failures)


def test_stop_parks_queued_jobs_resumably(tmp_path, monkeypatch):
    gate = threading.Event()
    entered = threading.Event()

    def block(job, report):
        entered.set()
        gate.wait(timeout=30.0)

    monkeypatch.setattr(jobs_mod, "_after_program", block)
    manager = JobManager(tmp_path / "spool", queue_limit=4)
    running = manager.submit(submission(2))
    assert entered.wait(timeout=30.0)
    queued = manager.submit(submission(2))

    stopper = threading.Thread(target=manager.stop)
    stopper.start()
    time.sleep(0.2)
    gate.set()
    stopper.join(timeout=60.0)
    assert not stopper.is_alive()

    assert running.state == jobs_mod.STATE_INTERRUPTED
    assert queued.state == jobs_mod.STATE_INTERRUPTED
    assert "resume" in (queued.error or "")
