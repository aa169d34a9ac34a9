"""Tests for the conversion service: progress callbacks, the span
stream, the SSE wire format, the job manager, the HTTP surface, and
the graceful-shutdown / resume byte-identity contract."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.cli import main
from repro.observe.stream import StreamingTracer, span_event
from repro.options import ConversionOptions
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


# -- the span stream ---------------------------------------------------


def test_streaming_tracer_reports_closed_spans():
    seen = []
    tracer = StreamingTracer(seen.append, prefixes=("batch.",))
    with tracer:
        with tracer.span("batch.program", program="P1"):
            with tracer.span("other.inner"):
                pass
    assert [span.name for span in seen] == ["batch.program"]
    span = seen[0]
    assert span.end is not None
    event = span_event(span)
    assert event["name"] == "batch.program"
    assert event["program"] == "P1"
    assert event["seconds"] >= 0


def test_streaming_tracer_reports_spans_closed_by_exception():
    seen = []
    tracer = StreamingTracer(seen.append)
    with pytest.raises(RuntimeError):
        with tracer, tracer.span("batch.program"):
            raise RuntimeError("boom")
    assert [span.name for span in seen] == ["batch.program"]
    assert seen[0].end is not None


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


# -- submission validation --------------------------------------------


@pytest.mark.parametrize("mutate, message", [
    (lambda p: p.pop("ddl"), "'ddl'"),
    (lambda p: p.update(programs=[]), "'programs'"),
    (lambda p: p.update(programs=["PROGRAM"]), "unparseable"),
    (lambda p: p.update(ddl="SCHEMA NAME COMPANY."), "unparseable"),
    (lambda p: p.update(options={"bogus": 1}), "unknown option"),
    (lambda p: p.update(options={"jobs": "two"}), "'jobs'"),
    (lambda p: p.update(options={"strategy_order": "random"}),
     "strategy_order"),
    (lambda p: p.update(programs=corpus(2) + [corpus(2)[0]]),
     "duplicate"),
])
def test_validate_submission_rejects(mutate, message):
    payload = submission()
    mutate(payload)
    with pytest.raises(SubmissionError, match=message):
        validate_submission(payload)


def test_validate_submission_normalizes():
    normalized = validate_submission(submission(2, inputs=["STORE"]))
    assert normalized["program_names"] == ["REPORT0", "REPORT1"]
    assert normalized["inputs"] == ["STORE"]


def test_pool_key_ignores_service_side_fields():
    a, b = submission(2), submission(5)
    assert pool_key(a) == pool_key(b)  # program list is not in the seed
    assert pool_key(a) != pool_key(
        submission(2, options={"strategy_order": "fixed"}))


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
        assert job.report_path.read_bytes() == report_bytes
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
    from repro.programs.ast import render_program
    from repro.workloads.corpus import CorpusSpec, generate_corpus

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

    # At least one event per program, and a terminal job event.
    programs = [data["program"] for name, data in events
                if name == "program"]
    assert programs == ["REPORT0", "REPORT1", "REPORT2"]
    assert events[-1][0] == "job"
    assert events[-1][1]["state"] == "completed"
    assert any(name == "span" for name, _ in events)

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

        _, final = get_json(restarted, f"/jobs/{job['id']}")
        assert final["state"] == "completed"
        report_bytes, checkpoint_bytes = cli_reference_run(tmp_path)
        assert get_bytes(restarted,
                         final["links"]["report"]) == report_bytes
        assert get_bytes(restarted,
                         final["links"]["checkpoint"]) == checkpoint_bytes
    finally:
        restarted.stop()


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
