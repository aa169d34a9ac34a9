"""The conversion service's HTTP front end.

Pure standard library: a :class:`http.server.ThreadingHTTPServer`
whose handler threads are all daemons, fronting one
:class:`~repro.service.jobs.JobManager`.  The surface is small and
JSON-only:

========  =======================  =======================================
method    path                     meaning
========  =======================  =======================================
POST      ``/jobs``                submit a batch (``202``), resume an
                                   interrupted one (``{"resume": id}``),
                                   ``400`` malformed, ``409`` not
                                   resumable, ``503`` queue full
GET       ``/jobs``                every job's snapshot
GET       ``/jobs/<id>``           one job's snapshot
GET       ``/jobs/<id>/events``    the job's server-sent-event stream:
                                   replay from ``Last-Event-ID`` (or 0),
                                   then live until the job is terminal
GET       ``/jobs/<id>/report``    a completed job's reports, rendered
                                   from its folded checkpoint --
                                   byte-identical to ``repro convert
                                   --report-json``
GET       ``/jobs/<id>/checkpoint``  the batch journal (resumable),
                                   folded from its logs while the job
                                   runs
GET       ``/healthz``             liveness + queue stats
========  =======================  =======================================

:class:`ConversionService` owns the manager/server pair for embedding
(the tests run it in-process on port 0); :func:`serve` is the blocking
entry point behind ``repro serve``, wiring SIGTERM/SIGINT to the
graceful drain: the running job is interrupted at its next program
boundary with a resumable checkpoint on disk, and the process exits 0.
"""

from __future__ import annotations

import json
import logging
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro import __version__
from repro.batch import CheckpointError
from repro.service.jobs import (
    JobManager,
    QueueFullError,
    SubmissionError,
)
from repro.service.sse import format_event

log = logging.getLogger(__name__)

#: ``repro serve`` exit codes (also in the CLI epilog and README).
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STARTUP = 4


class ServiceHandler(BaseHTTPRequestHandler):
    """One HTTP exchange against the job manager."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        log.debug("service: %s " + format, self.address_string(), *args)

    # -- response helpers ----------------------------------------------

    def _send_json(
        self,
        code: int,
        payload: Any,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        body = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self,
        code: int,
        message: str,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self._send_json(code, {"error": message}, headers=headers)

    def _send_bytes(self, body: bytes | None, missing: str) -> None:
        """A JSON artifact's bytes as they are, or ``404`` with
        ``missing`` when there is none yet."""
        if body is None:
            self._send_error_json(404, missing)
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parts = [p for p in self.path.split("?", 1)[0].split("/") if p]
        if parts == ["healthz"]:
            self._send_json(
                200,
                {
                    "status": "ok",
                    "version": __version__,
                    **self.manager.stats(),
                },
            )
            return
        if parts == ["jobs"]:
            self._send_json(200, {"jobs": self.manager.list_jobs()})
            return
        if len(parts) in (2, 3) and parts[0] == "jobs":
            job = self.manager.jobs.get(parts[1])
            if job is None:
                self._send_error_json(404, f"no such job: {parts[1]}")
                return
            tail = parts[2] if len(parts) == 3 else None
            if tail is None:
                self._send_json(200, job.snapshot())
            elif tail == "events":
                self._stream_events(job)
            elif tail in ("report", "checkpoint"):
                missing = f"job {job.id} has no {tail} yet (state: {job.state})"
                render = job.report_bytes if tail == "report" else job.checkpoint_bytes
                try:
                    body = render()
                except CheckpointError as exc:
                    self._send_error_json(500, str(exc))
                    return
                self._send_bytes(body, missing)
            else:
                self._send_error_json(404, f"unknown resource: {self.path}")
            return
        self._send_error_json(404, f"unknown resource: {self.path}")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        parts = [p for p in self.path.split("?", 1)[0].split("/") if p]
        if parts != ["jobs"]:
            self._send_error_json(404, f"unknown resource: {self.path}")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._send_error_json(400, "bad Content-Length")
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"null")
        except ValueError:
            self._send_error_json(400, "request body is not valid JSON")
            return
        resuming = isinstance(payload, dict) and "resume" in payload
        try:
            if resuming:
                job_id = payload["resume"]
                if not isinstance(job_id, str):
                    raise SubmissionError("'resume' must be a job id")
                try:
                    job = self.manager.resume_job(job_id)
                except KeyError:
                    self._send_error_json(404, f"no such job: {job_id}")
                    return
            else:
                job = self.manager.submit(payload)
        except QueueFullError as exc:
            self._send_error_json(503, str(exc), headers=(("Retry-After", "1"),))
            return
        except SubmissionError as exc:
            self._send_error_json(409 if resuming else 400, str(exc))
            return
        self._send_json(
            202,
            job.snapshot(),
            headers=(("Location", f"/jobs/{job.id}"),),
        )

    # -- SSE -----------------------------------------------------------

    def _stream_events(self, job: Any) -> None:
        """Replay buffered events, then follow live ones until the job
        is terminal or the service is stopping.  ``Connection: close``
        delimits the stream -- no chunked framing needed, and clients
        resume with ``Last-Event-ID``."""
        start = 0
        last_seen = self.headers.get("Last-Event-ID")
        if last_seen is not None:
            try:
                start = int(last_seen) + 1
            except ValueError:
                start = 0
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        stopping = self.manager.stopping
        try:
            for seq, event, data in job.follow(start=start, stop=stopping):
                self.wfile.write(format_event(event, data, event_id=seq))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up


class ConversionService:
    """The embeddable manager/server pair.

    ``port=0`` binds an ephemeral port (``service.address`` has the
    real one), which is how the tests and the CI smoke run it without
    port collisions.  :meth:`stop` is the full graceful drain --
    interrupt the running job at a program boundary, park the queue,
    close the warm pool, end every SSE stream, close the listener.
    """

    def __init__(
        self,
        spool: "str | Path",
        host: str = "127.0.0.1",
        port: int = 8979,
        queue_limit: int = 16,
    ):
        self.manager = JobManager(spool, queue_limit=queue_limit)
        self.httpd = ThreadingHTTPServer((host, port), ServiceHandler)
        self.httpd.daemon_threads = True
        self.httpd.manager = self.manager  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> "ConversionService":
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 60.0) -> None:
        self.manager.stop(timeout=timeout)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def serve(
    spool: "str | Path",
    host: str = "127.0.0.1",
    port: int = 8979,
    queue_limit: int = 16,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    Returns the process exit code: 0 after a clean drain (any
    interrupted job left a resumable checkpoint), 4 when the spool or
    listener could not be set up.
    """
    try:
        service = ConversionService(
            spool,
            host=host,
            port=port,
            queue_limit=queue_limit,
        )
    except OSError as exc:
        print(f"repro serve: cannot start: {exc}", file=sys.stderr)
        return EXIT_STARTUP
    service.start()
    bound_host, bound_port = service.address
    url = f"http://{bound_host}:{bound_port}"
    print(
        f"repro serve: listening on {url} (spool: {spool})",
        file=sys.stderr,
        flush=True,
    )

    stop = threading.Event()

    def _request_stop(signum: int, frame: Any) -> None:
        stop.set()

    previous: dict[int, Any] = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _request_stop)
    try:
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        drain = "repro serve: draining (in-flight job checkpoints, then exit) ..."
        print(drain, file=sys.stderr, flush=True)
        service.stop()
        print("repro serve: drained; shut down cleanly", file=sys.stderr, flush=True)
    return EXIT_OK


__all__ = [
    "ConversionService",
    "EXIT_OK",
    "EXIT_STARTUP",
    "EXIT_USAGE",
    "ServiceHandler",
    "serve",
]
