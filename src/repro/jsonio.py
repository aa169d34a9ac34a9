"""Atomic, durable JSON document IO, and append-only JSON-lines logs.

Every machine-readable artifact the framework writes -- benchmark
reports, batch checkpoints, trace files -- goes through one helper that
creates parent directories and writes atomically (temp file in the same
directory, then ``os.replace``), so a killed run never leaves a
half-written document where a previous good one stood.

Atomicity alone is not durability: after the rename, the *directory
entry* pointing at the new file may still live only in the page cache,
and a crash can resurrect the old file -- or, when a batch compacts its
journal logs into the checkpoint, lose the checkpoint while the logs
have already been unlinked.  So the writer also fsyncs the temp file
before the rename and the containing directory after it.

A batch journals while it runs through :func:`append_json_lines`
instead: one compact JSON document per line, appended and fsynced, so
the bytes a batch writes grow with its length rather than its square.
A crash mid-append can leave at most one torn, unterminated final
line, and :func:`read_json_lines` drops exactly that line.

``fsync_dir`` and the writers are module-level seams on purpose: the
fault-injection harness arms them (``inject(jsonio, "fsync_dir")``,
or a writer where a caller looks it up) to simulate a crash inside
exactly those windows.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any


def fsync_dir(path: Path) -> None:
    """Flush a directory entry to stable storage (POSIX).

    Platforms without directory fds (or filesystems refusing the open)
    degrade to atomic-but-not-durable, matching the pre-fix behaviour.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def render_json(data: Any, indent: int = 2) -> str:
    """The exact text :func:`write_json_atomic` writes for ``data``."""
    return json.dumps(data, indent=indent) + "\n"


def write_json_atomic(data: Any, out_path: "str | Path", indent: int = 2) -> Path:
    """Serialize ``data`` to ``out_path`` atomically and durably.

    The temp file lives next to the target (same filesystem, so the
    rename is atomic) and is named after it, matching the batch
    checkpoint journal's convention.  The temp file is fsynced before
    the rename and the containing directory after it, so a crash at
    any instant leaves either the previous document or the new one --
    never a mix, and never a directory entry that a power loss rolls
    back.
    """
    path = Path(out_path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    payload = render_json(data, indent)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    os.replace(tmp, path)
    fsync_dir(path.parent)
    return path


def append_json_lines(
    records: list[Any], out_path: "str | Path", header: Any = None
) -> Path:
    """Append ``records`` to ``out_path``, one compact JSON document per
    line, and fsync the file once before returning.

    When the file is new (or empty), ``header`` goes first and the
    containing directory is fsynced too, so the log's directory entry
    is as durable as its contents; every later append costs one file
    fsync.  Appending several records in one call is a group commit.
    """
    path = Path(out_path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    with os.fdopen(fd, "wb") as handle:
        fresh = os.fstat(fd).st_size == 0
        if fresh and header is not None:
            records = [header, *records]
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")).encode() + b"\n")
        handle.flush()
        os.fsync(fd)
    if fresh:
        fsync_dir(path.parent)
    return path


def read_json_lines(path: "str | Path") -> list[Any]:
    """The documents of a log written by :func:`append_json_lines`.

    Every complete line ends in a newline, so an unterminated final
    line is the torn tail of an interrupted append: it is dropped, and
    only it.  Any other line that is not JSON raises ``ValueError``
    naming its line number.
    """
    lines = Path(path).read_bytes().split(b"\n")
    lines.pop()
    records = []
    for number, line in enumerate(lines, start=1):
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            raise ValueError(f"line {number} is not JSON: {exc}") from None
    return records


def remove_durable(path: "str | Path") -> None:
    """Unlink ``path`` and fsync its directory entry away.

    The durability twin of :func:`write_json_atomic`: an unlink that
    only reaches the page cache can be rolled back by a power loss,
    resurrecting a file the caller already acted on.  The batch layer
    removes its journal logs through this helper so a crash after a
    compaction cannot bring back stale logs that a later resume would
    fold over fresher checkpoint state.  Missing files are tolerated
    (the caller's intent -- the file being gone -- already holds).
    """
    target = Path(path)
    try:
        target.unlink()
    except FileNotFoundError:
        return
    fsync_dir(target.parent)
