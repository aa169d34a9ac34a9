"""The append-only checkpoint journal (repro.batch + repro.jsonio).

A batch appends one JSON line per settled program to a log and folds
the log into the canonical checkpoint document once.  Under test: a
torn tail is dropped and nothing else is; anything else malformed is
refused by name; a fault at any write boundary, in the serial engine
or the parallel coordinator, resumes to the bytes of an uninterrupted
serial run; a fresh run replaces another batch's journal; a reader can
fold a running journal while it is compacted; and the bytes the journal
writes grow linearly with the batch.
"""

import json
from pathlib import Path

import pytest

import repro.batch
import repro.jsonio
from repro.batch import BatchCheckpoint, CheckpointError, run_batch
from repro.faultinject import (
    KIND_KILL_WORKER,
    FaultPlan,
    InjectedFault,
    PlannedFault,
    inject,
)
from repro.jsonio import append_json_lines, read_json_lines, write_json_atomic
from repro.parallel import ParallelExecutor, WorkerPool, run_parallel_batch

from .test_parallel import OPTIONS, corpus_programs, fresh_cascade


def names_of(programs):
    return [program.name for program in programs]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """An uninterrupted serial run of the six-program corpus: its
    programs, report summaries and checkpoint bytes."""
    programs = corpus_programs(0.25)
    path = tmp_path_factory.mktemp("reference") / "batch.json"
    batch = run_batch(fresh_cascade(), programs,
                      OPTIONS.replace(checkpoint=path))
    return programs, [r.to_summary() for r in batch.reports], \
        path.read_bytes()


class TestLogFormat:
    def test_header_then_one_compact_line_per_summary(self, tmp_path,
                                                      reference):
        programs, summaries, _ = reference
        journal = BatchCheckpoint(tmp_path / "c.json")
        journal.write(names_of(programs), summaries[:2])
        journal.write(names_of(programs), summaries[2:3])
        lines = journal.log_path.read_text().splitlines()
        assert journal.log_path.name == "c.json.log"
        assert json.loads(lines[0]) == {"version": 1,
                                        "programs": names_of(programs)}
        assert lines[1:] == [json.dumps(s, separators=(",", ":"))
                             for s in summaries[:3]]

    def test_append_fsyncs_the_file_each_call_the_directory_once(
            self, tmp_path, monkeypatch):
        synced_dirs = []
        monkeypatch.setattr(repro.jsonio, "fsync_dir",
                            lambda path: synced_dirs.append(path))
        log = tmp_path / "l.log"
        for index in range(3):
            append_json_lines([{"n": index}], log, header={"h": 1})
        assert synced_dirs == [tmp_path]
        assert read_json_lines(log) == [{"h": 1}, {"n": 0}, {"n": 1},
                                        {"n": 2}]

    def test_fold_dedupes_by_name_in_program_order(self, tmp_path,
                                                   reference):
        programs, summaries, expected = reference
        names = names_of(programs)
        journal = BatchCheckpoint(tmp_path / "batch.json")
        journal.shard(1).write(names, summaries[3:][::-1])
        journal.shard(0).write(names, summaries[:4])
        journal.write(names, summaries[1:2])
        journal.merge_shards(names)
        assert journal.path.read_bytes() == expected
        assert not journal.log_paths()


class TestTornAndMalformedLogs:
    @pytest.mark.parametrize("shard", [False, True])
    def test_truncation_at_every_offset_recovers_complete_lines(
            self, tmp_path, reference, shard):
        """A kill mid-append tears at most the final line: at every
        byte offset, recover returns exactly the summaries whose lines
        are complete, and never raises."""
        programs, summaries, _ = reference
        names = names_of(programs)
        # Short summaries keep the offset sweep small; two appends so
        # the log holds lines from more than one write.
        small = [{"program": s["program"], "status": s["status"]}
                 for s in summaries[:3]]
        full = tmp_path / "full.json"
        writer = BatchCheckpoint(full)
        writer = writer.shard(0) if shard else writer
        writer.write(names, small[:2])
        writer.write(names, small[2:])
        data = writer.log_path.read_bytes()

        for offset in range(len(data) + 1):
            path = tmp_path / f"cut{offset}" / "batch.json"
            journal = BatchCheckpoint(path)
            log = journal.shard_path(0) if shard else journal.log_path
            log.parent.mkdir()
            log.write_bytes(data[:offset])
            recovered = journal.recover(names)
            # Complete lines end in a newline; the first is the header.
            kept = small[:max(data[:offset].count(b"\n") - 1, 0)]
            assert {name: report.status
                    for name, report in recovered.items()} == \
                {s["program"]: s["status"] for s in kept}, offset
            assert not journal.log_paths()

    def test_malformed_middle_line_is_refused_by_name(self, tmp_path,
                                                      reference):
        programs, summaries, _ = reference
        names = names_of(programs)
        journal = BatchCheckpoint(tmp_path / "batch.json")
        journal.write(names, summaries[:1])
        with journal.log_path.open("a") as handle:
            handle.write("{not json\n")
        journal.write(names, summaries[1:2])
        with pytest.raises(CheckpointError, match="batch.json.log"):
            journal.recover(names)
        assert journal.log_paths(), "a refused log must not be removed"

    def test_record_that_is_not_a_summary_is_refused(self, tmp_path):
        journal = BatchCheckpoint(tmp_path / "batch.json")
        journal.write(["P"], [[1, 2]])
        with pytest.raises(CheckpointError, match="line 2"):
            journal.recover(["P"])

    def test_pre_change_cumulative_shard_is_refused_by_name(self, tmp_path,
                                                            reference):
        """A shard left by the cumulative-rewrite journal is one
        indented JSON document: its first line is not a header."""
        programs, summaries, _ = reference
        names = names_of(programs)
        journal = BatchCheckpoint(tmp_path / "batch.json")
        write_json_atomic({"version": 1, "programs": names,
                           "completed": summaries[:2]},
                          journal.shard_path(0))
        with pytest.raises(CheckpointError, match=r"batch\.json\.shard0"):
            journal.recover(names)

    def test_log_for_other_programs_is_refused(self, tmp_path):
        journal = BatchCheckpoint(tmp_path / "batch.json")
        journal.shard(3).write(["OTHER"], [])
        with pytest.raises(CheckpointError, match="written for programs"):
            journal.recover(["P"])


# -- faults at every write boundary ------------------------------------

#: Write boundaries of a fresh (non-resume) serial batch, armed where
#: each is looked up, with how often a clean six-program run crosses
#: them: the log's creation and its appends; the fold's document write,
#: the directory fsyncs of log creation, fold and log removal; and the
#: durable removals (the start-of-run clear, then the log).
SERIAL_BOUNDARIES = [
    (repro.batch, "append_json_lines", 3),
    (repro.batch, "write_json_atomic", 1),
    (repro.jsonio, "fsync_dir", 3),
    (repro.batch, "remove_durable", 2),
]

#: The coordinator's boundaries in a fault-free two-worker batch: the
#: clear, the fold's document write, and its directory fsyncs and
#: removals for the two shards.
COORDINATOR_BOUNDARIES = [
    (repro.batch, "write_json_atomic", 1),
    (repro.jsonio, "fsync_dir", 3),
    (repro.batch, "remove_durable", 3),
]


def sweep(boundaries):
    return [
        pytest.param(module, name, nth, id=f"{name}#{nth}")
        for module, name, calls in boundaries
        for nth in range(1, min(calls, 3) + 1)
    ]


def converted(names):
    """A progress callback collecting the programs converted (not
    recovered) in a run.  Progress fires only once a program is
    durable, so a program reported before a fault must not convert
    again on resume."""
    def progress(report, done, total, resumed):
        if not resumed:
            names.append(report.program_name)
    return progress


@pytest.mark.parametrize("module, name, nth", sweep(SERIAL_BOUNDARIES))
def test_serial_fault_at_each_write_boundary_resumes_identically(
        tmp_path, reference, module, name, nth):
    programs, _, expected = reference
    path = tmp_path / "batch.json"
    before, after = [], []
    with inject(module, name, nth=nth) as point:
        with pytest.raises(InjectedFault):
            run_batch(fresh_cascade(), programs,
                      OPTIONS.replace(checkpoint=path), converted(before))
    assert point.fired
    run_batch(fresh_cascade(), programs,
              OPTIONS.replace(checkpoint=path, resume=True),
              converted(after))
    assert path.read_bytes() == expected
    assert not BatchCheckpoint(path).log_paths()
    assert not set(before) & set(after), "journaled progress was lost"


def test_coordinator_fault_at_each_write_boundary_resumes_identically(
        tmp_path, reference):
    """Every coordinator boundary of a jobs=2 batch, on one warm pool:
    after each fault the resumed run's checkpoint is the serial one."""
    programs, _, expected = reference
    cascade = fresh_cascade()
    with WorkerPool(cascade, OPTIONS, jobs=2) as pool:
        for module, name, nth in [p.values for p in
                                  sweep(COORDINATOR_BOUNDARIES)]:
            path = tmp_path / f"{name}-{nth}" / "batch.json"
            path.parent.mkdir()
            options = OPTIONS.replace(checkpoint=path)
            before, after = [], []
            with inject(module, name, nth=nth) as point:
                with pytest.raises(InjectedFault):
                    ParallelExecutor(cascade, programs, options, pool=pool,
                                     progress=converted(before)).run()
            assert point.fired, (name, nth)
            ParallelExecutor(cascade, programs, options.replace(resume=True),
                             pool=pool, progress=converted(after)).run()
            assert path.read_bytes() == expected, (name, nth)
            assert not BatchCheckpoint(path).log_paths(), (name, nth)
            assert not set(before) & set(after), (name, nth)


def test_coordinator_fault_on_the_quarantine_append_resumes_identically(
        tmp_path):
    """The coordinator's one append: a quarantined program's record."""
    programs = corpus_programs(0.0)
    plan = FaultPlan((PlannedFault(
        target="source_db", method="calc_index", nth=1,
        program=programs[0].name, kind=KIND_KILL_WORKER),))
    options = OPTIONS.replace(fault_plan=plan)
    serial = tmp_path / "serial.json"
    run_batch(fresh_cascade(), programs, options.replace(checkpoint=serial))

    path = tmp_path / "batch.json"
    before, after = [], []
    with inject(repro.batch, "append_json_lines", nth=1) as point:
        with pytest.raises(InjectedFault):
            run_parallel_batch(fresh_cascade(), programs,
                               options.replace(jobs=2, checkpoint=path),
                               progress=converted(before))
    assert point.fired
    run_parallel_batch(fresh_cascade(), programs,
                       options.replace(jobs=2, checkpoint=path,
                                       resume=True),
                       progress=converted(after))
    assert path.read_bytes() == serial.read_bytes()
    assert not set(before) & set(after)


# -- a fresh run over another batch's journal --------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_fresh_run_replaces_another_batchs_journal(tmp_path, jobs):
    """Without resume, a checkpoint path holding another batch's
    document, log and shards starts empty: the run neither refuses
    them after converting everything nor folds them in."""
    other = corpus_programs(0.0, seed=1979)
    programs = corpus_programs(0.0, seed=7)
    assert names_of(other) != names_of(programs)
    reference = tmp_path / "reference.json"
    run_batch(fresh_cascade(), programs,
              OPTIONS.replace(checkpoint=reference))

    path = tmp_path / "ck.json"
    batch = run_batch(fresh_cascade(), other,
                      OPTIONS.replace(checkpoint=path))
    stale = BatchCheckpoint(path)
    stale.write(names_of(other), [batch.reports[0].to_summary()])
    stale.shard(5).write(names_of(other), [batch.reports[1].to_summary()])

    run_parallel_batch(fresh_cascade(), programs,
                       OPTIONS.replace(jobs=jobs, parallel_threshold=1,
                                       checkpoint=path))
    assert path.read_bytes() == reference.read_bytes()
    assert not BatchCheckpoint(path).log_paths()


# -- reading a running journal -----------------------------------------


def test_render_is_the_fold_without_writing(tmp_path, reference):
    programs, summaries, _ = reference
    names = names_of(programs)
    journal = BatchCheckpoint(tmp_path / "batch.json")
    assert journal.render() is None
    journal.write(names, summaries[:2])
    journal.shard(0).write(names, summaries[2:4])
    served = journal.render()
    assert not journal.exists() and len(journal.log_paths()) == 2
    journal.merge_shards(names)
    assert served == journal.path.read_bytes()
    assert journal.render() == served


def test_render_survives_a_compaction_between_listing_and_reading(
        tmp_path, reference, monkeypatch):
    """The batch may fold and unlink a log after the reader listed it:
    the vanished log is in the document, which is read last."""
    programs, summaries, _ = reference
    names = names_of(programs)
    journal = BatchCheckpoint(tmp_path / "batch.json")
    journal.write(names, summaries[:2])
    journal.shard(0).write(names, summaries[2:3])
    real = repro.batch.read_json_lines

    def compact_first(path):
        monkeypatch.setattr(repro.batch, "read_json_lines", real)
        journal.merge_shards(names)
        return real(path)

    monkeypatch.setattr(repro.batch, "read_json_lines", compact_first)
    served = journal.render()
    assert not journal.log_paths()
    assert served == journal.path.read_bytes()


# -- growth ------------------------------------------------------------


def journal_bytes(tmp_path, monkeypatch, size):
    """Bytes a serial batch of ``size`` programs writes through the
    repro.jsonio helpers the batch layer calls: whole documents for
    atomic writes, the growth of the file for appends."""
    written = []

    def counting(helper, appends):
        def wrapper(data, out_path, *args, **kwargs):
            path = Path(out_path)
            before = path.stat().st_size \
                if appends and path.exists() else 0
            result = helper(data, out_path, *args, **kwargs)
            written.append(path.stat().st_size - before)
            return result
        return wrapper

    for name in ("write_json_atomic", "append_json_lines"):
        helper = getattr(repro.batch, name, None)
        if helper is not None:
            monkeypatch.setattr(repro.batch, name, counting(
                helper, appends=name == "append_json_lines"))
    programs = corpus_programs(0.0, size=size)
    run_batch(fresh_cascade(), programs,
              OPTIONS.replace(checkpoint=tmp_path / f"batch{size}.json"))
    monkeypatch.undo()
    return sum(written)


def test_journal_bytes_grow_linearly_with_the_batch(tmp_path, monkeypatch):
    """Four times the programs may cost at most five times the journal
    bytes; a journal that rewrites every earlier summary after each
    program writes about sixteen times as much."""
    small = journal_bytes(tmp_path, monkeypatch, 8)
    large = journal_bytes(tmp_path, monkeypatch, 32)
    assert small > 0
    assert large / small <= 5, (small, large)
