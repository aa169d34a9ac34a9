"""Parallel multi-worker batch conversion (repro.parallel).

The headline guarantee under test: a parallel batch is
*indistinguishable* from a serial one -- byte-identical report
summaries, byte-identical checkpoint journal, identical per-program
metrics -- at any worker count, any pathology rate, and any planned
fault pattern.  Plus the merge plumbing that makes the observability
story survive multi-process execution: worker registry deltas absorbed
into the coordinator registry, worker span forests mounted under
per-worker roots with the self-time reconciliation intact.
"""

import gc
import json
import logging
import multiprocessing
import pickle
import signal
import time

import pytest

import repro.batch
import repro.jsonio
from repro import api
from repro.batch import BatchCheckpoint, run_batch
from repro.faultinject import InjectedFault, inject, plan_faults
from repro.observe.merge import WORKER_ROOT
from repro.observe.registry import get_registry
from repro.observe.tracing import Tracer
from repro.options import ConversionOptions
from repro.parallel import (
    DRAIN_SECONDS,
    ParallelExecutor,
    WorkerPool,
    run_parallel_batch,
)
from repro.programs.interpreter import ProgramInputs
from repro.restructure import restructure_database
from repro.strategies.cascade import FallbackCascade
from repro.workloads import company
from repro.workloads.corpus import CorpusSpec, generate_corpus

CORPUS_SIZE = 6


def corpus_programs(pathology_rate=0.25, size=CORPUS_SIZE, seed=1979):
    items = generate_corpus(CorpusSpec(seed=seed, size=size,
                                       pathology_rate=pathology_rate))
    return [item.program for item in items]


def fresh_cascade(seed=1979):
    # Report metrics are registry-wide deltas and the registry holds
    # bundles weakly: if the cycle collector reaps an earlier test's
    # dead engines *during* a conversion window, the in-process run's
    # metrics shrink while a clean worker process's do not.  Collect
    # that garbage now so every run starts from a quiet registry.
    gc.collect()
    operator = company.figure_44_operator()
    source_db = company.company_db(seed=seed)
    _schema, target_db = restructure_database(source_db, operator)
    return FallbackCascade(source_db, target_db, operator)


# parallel_threshold=2: these corpora are deliberately tiny, and the
# default threshold would (correctly) route them in-process -- the
# auto-degrade behaviour has its own test class below.
OPTIONS = ConversionOptions(inputs=ProgramInputs(terminal=["STORE"]),
                            parallel_threshold=2)


def summaries(batch):
    return [report.to_summary() for report in batch.reports]


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("pathology_rate", [0.0, 0.25, 0.75])
    def test_reports_and_checkpoint_byte_identical(self, tmp_path,
                                                   pathology_rate):
        programs = corpus_programs(pathology_rate)
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"

        serial = run_batch(fresh_cascade(), programs,
                           OPTIONS.replace(checkpoint=serial_path))
        parallel = run_parallel_batch(
            fresh_cascade(), programs,
            OPTIONS.replace(jobs=2, checkpoint=parallel_path))

        assert summaries(parallel) == summaries(serial)
        assert parallel_path.read_bytes() == serial_path.read_bytes()
        assert [r.metrics for r in parallel.reports] == \
            [r.metrics for r in serial.reports]
        # The merge consumed every worker shard.
        assert not list(tmp_path.glob("*.shard*"))

    def test_escaped_fault_report_survives_the_workers(self):
        # A program whose *reference run* faults (an ACCEPT with no
        # terminal input feeds '' to a generic DML call) escapes the
        # cascade entirely; convert_one's belt-and-braces path records
        # the fault with metrics left as None.  Workers must
        # ship that report as-is -- dict(None) used to kill the worker.
        programs = corpus_programs(0.5, size=8, seed=1)
        options = ConversionOptions(inputs=ProgramInputs(terminal=[]),
                                    parallel_threshold=2)
        serial = run_batch(fresh_cascade(), programs, options)
        faulted = [r for r in serial.reports if r.fault is not None]
        assert faulted, "corpus must include a reference-run fault"
        assert all(r.metrics is None for r in faulted)

        parallel = run_parallel_batch(fresh_cascade(), programs,
                                      options.replace(jobs=2))
        assert summaries(parallel) == summaries(serial)
        assert [r.metrics for r in parallel.reports] == \
            [r.metrics for r in serial.reports]

    def test_fault_plan_fires_identically_at_any_jobs_count(self):
        programs = corpus_programs(0.0)
        plan = plan_faults(seed=7, program_names=[p.name for p in programs],
                           rate=0.75)
        assert plan, "seed 7 must plan at least one fault"
        options = OPTIONS.replace(fault_plan=plan)

        serial = run_batch(fresh_cascade(), programs, options)
        parallel = run_parallel_batch(fresh_cascade(), programs,
                                      options.replace(jobs=3))
        assert summaries(parallel) == summaries(serial)
        # The plan visibly changed outcomes vs a fault-free run.
        clean = run_batch(fresh_cascade(), programs, OPTIONS)
        assert summaries(serial) != summaries(clean)


def _no_pool(monkeypatch, reason):
    def boom(*args, **kwargs):
        raise AssertionError(reason)

    monkeypatch.setattr("repro.parallel.WorkerPool", boom)


class TestFastPathAndResume:
    def test_jobs_1_never_touches_the_pool(self, monkeypatch):
        _no_pool(monkeypatch, "jobs=1 must not create a worker pool")
        programs = corpus_programs(0.0, size=3)
        batch = run_parallel_batch(fresh_cascade(), programs,
                                   OPTIONS.replace(jobs=1))
        assert len(batch.reports) == len(programs)

    def test_single_pending_program_takes_fast_path(self, monkeypatch,
                                                    tmp_path):
        programs = corpus_programs(0.0, size=3)
        path = tmp_path / "batch.json"
        run_batch(fresh_cascade(), programs,
                  OPTIONS.replace(checkpoint=path))
        # Drop the last journal entry: one program is pending, so even
        # jobs=4 must run in-process.
        data = json.loads(path.read_text())
        data["completed"] = data["completed"][:-1]
        path.write_text(json.dumps(data))

        _no_pool(monkeypatch, "one pending program must not fork")
        batch = run_parallel_batch(
            fresh_cascade(), programs,
            OPTIONS.replace(jobs=4, checkpoint=path, resume=True))
        assert len(batch.reports) == len(programs)

    def test_resume_recovers_leftover_shards(self, tmp_path):
        """A parallel run killed before its merge leaves shards; the
        next run (serial or parallel) folds them in and completes."""
        programs = corpus_programs(0.0)
        names = [p.name for p in programs]
        reference_path = tmp_path / "reference.json"
        reference = run_batch(fresh_cascade(), programs,
                              OPTIONS.replace(checkpoint=reference_path))

        # Fabricate the crash state: shards journaled, no main file.
        crashed = tmp_path / "crashed.json"
        journal = BatchCheckpoint(crashed)
        journal.shard(0).write(
            names, [reference.reports[0].to_summary()])
        journal.shard(1).write(
            names, [reference.reports[1].to_summary()])

        resumed = run_parallel_batch(
            fresh_cascade(), programs,
            OPTIONS.replace(jobs=2, checkpoint=crashed, resume=True))
        assert summaries(resumed) == summaries(reference)
        assert crashed.read_bytes() == reference_path.read_bytes()
        assert not list(tmp_path.glob("*.shard*"))

    def test_crash_inside_merge_window_resumes_identically(self, tmp_path):
        """The merge writes the main checkpoint before unlinking the
        shards; a fault on the merge write leaves the shards intact,
        and the resumed run still converges to the serial bytes."""
        programs = corpus_programs(0.0)
        reference_path = tmp_path / "reference.json"
        run_batch(fresh_cascade(), programs,
                  OPTIONS.replace(checkpoint=reference_path))

        path = tmp_path / "batch.json"
        with inject(repro.batch, "write_json_atomic", nth=1):
            with pytest.raises(InjectedFault):
                run_parallel_batch(fresh_cascade(), programs,
                                   OPTIONS.replace(jobs=2,
                                                   checkpoint=path))
        shards = BatchCheckpoint(path).shard_paths()
        assert shards, "merge-window crash must leave the shards behind"

        resumed = run_parallel_batch(
            fresh_cascade(), programs,
            OPTIONS.replace(jobs=2, checkpoint=path, resume=True))
        assert len(resumed.reports) == len(programs)
        assert path.read_bytes() == reference_path.read_bytes()
        assert not BatchCheckpoint(path).shard_paths()


class TestAutoDegrade:
    def test_small_batch_never_spawns_a_pool_and_logs_why(
            self, monkeypatch, caplog):
        """Below the pending-corpus threshold, jobs>1 converts
        in-process -- a pool would cost seconds to save milliseconds."""
        _no_pool(monkeypatch, "sub-threshold batch must not spawn a pool")
        programs = corpus_programs(0.25)
        serial = run_batch(fresh_cascade(), programs, OPTIONS)
        with caplog.at_level(logging.INFO, logger="repro.parallel"):
            batch = run_parallel_batch(
                fresh_cascade(), programs,
                OPTIONS.replace(jobs=8, parallel_threshold=None))
        assert summaries(batch) == summaries(serial)
        assert any("below the pool threshold" in record.message
                   for record in caplog.records)

    def test_external_pool_skips_the_threshold_check(self):
        """A caller-owned warm pool has no spawn cost to amortize, so
        even a tiny batch uses it."""
        programs = corpus_programs(0.0)
        cascade = fresh_cascade()
        serial = run_batch(fresh_cascade(), programs, OPTIONS)
        with WorkerPool(cascade, OPTIONS, jobs=2) as pool:
            batch = ParallelExecutor(
                cascade, programs,
                OPTIONS.replace(parallel_threshold=None),
                pool=pool).run()
        assert summaries(batch) == summaries(serial)

    def test_threshold_resolution(self):
        assert ConversionOptions().resolved_parallel_threshold(2) == 32
        assert ConversionOptions().resolved_parallel_threshold(32) == 64
        options = ConversionOptions(parallel_threshold=5)
        assert options.resolved_parallel_threshold(8) == 5
        with pytest.raises(ValueError, match="parallel_threshold"):
            ConversionOptions(
                parallel_threshold=-1).resolved_parallel_threshold(2)

    def test_chunk_size_resolution(self):
        # Auto: ~8 chunks per worker, floor 1, ceiling MAX_AUTO_CHUNK.
        assert ConversionOptions().resolved_chunk_size(6, 2) == 1
        assert ConversionOptions().resolved_chunk_size(10_000, 4) == 64
        assert ConversionOptions().resolved_chunk_size(1_000, 4) == 32
        assert ConversionOptions(chunk_size=7).resolved_chunk_size(6, 2) == 7
        with pytest.raises(ValueError, match="chunk_size"):
            ConversionOptions(chunk_size=0).resolved_chunk_size(6, 2)


class TestWarmPool:
    def test_pool_reuse_across_batches_is_byte_identical(self, tmp_path):
        """The warmness contract: the same worker processes (same
        PIDs) serve consecutive batches, and savepoint discipline
        makes every batch byte-identical to a fresh serial run."""
        programs = corpus_programs(0.25)
        serial_path = tmp_path / "serial.json"
        serial = run_batch(fresh_cascade(), programs,
                           OPTIONS.replace(checkpoint=serial_path))

        cascade = fresh_cascade()
        with WorkerPool(cascade, OPTIONS, jobs=2) as pool:
            pids_before = pool.worker_pids()
            for round_index in range(2):
                path = tmp_path / f"round{round_index}.json"
                batch = ParallelExecutor(
                    cascade, programs,
                    OPTIONS.replace(checkpoint=path), pool=pool).run()
                assert summaries(batch) == summaries(serial)
                assert path.read_bytes() == serial_path.read_bytes()
            assert pool.worker_pids() == pids_before

    def test_chunk_size_does_not_change_the_bytes(self, tmp_path):
        programs = corpus_programs(0.75)
        serial_path = tmp_path / "serial.json"
        serial = run_batch(fresh_cascade(), programs,
                           OPTIONS.replace(checkpoint=serial_path))
        for chunk_size in (1, 2, 5):
            path = tmp_path / f"chunk{chunk_size}.json"
            batch = run_parallel_batch(
                fresh_cascade(), programs,
                OPTIONS.replace(jobs=2, chunk_size=chunk_size,
                                checkpoint=path))
            assert summaries(batch) == summaries(serial)
            assert path.read_bytes() == serial_path.read_bytes()

    def test_owned_pool_is_closed_after_the_run(self):
        programs = corpus_programs(0.0)
        run_parallel_batch(fresh_cascade(), programs,
                           OPTIONS.replace(jobs=2))
        assert not [proc for proc in multiprocessing.active_children()
                    if proc.name.startswith("repro-worker-")]


class TestGracefulInterrupt:
    def test_ctrl_c_mid_batch_leaves_a_resumable_checkpoint(self,
                                                            tmp_path):
        """A KeyboardInterrupt inside the pool window drains the
        workers (in-flight chunks finish and journal), folds every
        shard into the main checkpoint, re-raises, and leaves no
        orphaned processes; a resume run completes byte-identically."""
        programs = corpus_programs(0.25)
        reference_path = tmp_path / "reference.json"
        run_batch(fresh_cascade(), programs,
                  OPTIONS.replace(checkpoint=reference_path))

        path = tmp_path / "batch.json"
        executor = ParallelExecutor(
            fresh_cascade(), programs,
            OPTIONS.replace(jobs=2, chunk_size=1, checkpoint=path))
        # The second coordinator receive is mid-batch by construction:
        # chunks are still in flight on both workers.
        with inject(executor, "_receive", nth=2,
                    make_error=KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                executor.run()

        assert not [proc for proc in multiprocessing.active_children()
                    if proc.name.startswith("repro-worker-")]
        journal = BatchCheckpoint(path)
        assert journal.exists(), "drain must fold shards into the journal"
        assert not journal.shard_paths()
        drained = len(json.loads(path.read_text())["completed"])
        assert drained >= 1, "in-flight chunks must finish and journal"

        resumed = run_parallel_batch(
            fresh_cascade(), programs,
            OPTIONS.replace(jobs=2, checkpoint=path, resume=True))
        assert len(resumed.reports) == len(programs)
        assert path.read_bytes() == reference_path.read_bytes()

    def test_a_signal_while_dealing_waits_only_for_queued_chunks(
            self, tmp_path, monkeypatch):
        """A Ctrl-C that arrives after a chunk entered a worker's
        ledger but before it was queued is held until the chunks are
        queued, so the drain waits only for work the workers really
        have (not the drain deadline) and the warm pool survives."""
        programs = corpus_programs(0.0)
        cascade = fresh_cascade()
        dumps = pickle.dumps
        dealt = []

        def dumps_then_ctrl_c(obj, *args, **kwargs):
            dealt.append(obj)
            if len(dealt) == 3:  # the first chunk of the second worker
                signal.raise_signal(signal.SIGINT)
            return dumps(obj, *args, **kwargs)

        with WorkerPool(cascade, OPTIONS, jobs=2) as pool:
            path = tmp_path / "batch.json"
            executor = ParallelExecutor(
                cascade, programs,
                OPTIONS.replace(chunk_size=1, checkpoint=path), pool=pool)
            monkeypatch.setattr(pickle, "dumps", dumps_then_ctrl_c)
            started = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                executor.run()
            monkeypatch.undo()
            assert time.monotonic() - started < DRAIN_SECONDS / 3
            assert not pool.closed
            resumed = ParallelExecutor(
                cascade, programs,
                OPTIONS.replace(checkpoint=path, resume=True),
                pool=pool).run()
            assert len(resumed.reports) == len(programs)

    def test_interrupt_on_a_warm_pool_leaves_it_usable(self, tmp_path):
        """Draining an external pool must not kill it: the owner may
        want to resume on the same warm workers."""
        programs = corpus_programs(0.0)
        reference = run_batch(fresh_cascade(), programs, OPTIONS)

        cascade = fresh_cascade()
        with WorkerPool(cascade, OPTIONS, jobs=2) as pool:
            path = tmp_path / "batch.json"
            executor = ParallelExecutor(
                cascade, programs,
                OPTIONS.replace(chunk_size=1, checkpoint=path), pool=pool)
            with inject(executor, "_receive", nth=2,
                        make_error=KeyboardInterrupt):
                with pytest.raises(KeyboardInterrupt):
                    executor.run()
            resumed = ParallelExecutor(
                cascade, programs,
                OPTIONS.replace(checkpoint=path, resume=True),
                pool=pool).run()
            assert summaries(resumed) == summaries(reference)


class TestObservabilityMerge:
    def test_worker_spans_mount_under_per_worker_roots(self):
        programs = corpus_programs(0.0)
        tracer = Tracer()
        with tracer:
            run_parallel_batch(fresh_cascade(), programs,
                               OPTIONS.replace(jobs=2))
        worker_roots = [root for root in tracer.roots
                        if root.name == WORKER_ROOT]
        assert {root.attrs["worker"] for root in worker_roots} == {0, 1}
        converted = [node for root in worker_roots
                     for node in root.walk()
                     if node.name == "batch.program"]
        assert len(converted) == len(programs)

    def test_self_times_partition_each_worker_root_exactly(self):
        programs = corpus_programs(0.0)
        tracer = Tracer()
        with tracer:
            run_parallel_batch(fresh_cascade(), programs,
                               OPTIONS.replace(jobs=2))
        roots = [root for root in tracer.roots if root.name == WORKER_ROOT]
        assert roots
        for root in roots:
            total_self = sum(node.self_seconds() for node in root.walk())
            assert total_self == pytest.approx(root.duration, rel=1e-9)

    def test_worker_registry_deltas_absorbed(self):
        programs = corpus_programs(0.0)
        registry = get_registry()
        # The registry holds bundles weakly; collect earlier tests'
        # dead cascades now so the cycle collector cannot drop their
        # counts between the two snapshots below.
        gc.collect()
        before = registry.snapshot()
        executor = ParallelExecutor(fresh_cascade(), programs,
                                    OPTIONS.replace(jobs=2))
        executor.run()
        del executor
        gc.collect()
        after = registry.snapshot()
        moved = after.get("engine.records_read", 0) - \
            before.get("engine.records_read", 0)
        assert moved > 0, \
            "worker engine counters must surface in the coordinator " \
            "and outlive the executor"

    def test_convert_batch_moves_worker_counters_like_serial(self):
        """Read after ``api.convert_batch`` returns (the executor is
        gone by then), a pool run moves ``cost.rewrite_skips`` exactly
        as far as the in-process run."""
        programs = corpus_programs(0.75, size=8)
        registry = get_registry()
        moved = {}
        for jobs in (1, 2):
            cascade = fresh_cascade()  # gc.collect()s the previous one
            before = registry.snapshot()
            api.convert_batch(cascade, programs, OPTIONS.replace(jobs=jobs))
            after = registry.snapshot()
            moved[jobs] = after.get("cost.rewrite_skips", 0) - \
                before.get("cost.rewrite_skips", 0)
            del cascade
        assert moved[1] > 0
        assert moved[2] == moved[1]


class TestJournalPlumbing:
    def test_shard_paths_are_ordered_and_filtered(self, tmp_path):
        journal = BatchCheckpoint(tmp_path / "c.json")
        assert journal.shard_path(3).name == "c.json.shard3"
        journal.shard(10).write(["P"], [])
        journal.shard(2).write(["P"], [])
        (tmp_path / "c.json.shardX").write_text("not a shard")
        assert [p.name for p in journal.shard_paths()] == \
            ["c.json.shard2", "c.json.shard10"]

    def test_clear_removes_shards_too(self, tmp_path):
        journal = BatchCheckpoint(tmp_path / "c.json")
        journal.write(["P"], [])
        journal.merge_shards(["P"])
        journal.write(["P"], [])
        journal.shard(0).write(["P"], [])
        assert journal.exists()
        journal.clear()
        assert not journal.exists()
        assert not journal.log_paths()
        assert not journal.shard_paths()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ConversionOptions(jobs=0).resolved_jobs()

    def test_jobs_none_resolves_to_cpu_count(self):
        assert ConversionOptions(jobs=None).resolved_jobs() >= 1


class TestDurableWrites:
    def test_write_json_atomic_fsyncs_directory(self, tmp_path,
                                                monkeypatch):
        synced = []
        monkeypatch.setattr(repro.jsonio, "fsync_dir",
                            lambda path: synced.append(path))
        out = repro.jsonio.write_json_atomic({"k": 1}, tmp_path / "d.json")
        assert out.read_text() == '{\n  "k": 1\n}\n'
        assert synced == [tmp_path]

    def test_fsync_dir_injection_site_is_armable(self, tmp_path):
        """``inject(jsonio, "fsync_dir")`` models a crash after the
        rename but before the directory entry is durable: the document
        is complete on disk, the caller sees the fault."""
        target = tmp_path / "d.json"
        with inject(repro.jsonio, "fsync_dir", nth=1):
            with pytest.raises(InjectedFault):
                repro.jsonio.write_json_atomic({"k": 1}, target)
        assert json.loads(target.read_text()) == {"k": 1}
        assert not (tmp_path / "d.json.tmp").exists()

    def test_fsync_dir_tolerates_unopenable_directory(self, tmp_path):
        repro.jsonio.fsync_dir(tmp_path / "does-not-exist")
