"""Self-healing batch execution (worker supervision, watchdog,
quarantine).

The headline guarantees under test: a batch whose workers are killed
or hung by injected chaos still *completes*, poison programs are
quarantined with a deterministic synthesized report, the final
checkpoint is byte-identical to a serial run of the same fault plan at
any jobs count -- including across an interrupt + resume mid-chaos --
and the cooperative watchdog fails runaway programs identically in
serial and in-worker execution.
"""

import json
import multiprocessing

import pytest

from repro.batch import MAX_PROGRAM_RETRIES, BatchCheckpoint, run_batch
from repro.core.report import STATUS_FAILED, STATUS_QUARANTINED
from repro.faultinject import (
    FAULT_KINDS,
    KIND_HANG,
    KIND_KILL_WORKER,
    KIND_RAISE,
    FaultPlan,
    PlannedFault,
    inject,
    plan_faults,
)
from repro.observe.registry import get_registry, registry_delta
from repro.options import ConversionOptions
from repro.parallel import (
    DRAIN_SECONDS,
    MAX_WORKER_RESPAWNS,
    POLL_SECONDS,
    ParallelExecutionError,
    ParallelExecutor,
    Scheduler,
    run_parallel_batch,
)
from repro.programs.interpreter import (
    ProgramInputs,
    ProgramTimeout,
    program_deadline,
)
from repro.restructure import restructure_database
from repro.strategies.cascade import FallbackCascade
from repro.workloads import company
from repro.workloads.corpus import CorpusSpec, generate_corpus


def corpus_programs(pathology_rate=0.25, size=6, seed=1979):
    items = generate_corpus(CorpusSpec(seed=seed, size=size,
                                       pathology_rate=pathology_rate))
    return [item.program for item in items]


def fresh_cascade(seed=1979):
    # See test_parallel.fresh_cascade: collect garbage so the cycle
    # collector cannot shrink registry-wide counter deltas mid-batch.
    import gc

    gc.collect()
    operator = company.figure_44_operator()
    source_db = company.company_db(seed=seed)
    _schema, target_db = restructure_database(source_db, operator)
    return FallbackCascade(source_db, target_db, operator)


OPTIONS = ConversionOptions(inputs=ProgramInputs(terminal=["STORE"]),
                            parallel_threshold=2)


def summaries(batch):
    return [report.to_summary() for report in batch.reports]


def kill_plan(program_name, nth=1):
    """A plan whose fault reliably fires during every corpus program's
    conversion: ``source_db.calc_index`` is exercised by the reference
    run of each program (see DEFAULT_PLAN_METHODS)."""
    return FaultPlan((PlannedFault(
        target="source_db", method="calc_index", nth=nth,
        program=program_name, kind=KIND_KILL_WORKER),))


def hang_plan(program_name):
    return FaultPlan((PlannedFault(
        target="source_db", method="calc_index", nth=1,
        program=program_name, kind=KIND_HANG),))


CHAOS = OPTIONS


def no_workers_left():
    return not [proc for proc in multiprocessing.active_children()
                if proc.name.startswith("repro-worker-")]


class TestSerialQuarantine:
    def test_kill_fault_quarantines_after_retries(self, tmp_path):
        programs = corpus_programs(0.0)
        poison = programs[0].name
        path = tmp_path / "serial.json"
        options = CHAOS.replace(fault_plan=kill_plan(poison),
                                checkpoint=path)
        batch = run_batch(fresh_cascade(), programs, options)

        assert len(batch.reports) == len(programs)
        report = batch.reports[0]
        assert report.status == STATUS_QUARANTINED
        assert not report.converted
        assert report.fault is not None
        assert report.fault.error_type == "WorkerKilled"
        assert "2 time(s)" in report.fault.message
        assert report.fault.phase == "supervise"
        assert any("calc_index" in link for link in
                   report.fault.cause_chain), \
            "the chained cause must name the injected fault site"
        # Everyone else converted normally.
        assert all(r.converted for r in batch.reports[1:])
        # The quarantined summary is journaled like any other.
        completed = json.loads(path.read_text())["completed"]
        assert completed[0]["status"] == STATUS_QUARANTINED

    def test_quarantine_report_round_trips_the_checkpoint(self, tmp_path):
        """STATUS_QUARANTINED must survive the render/parse round trip
        the parallel merge and the resume path both rely on."""
        programs = corpus_programs(0.0)
        poison = programs[0].name
        path = tmp_path / "serial.json"
        run_batch(fresh_cascade(), programs,
                  CHAOS.replace(fault_plan=kill_plan(poison),
                                checkpoint=path))
        reports = BatchCheckpoint(path).recover([p.name for p in programs])
        assert reports[poison].status == STATUS_QUARANTINED
        assert reports[poison].fault.error_type == "WorkerKilled"


class TestParallelChaosMatchesSerial:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_kill_worker_completes_and_is_byte_identical(self, tmp_path,
                                                         jobs):
        """The acceptance criterion: with kill_worker faults the batch
        completes the full corpus, the poison program is quarantined,
        and the checkpoint is byte-identical to serial."""
        programs = corpus_programs(0.0)
        poison = programs[0].name
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / f"parallel{jobs}.json"
        plan = kill_plan(poison)

        serial = run_batch(fresh_cascade(), programs,
                           CHAOS.replace(fault_plan=plan,
                                         checkpoint=serial_path))
        parallel = run_parallel_batch(
            fresh_cascade(), programs,
            CHAOS.replace(fault_plan=plan, jobs=jobs,
                          checkpoint=parallel_path))

        assert summaries(parallel) == summaries(serial)
        assert parallel_path.read_bytes() == serial_path.read_bytes()
        assert parallel.reports[0].status == STATUS_QUARANTINED
        assert not list(tmp_path.glob("*.shard*"))
        assert no_workers_left()

    def test_bisection_isolates_poison_in_a_multi_program_chunk(
            self, tmp_path):
        """With 3-program chunks the dead worker's chunk is bisected
        on redelivery until the poison program sits alone; its innocent
        chunk-mates convert normally."""
        programs = corpus_programs(0.0)
        poison = programs[0].name
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        plan = kill_plan(poison)

        serial = run_batch(fresh_cascade(), programs,
                           CHAOS.replace(fault_plan=plan,
                                         checkpoint=serial_path))
        registry = get_registry()
        before = registry.snapshot()
        parallel = run_parallel_batch(
            fresh_cascade(), programs,
            CHAOS.replace(fault_plan=plan, jobs=2, chunk_size=3,
                          checkpoint=parallel_path))
        delta = registry_delta(before, registry.snapshot())

        assert summaries(parallel) == summaries(serial)
        assert parallel_path.read_bytes() == serial_path.read_bytes()
        assert [r.status for r in parallel.reports].count(
            STATUS_QUARANTINED) == 1
        assert delta.get("supervision.respawns", 0) >= 3, \
            "each bisection redelivery kills (and respawns) a worker"
        assert delta.get("supervision.chunks_redealt", 0) >= 2

    def test_supervision_counters_match_serial(self):
        """supervision.quarantined and supervision.timeouts must be
        equal serial vs parallel (timeouts bump inside the worker and
        ship home through the registry-delta merge)."""
        programs = corpus_programs(0.0)
        registry = get_registry()
        options = CHAOS.replace(fault_plan=kill_plan(programs[0].name))
        for parallel_mode in (False, True):
            cascade = fresh_cascade()  # gc.collect()s before the snapshot
            before = registry.snapshot()
            if parallel_mode:
                run_parallel_batch(cascade, programs,
                                   options.replace(jobs=2))
            else:
                run_batch(cascade, programs, options)
            delta = registry_delta(before, registry.snapshot())
            assert delta.get("supervision.quarantined", 0) == 1

    def test_interrupt_and_resume_mid_chaos_is_byte_identical(
            self, tmp_path):
        """Ctrl-C while the supervisor is mid-chaos still drains to a
        resumable journal, and the resumed run (same fault plan)
        converges to the serial bytes."""
        programs = corpus_programs(0.0)
        poison = programs[0].name
        plan = kill_plan(poison)
        serial_path = tmp_path / "serial.json"
        run_batch(fresh_cascade(), programs,
                  CHAOS.replace(fault_plan=plan, checkpoint=serial_path))

        path = tmp_path / "batch.json"
        executor = ParallelExecutor(
            fresh_cascade(), programs,
            CHAOS.replace(fault_plan=plan, jobs=2, chunk_size=1,
                          checkpoint=path))
        with inject(executor, "_receive", nth=2,
                    make_error=KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                executor.run()
        assert no_workers_left()
        assert BatchCheckpoint(path).exists()

        resumed = run_parallel_batch(
            fresh_cascade(), programs,
            CHAOS.replace(fault_plan=plan, jobs=2, checkpoint=path,
                          resume=True))
        assert len(resumed.reports) == len(programs)
        assert path.read_bytes() == serial_path.read_bytes()
        assert no_workers_left()


class TestResumeAfterQuarantine:
    def test_quarantined_program_is_not_rerun_on_resume(self, tmp_path):
        """A checkpoint holding a STATUS_QUARANTINED entry resumes
        without re-running the poison program: the resumed run carries
        no fault plan, so a re-run would *succeed* and change the
        bytes -- byte-identity proves the entry was honored."""
        programs = corpus_programs(0.0)
        poison = programs[0].name
        path = tmp_path / "batch.json"
        run_batch(fresh_cascade(), programs,
                  CHAOS.replace(fault_plan=kill_plan(poison),
                                checkpoint=path))
        reference_bytes = path.read_bytes()

        # Drop the last completed entry (not the quarantined one) so
        # the resume has real work to do.
        data = json.loads(path.read_text())
        assert data["completed"][0]["status"] == STATUS_QUARANTINED
        data["completed"] = data["completed"][:-1]
        path.write_text(json.dumps(data, indent=2) + "\n")

        resumed = run_batch(fresh_cascade(), programs,
                            CHAOS.replace(checkpoint=path, resume=True))
        assert resumed.reports[0].status == STATUS_QUARANTINED
        assert path.read_bytes() == reference_bytes

    def test_parallel_resume_honors_quarantine_too(self, tmp_path):
        programs = corpus_programs(0.0)
        poison = programs[0].name
        path = tmp_path / "batch.json"
        run_batch(fresh_cascade(), programs,
                  CHAOS.replace(fault_plan=kill_plan(poison),
                                checkpoint=path))
        reference_bytes = path.read_bytes()

        data = json.loads(path.read_text())
        data["completed"] = data["completed"][:3]
        path.write_text(json.dumps(data, indent=2) + "\n")

        resumed = run_parallel_batch(
            fresh_cascade(), programs,
            CHAOS.replace(jobs=2, checkpoint=path, resume=True))
        assert resumed.reports[0].status == STATUS_QUARANTINED
        assert path.read_bytes() == reference_bytes


class TestWatchdog:
    def test_deadline_fails_a_runaway_program_deterministically(self):
        """The cooperative watchdog: a hang fault stalls conversion
        past the deadline, the interpreter's next statement check
        raises, and the failure message names the *limit* (never the
        elapsed time), so the report is deterministic."""
        programs = corpus_programs(0.0)
        hung = programs[0].name
        options = CHAOS.replace(fault_plan=hang_plan(hung),
                                program_timeout=0.3)
        batch = run_batch(fresh_cascade(), programs, options)
        report = batch.reports[0]
        assert report.status == STATUS_FAILED
        assert "0.3s conversion deadline" in str(report.failure) or \
            any("0.3s conversion deadline" in link
                for link in report.fault.cause_chain) or \
            "0.3s conversion deadline" in report.fault.message
        assert all(r.converted for r in batch.reports[1:])

    def test_hang_report_is_byte_identical_serial_vs_parallel(
            self, tmp_path):
        programs = corpus_programs(0.0)
        hung = programs[0].name
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        options = CHAOS.replace(fault_plan=hang_plan(hung),
                                program_timeout=0.3)

        serial = run_batch(fresh_cascade(), programs,
                           options.replace(checkpoint=serial_path))
        parallel = run_parallel_batch(
            fresh_cascade(), programs,
            options.replace(jobs=2, checkpoint=parallel_path))
        assert summaries(parallel) == summaries(serial)
        assert parallel_path.read_bytes() == serial_path.read_bytes()

    def test_hang_without_deadline_raises_an_explanatory_fault(self):
        """A hang fault with no armed deadline cannot be recovered
        cooperatively; it fails fast with a message pointing at
        program_timeout instead of spinning forever."""
        programs = corpus_programs(0.0)
        hung = programs[0].name
        options = CHAOS.replace(fault_plan=hang_plan(hung))
        batch = run_batch(fresh_cascade(), programs, options)
        report = batch.reports[0]
        assert report.status == STATUS_FAILED
        assert "program_timeout" in str(report.failure)

    def test_program_deadline_unit(self):
        import time

        with pytest.raises(ValueError, match="program_timeout"):
            with program_deadline(0):
                pass
        with program_deadline(0.001):
            deadline_hit = False
            try:
                time.sleep(0.005)
                # Interpreter hosts the check; here we just confirm the
                # context var is armed and scoped.
                from repro.programs.interpreter import active_deadline
                assert active_deadline() is not None
                deadline, limit = active_deadline()
                assert limit == 0.001
                deadline_hit = time.monotonic() >= deadline
            finally:
                pass
            assert deadline_hit
        from repro.programs.interpreter import active_deadline
        assert active_deadline() is None

    def test_watchdog_failure_is_the_program_timeout_type(self):
        """ProgramTimeout is an InterpreterError carrying the program
        name and a 'watchdog' phase for the fault context chain."""
        error = ProgramTimeout("deadline", program="P")
        assert error.program == "P"
        assert error.phase == "watchdog"


class TestRespawnBudget:
    def test_crash_looping_pool_fails_with_resume_hint(self):
        """Deaths that re-deal no *unfinished* work (every dealt chunk
        already journaled) are unproductive; exceeding the budget
        raises instead of respawning forever."""
        programs = corpus_programs(0.0)
        journaled = {p.name for p in programs}
        scheduler = Scheduler(programs, chunk_size=1)
        scheduler.add_worker(0)
        scheduler.deal(0)
        for worker_id in range(1, MAX_WORKER_RESPAWNS + 1):
            assert scheduler.died(worker_id - 1, journaled).respawn
            scheduler.add_worker(worker_id)
            scheduler.deal(worker_id)
        with pytest.raises(ParallelExecutionError,
                           match="crash-looping.*resume"):
            scheduler.died(MAX_WORKER_RESPAWNS, journaled)


class TestFaultPlanKinds:
    def test_default_plans_are_unchanged_by_the_kinds_parameter(self):
        names = [f"P{i}" for i in range(20)]
        default = plan_faults(seed=7, program_names=names, rate=0.75)
        explicit = plan_faults(seed=7, program_names=names, rate=0.75,
                               kinds=(KIND_RAISE,))
        assert default == explicit
        assert all(f.kind == KIND_RAISE for f in default.faults)

    def test_multi_kind_plans_keep_the_fault_sites(self):
        """The kind is drawn last: offering more kinds must not move
        where the faults land under the same seed."""
        names = [f"P{i}" for i in range(20)]
        single = plan_faults(seed=7, program_names=names, rate=0.75)
        multi = plan_faults(seed=7, program_names=names, rate=0.75,
                            kinds=FAULT_KINDS)
        def sites(plan):
            return [(f.target, f.method, f.nth, f.program)
                    for f in plan.faults]

        assert sites(multi) == sites(single)
        assert {f.kind for f in multi.faults} > {KIND_RAISE}, \
            "seed 7 over 20 programs must draw a chaos kind somewhere"

    def test_kinds_are_validated(self):
        with pytest.raises(ValueError, match="at least one"):
            plan_faults(seed=1, program_names=["P"], kinds=())
        with pytest.raises(ValueError, match="unknown fault kind"):
            plan_faults(seed=1, program_names=["P"], kinds=("bogus",))

    def test_seeded_multi_kind_chaos_matches_serial(self, tmp_path):
        """The full chaos surface end to end: a seeded plan mixing
        raise, kill_worker, and hang kinds produces byte-identical
        checkpoints serial vs parallel."""
        programs = corpus_programs(0.0, size=8, seed=11)
        plan = plan_faults(seed=5, rate=0.9,
                           program_names=[p.name for p in programs],
                           kinds=(KIND_RAISE, KIND_KILL_WORKER))
        assert any(f.kind == KIND_KILL_WORKER for f in plan.faults), \
            "seed 5 must plan at least one worker kill"
        options = CHAOS.replace(fault_plan=plan, program_timeout=5.0)
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"

        serial = run_batch(fresh_cascade(), programs,
                           options.replace(checkpoint=serial_path))
        parallel = run_parallel_batch(
            fresh_cascade(), programs,
            options.replace(jobs=3, checkpoint=parallel_path))
        assert summaries(parallel) == summaries(serial)
        assert parallel_path.read_bytes() == serial_path.read_bytes()
        assert no_workers_left()


class TestOptionsPlumbing:
    def test_supervision_defaults(self):
        options = ConversionOptions()
        assert options.program_timeout is None
        assert MAX_WORKER_RESPAWNS == 3
        assert MAX_PROGRAM_RETRIES == 2
        assert POLL_SECONDS == 0.2
        assert DRAIN_SECONDS == 30.0

    def test_replace_carries_supervision_fields(self):
        options = ConversionOptions().replace(program_timeout=1.5)
        assert options.program_timeout == 1.5
        assert options.replace(jobs=2).program_timeout == 1.5


class TestCliExitCodes:
    def test_parallel_failure_exits_3_with_resume_hint(
            self, tmp_path, capsys, monkeypatch):
        from repro import api
        from repro.cli import main
        from repro.workloads.company import FIGURE_4_3_DDL

        ddl = tmp_path / "company.ddl"
        ddl.write_text(FIGURE_4_3_DDL)
        spec = tmp_path / "fig44.spec"
        spec.write_text("INTERPOSE DEPT (DEPT-NAME) ON DIV-EMP "
                        "AS DIV-DEPT, DEPT-EMP.\n")
        prog = tmp_path / "p.cob"
        prog.write_text("PROGRAM P (network / COMPANY-NAME).\n"
                        "  FIND ANY DIV USING DIV-NAME='MACHINERY'.\n")

        def boom(*args, **kwargs):
            raise ParallelExecutionError("worker pool is crash-looping")

        monkeypatch.setattr(api, "convert_batch", boom)
        code = main(["convert", "--ddl", str(ddl), "--spec", str(spec),
                     "--program", str(prog), "--program", str(prog),
                     "--checkpoint", str(tmp_path / "ckpt.json"),
                     "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert "--resume" in captured.err
        assert "crash-looping" in captured.err

    def test_program_timeout_flag_reaches_the_options(
            self, tmp_path, capsys, monkeypatch):
        from repro import api
        from repro.cli import main
        from repro.core.report import BatchReport
        from repro.workloads.company import FIGURE_4_3_DDL

        ddl = tmp_path / "company.ddl"
        ddl.write_text(FIGURE_4_3_DDL)
        spec = tmp_path / "fig44.spec"
        spec.write_text("INTERPOSE DEPT (DEPT-NAME) ON DIV-EMP "
                        "AS DIV-DEPT, DEPT-EMP.\n")
        prog = tmp_path / "p.cob"
        prog.write_text("PROGRAM P (network / COMPANY-NAME).\n"
                        "  FIND ANY DIV USING DIV-NAME='MACHINERY'.\n")

        seen = {}

        def capture(cascade, programs, options=None, **kwargs):
            seen["options"] = options
            return BatchReport()

        monkeypatch.setattr(api, "convert_batch", capture)
        code = main(["convert", "--ddl", str(ddl), "--spec", str(spec),
                     "--program", str(prog), "--program", str(prog),
                     "--program-timeout", "2.5"])
        assert code == 0
        assert seen["options"].program_timeout == 2.5

    def test_exit_codes_documented_in_help(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["convert", "--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "130" in out
