"""Checkpointed, fault-isolated batch conversion (repro.batch) plus
the error-context plumbing it relies on."""

import json

import pytest

from repro.batch import BatchCheckpoint, CheckpointError, run_batch
from repro.core import report as report_module
from repro.core.report import (
    BatchReport,
    ConversionReport,
    FaultContext,
    STATUS_ASSISTED,
    STATUS_AUTOMATIC,
    STATUS_FAILED,
    STATUS_FELL_BACK,
)
from repro.core.supervisor import (
    ConversionSupervisor,
    RefusingAnalyst,
    ScriptedAnalyst,
)
from repro.errors import AnalysisError, PipelineFault, annotate
from repro.options import ConversionOptions
from repro.faultinject import InjectedFault, inject
from repro.programs import ast
from repro.programs import builder as b
from repro.restructure import restructure_database
from repro.strategies import FallbackCascade
from repro.workloads import company


def report_program(name="REPORT"):
    return b.program(name, "network", "COMPANY-NAME", [
        b.find_any("DIV", **{"DIV-NAME": "MACHINERY"}),
        *b.scan_set("EMP", "DIV-EMP", [
            b.if_(b.gt(b.field("EMP", "AGE"), 40), [
                b.display(b.field("EMP", "EMP-NAME")),
            ]),
        ]),
        b.display("END"),
    ])


def hire_program():
    return b.program("HIRE", "network", "COMPANY-NAME", [
        b.find_any("DIV", **{"DIV-NAME": "MACHINERY"}),
        b.store("EMP", **{"EMP-NAME": "ZZ-HIRE", "DEPT-NAME": "SALES",
                          "AGE": 25, "DIV-NAME": "MACHINERY"}),
        b.display("HIRED"),
    ])


def variable_verb_program(name="CONSOLE"):
    """CALL DML(V, ...): the analyzer must ask the analyst."""
    return b.program(name, "network", "COMPANY-NAME", [
        b.accept("V"),
        b.generic_call(ast.Var("V"), "EMP", **{"EMP-NAME": "X"}),
    ])


@pytest.fixture
def cascade(interpose_operator):
    source_db = company.company_db(seed=42)
    _schema, target_db = restructure_database(source_db,
                                              interpose_operator)
    return FallbackCascade(source_db, target_db, interpose_operator)


class TestFaultIsolation:
    def test_one_fault_leaves_rest_of_batch_converted(self, cascade):
        source_before = cascade.source_db.state_fingerprint()
        target_before = cascade.target_db.state_fingerprint()
        programs = [report_program("P1"), hire_program(),
                    report_program("P3")]
        # Poison the reference run of whichever program touches the
        # calc index second (HIRE's FIND ANY DIV) -- a fault the
        # cascade cannot fall back from.
        with inject(cascade.source_db, "calc_index", nth=2):
            batch = run_batch(cascade, programs)
        statuses = {r.program_name: r.status for r in batch.reports}
        assert statuses["HIRE"] == STATUS_FAILED
        assert statuses["P1"] != STATUS_FAILED
        assert statuses["P3"] != STATUS_FAILED
        assert cascade.source_db.state_fingerprint() == source_before
        assert cascade.target_db.state_fingerprint() == target_before

    def test_fault_report_carries_chained_root_cause(self, cascade):
        with inject(cascade.source_db, "calc_index", nth=1):
            batch = run_batch(cascade, [hire_program()])
        report = batch.reports[0]
        assert report.status == STATUS_FAILED
        fault = report.fault
        assert fault is not None
        assert fault.program == "HIRE"
        assert fault.error_type == "PipelineFault"
        assert "InjectedFault" in fault.root_cause
        assert fault in BatchReport(batch.reports).faults()

    def test_duplicate_program_names_rejected(self, cascade):
        with pytest.raises(ValueError, match="duplicate"):
            run_batch(cascade, [hire_program(), hire_program()])


class TestCheckpointResume:
    def test_checkpoint_journals_after_every_program(self, cascade,
                                                     tmp_path):
        path = tmp_path / "batch.json"
        programs = [report_program("P1"), hire_program()]
        run_batch(cascade, programs,
                  ConversionOptions(checkpoint=path))
        data = json.loads(path.read_text())
        assert [e["program"] for e in data["completed"]] == ["P1", "HIRE"]
        assert data["programs"] == ["P1", "HIRE"]

    def test_resume_skips_finished_programs(self, cascade, tmp_path):
        path = tmp_path / "batch.json"
        programs = [report_program("P1"), hire_program(),
                    report_program("P3")]
        full = run_batch(cascade, programs,
                         ConversionOptions(checkpoint=path))

        # Simulate a kill after the first program: truncate the journal.
        data = json.loads(path.read_text())
        data["completed"] = data["completed"][:1]
        path.write_text(json.dumps(data))

        # P1's reference run would now fault if re-run; resume must
        # reuse the journaled report instead of re-probing it.
        probes = []
        original = cascade.reference_trace

        def counting_reference(program, inputs=None):
            probes.append(program.name)
            return original(program, inputs)

        cascade.reference_trace = counting_reference
        resumed = run_batch(cascade, programs,
                            ConversionOptions(checkpoint=path,
                                              resume=True))
        assert probes == ["HIRE", "P3"]
        assert [r.to_summary() for r in resumed.reports] == \
            [r.to_summary() for r in full.reports]

    def test_resumed_report_round_trips_target_program(self, cascade,
                                                       tmp_path):
        path = tmp_path / "batch.json"
        programs = [hire_program()]
        run_batch(cascade, programs, ConversionOptions(checkpoint=path))
        resumed = run_batch(cascade, programs,
                            ConversionOptions(checkpoint=path,
                                              resume=True))
        report = resumed.reports[0]
        assert report.target_program is not None
        run = cascade.make_strategy("rewrite")
        # The round-tripped program still executes.
        from repro.programs.interpreter import run_program

        savepoint = cascade.target_db.savepoint()
        trace = run_program(report.target_program, cascade.target_db,
                            consistent=False)
        cascade.target_db.rollback(savepoint)
        assert "HIRED" in trace.terminal_lines()

    def test_a_summary_report_keeps_its_text_unparsed(self, cascade,
                                                      monkeypatch):
        """A report read back from a summary writes the summary back
        out and counts as converted without parsing its target."""
        batch = run_batch(cascade, [hire_program(),
                                    variable_verb_program()])
        summaries = [r.to_summary() for r in batch.reports]
        assert summaries[0]["target_text"] is not None

        def refuse(text):
            raise AssertionError("parsed a kept target text")

        monkeypatch.setattr(report_module, "parse_program", refuse)
        for summary, original in zip(summaries, batch.reports):
            report = ConversionReport.from_summary(summary)
            assert report.to_summary() == summary
            assert report.converted == original.converted
            assert report.rendered_target() == summary["target_text"]

    def test_a_kept_text_is_parsed_on_first_read_only(self, cascade,
                                                      monkeypatch):
        summary = run_batch(cascade, [hire_program()]).reports[0] \
            .to_summary()
        parses = []
        parse = report_module.parse_program

        def counting(text):
            parses.append(text)
            return parse(text)

        monkeypatch.setattr(report_module, "parse_program", counting)
        report = ConversionReport.from_summary(summary)
        assert parses == []
        assert report.target_program == parse(summary["target_text"])
        assert report.target_program is report.target_program
        assert parses == [summary["target_text"]]
        # Setting the target drops the kept text.
        report.target_program = None
        assert report.to_summary()["target_text"] is None

    def test_checkpoint_for_different_batch_refused(self, cascade,
                                                    tmp_path):
        path = tmp_path / "batch.json"
        run_batch(cascade, [hire_program()],
                  ConversionOptions(checkpoint=path))
        with pytest.raises(CheckpointError, match="different|written for"):
            run_batch(cascade, [report_program("OTHER")],
                      ConversionOptions(checkpoint=path, resume=True))

    def test_corrupt_checkpoint_reported(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            BatchCheckpoint(path).load()

    def test_checkpoint_write_is_atomic(self, cascade, tmp_path):
        path = tmp_path / "batch.json"
        run_batch(cascade, [hire_program()],
                  ConversionOptions(checkpoint=path))
        assert not (tmp_path / "batch.json.tmp").exists()


class TestAnalystEdgeCases:
    def test_scripted_analyst_running_out_of_answers(self, company_schema,
                                                     interpose_operator):
        """A list answer is consumed per question; exhaustion declines,
        so the second variable-verb program fails where the first one
        was (unsuccessfully) answered."""
        analyst = ScriptedAnalyst({"pin-verb": ["pinned"]})
        supervisor = ConversionSupervisor(company_schema,
                                          interpose_operator,
                                          analyst=analyst)
        first = supervisor.convert_program(variable_verb_program("C1"))
        second = supervisor.convert_program(variable_verb_program("C2"))
        # No pins were configured, so both fail -- but the transcript
        # shows the first was answered and the second declined.
        assert first.status == STATUS_FAILED
        assert second.status == STATUS_FAILED
        answers = [answer for _q, answer in analyst.transcript]
        assert answers == ["pinned", None]

    def test_scripted_analyst_string_answer_repeats(self):
        analyst = ScriptedAnalyst({"pin-verb": "pinned"})
        from repro.core.supervisor import AnalystQuestion

        question = AnalystQuestion("pin-verb", "P", "?")
        assert analyst.answer(question) == "pinned"
        assert analyst.answer(question) == "pinned"

    def test_refusing_analyst_forces_assisted_path_to_fail(
            self, company_schema, interpose_operator):
        """With pins available the AutoAnalyst would assist; the
        RefusingAnalyst declines, so the program needs manual work."""
        pins = {"CONSOLE": {0: "FIND-ANY"}}
        assisted = ConversionSupervisor(
            company_schema, interpose_operator,
            verb_pins=pins).convert_program(variable_verb_program())
        assert assisted.status == STATUS_ASSISTED

        refusing = RefusingAnalyst()
        refused = ConversionSupervisor(
            company_schema, interpose_operator, analyst=refusing,
            verb_pins=pins).convert_program(variable_verb_program())
        assert refused.status == STATUS_FAILED
        assert len(refusing.declined) == 1

    def test_refusing_analyst_through_convert_batch(self,
                                                    interpose_operator):
        """The batch picks the cascade's fallback for programs the
        refused rewrite cannot serve: CONSOLE runs under emulation
        (the verb varies at run time, which emulation handles), while
        plain programs convert automatically."""
        source_db = company.company_db(seed=42)
        _schema, target_db = restructure_database(source_db,
                                                  interpose_operator)
        from repro.programs.interpreter import ProgramInputs

        cascade = FallbackCascade(source_db, target_db,
                                  interpose_operator,
                                  analyst=RefusingAnalyst())
        batch = run_batch(
            cascade, [hire_program(), variable_verb_program()],
            ConversionOptions(inputs=ProgramInputs(terminal=["FIND-ANY"])))
        statuses = {r.program_name: r.status for r in batch.reports}
        assert statuses["HIRE"] == STATUS_AUTOMATIC
        assert statuses["CONSOLE"] in (STATUS_FELL_BACK, STATUS_FAILED)
        console = next(r for r in batch.reports
                       if r.program_name == "CONSOLE")
        assert console.stages[0].outcome == "unconverted"


class TestErrorContext:
    def test_conversion_error_str_includes_context(self):
        error = AnalysisError("no template", program="P1", phase="analyze")
        assert str(error) == "no template [program=P1, phase=analyze]"
        assert error.context() == {"program": "P1", "phase": "analyze"}

    def test_annotate_fills_only_missing_fields(self):
        error = AnalysisError("boom", phase="analyze")
        annotate(error, program="P1", phase="generate", statement="GET X")
        assert error.program == "P1"
        assert error.phase == "analyze"          # raise site wins
        assert error.statement == "GET X"

    def test_supervisor_wraps_stray_exceptions_chained(
            self, company_schema, interpose_operator):
        supervisor = ConversionSupervisor(company_schema,
                                          interpose_operator)
        with inject(supervisor.generator, "generate", nth=1,
                    make_error=KeyError):
            with pytest.raises(PipelineFault) as excinfo:
                supervisor.convert_program(hire_program())
        fault = excinfo.value
        assert fault.phase == "generate"
        assert fault.program == "HIRE"
        assert isinstance(fault.__cause__, KeyError)

    def test_fault_context_from_exception_walks_chain(self):
        try:
            try:
                raise InjectedFault("root")
            except InjectedFault as inner:
                raise PipelineFault("wrapper", program="P",
                                    phase="convert") from inner
        except PipelineFault as outer:
            context = FaultContext.from_exception(outer)
        assert context.program == "P"
        assert context.phase == "convert"
        assert context.cause_chain == ("InjectedFault: root",)
        assert context.root_cause == "InjectedFault: root"

    def test_fault_context_json_round_trip(self):
        context = FaultContext("PipelineFault", "boom", program="P",
                               phase="optimize",
                               cause_chain=("KeyError: 'x'",))
        data = json.loads(json.dumps(context.to_dict()))
        assert FaultContext.from_dict(data) == context
