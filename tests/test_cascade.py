"""The strategy fallback cascade (repro.strategies.cascade)."""

import pytest

from repro.batch import run_batch
from repro.core.analyzer_db import ConversionAnalyzer
from repro.core.report import (
    STATUS_FAILED,
    STATUS_FELL_BACK,
    STATUS_WARNINGS,
)
from repro.errors import PipelineFault
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


def free_navigation_program():
    """FIND FIRST/FIND NEXT outside any template: the rewrite pipeline
    refuses it, but the source program still runs -- emulation serves."""
    return b.program("FREE-NAV", "network", "COMPANY-NAME", [
        b.find_any("DIV", **{"DIV-NAME": "MACHINERY"}),
        b.find_first("EMP", "DIV-EMP"),
        b.find_next("EMP", "DIV-EMP"),
        b.if_(ast.status_ok(), [
            b.get("EMP"),
            b.display(b.field("EMP", "EMP-NAME")),
        ]),
        b.display("DONE"),
    ])


@pytest.fixture
def cascade_setup(interpose_operator):
    source_db = company.company_db(seed=42)
    _schema, target_db = restructure_database(source_db,
                                              interpose_operator)
    cascade = FallbackCascade(source_db, target_db, interpose_operator)
    return source_db, target_db, cascade


class TestHappyPath:
    def test_rewrite_wins_first(self, cascade_setup):
        _source, _target, cascade = cascade_setup
        report = cascade.convert(hire_program())
        assert report.strategy == "rewrite"
        assert report.converted
        assert report.stages[0].outcome == "validated"

    def test_reordered_trace_is_warned_not_escalated(self, cascade_setup):
        """Interposition regroups DIV-EMP members by DEPT; the rewrite
        emits the same events in a different order.  That is the
        Section 5.2 level-2 band, not a failure."""
        _source, _target, cascade = cascade_setup
        report = cascade.convert(report_program())
        assert report.strategy == "rewrite"
        assert report.stages[0].outcome == "validated-reordered"
        assert report.status == STATUS_WARNINGS
        assert any("order" in w for w in report.warnings)

    def test_probe_leaves_databases_byte_identical(self, cascade_setup):
        source_db, target_db, cascade = cascade_setup
        source_before = source_db.state_fingerprint()
        target_before = target_db.state_fingerprint()
        cascade.convert(hire_program())
        assert source_db.state_fingerprint() == source_before
        assert target_db.state_fingerprint() == target_before


class TestEscalation:
    def test_unconvertible_program_falls_back_to_emulation(
            self, cascade_setup):
        _source, _target, cascade = cascade_setup
        report = cascade.convert(free_navigation_program())
        assert report.status == STATUS_FELL_BACK
        assert report.strategy == "emulation"
        assert [s.strategy for s in report.stages] == \
            ["rewrite", "emulation"]
        assert report.stages[0].outcome == "unconverted"
        assert report.converted

    def test_injected_fault_escalates_to_next_stage(self, cascade_setup):
        source_db, target_db, cascade = cascade_setup
        source_before = source_db.state_fingerprint()
        target_before = target_db.state_fingerprint()
        # The rewrite probe is the first to insert into the target;
        # nth=1 kills it, then emulation (whose first insert is call 2)
        # runs clean.
        with inject(target_db, "insert_record", nth=1):
            report = cascade.convert(hire_program())
        assert report.status == STATUS_FELL_BACK
        assert report.strategy == "emulation"
        assert report.stages[0].outcome == "error"
        assert "InjectedFault" in report.stages[0].detail
        assert source_db.state_fingerprint() == source_before
        assert target_db.state_fingerprint() == target_before

    def test_all_stages_faulting_reports_failure(self, cascade_setup):
        from repro.faultinject import FaultInjector

        source_db, target_db, cascade_full = cascade_setup
        # Bridge probes write to their own reconstruction, so a target
        # insert fault cannot reach it; restrict the cascade to the
        # two stages that do write through the target.
        cascade = FallbackCascade(source_db, target_db,
                                  cascade_full.operator,
                                  order=("rewrite", "emulation"))
        target_before = target_db.state_fingerprint()
        injector = FaultInjector()
        # Both stages' first target insert gets killed (calls 1 and 2).
        for nth in (1, 2):
            injector.add(target_db, "insert_record", nth=nth)
        with injector:
            report = cascade.convert(hire_program())
        assert report.status == STATUS_FAILED
        assert not report.converted
        assert report.to_summary()["target_text"] is None
        assert report.fault is not None
        assert "InjectedFault" in report.fault.root_cause
        assert all(stage.outcome == "error"
                   for stage in report.stages)
        assert target_db.state_fingerprint() == target_before

    def test_reference_run_fault_is_wrapped_and_chained(
            self, cascade_setup):
        source_db, _target, cascade = cascade_setup
        source_before = source_db.state_fingerprint()
        with inject(source_db, "calc_index", nth=1):
            with pytest.raises(PipelineFault) as excinfo:
                cascade.convert(hire_program())
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert excinfo.value.program == "HIRE"
        assert excinfo.value.phase == "reference-run"
        assert source_db.state_fingerprint() == source_before


class TestConfiguration:
    def test_custom_order_is_honoured(self, cascade_setup):
        _source, _target, cascade_full = cascade_setup
        cascade = FallbackCascade(
            cascade_full.source_db, cascade_full.target_db,
            cascade_full.operator, order=("emulation",))
        report = cascade.convert(hire_program())
        assert report.strategy == "emulation"
        assert report.status == STATUS_FELL_BACK

    def test_rewrite_only_order_fails_hard_programs(self, cascade_setup):
        _source, _target, cascade_full = cascade_setup
        cascade = FallbackCascade(
            cascade_full.source_db, cascade_full.target_db,
            cascade_full.operator, order=("rewrite",))
        report = cascade.convert(free_navigation_program())
        assert report.status == STATUS_FAILED
        assert not report.converted
        assert report.fault is not None

    def test_unknown_stage_rejected(self, cascade_setup):
        _source, _target, cascade_full = cascade_setup
        with pytest.raises(ValueError):
            FallbackCascade(cascade_full.source_db,
                            cascade_full.target_db,
                            cascade_full.operator,
                            order=("rewrite", "teleport"))

    def test_one_strategy_build_per_attempted_stage(self, cascade_setup):
        """A winning stage is not built a second time: the cascade
        hands back the report, not a strategy instance."""
        _source, _target, cascade = cascade_setup
        built = []
        make_strategy = cascade.make_strategy

        def counting(name):
            built.append(name)
            return make_strategy(name)

        cascade.make_strategy = counting
        cascade.convert(hire_program())
        assert built == ["rewrite"]
        built.clear()
        cascade.convert(free_navigation_program())
        assert built == ["rewrite", "emulation"]

    def test_change_catalog_derived_once_per_cascade(self, cascade_setup,
                                                     monkeypatch):
        """Every rewrite attempt's supervisor reuses the cascade's
        ChangeCatalog instead of analyzing the operator again."""
        _source, _target, cascade = cascade_setup
        calls = []
        analyze = ConversionAnalyzer.analyze_operator

        def counting(self, *args, **kwargs):
            calls.append(args)
            return analyze(self, *args, **kwargs)

        monkeypatch.setattr(ConversionAnalyzer, "analyze_operator", counting)
        batch = run_batch(cascade, [report_program("P1"), hire_program(),
                                    free_navigation_program()])
        assert len(batch.reports) == 3
        assert calls == []


class TestConvertSystem:
    def test_mixed_corpus(self, cascade_setup):
        _source, _target, cascade = cascade_setup
        statuses = [cascade.convert(program).status for program in [
            report_program("P1"), hire_program(),
            free_navigation_program(),
        ]]
        assert statuses[0] == STATUS_WARNINGS
        assert statuses[2] == STATUS_FELL_BACK
