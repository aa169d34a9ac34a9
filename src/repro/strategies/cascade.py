"""Strategy fallback cascade.

Section 2 of the paper surveys three ways to keep a source program
working after restructuring -- rewrite (Section 2.2), DML emulation and
bridge programs (Section 2.1.2) -- and argues for rewrite while keeping
the runtime strategies in reserve.  The cascade operationalizes that
argument: try rewrite first, validate the candidate by *differential
execution* (source program on the source database vs candidate on the
target database, Section 1.1's I/O-equivalence rule), and fall back to
emulation, then bridge, whenever a stage raises or its trace diverges.

Every probe runs inside an engine savepoint and is rolled back, so
validation leaves both databases byte-identical to their pre-call
state no matter which stages fault.

Before paying for a rewrite attempt the cascade runs the
:mod:`repro.cost` blocking check.  The check is *sound pruning only*:
the rewrite stage is skipped exactly when static analysis proves the
program analyzer would refuse it (Section 3.2 verb variability; the
analyzer's refusal text is synthesized byte-for-byte, and the
Conversion Analyst is asked the same ``pin-verb`` question at the same
point, so scripted analysts see an identical transcript).  Each skip
bumps the ``cost.rewrite_skips`` counter.  Validation of whichever
strategy does run is never skipped.

Stage outcomes land in :class:`~repro.core.report.ConversionReport`:

* ``validated`` -- trace identical to the source run;
* ``validated-reordered`` -- same multiset of I/O events in a
  different order (scan-order divergence under interposition; accepted
  with a warning, the Section 5.2 "levels of success" middle band);
* ``unconverted`` / ``error`` / ``divergent`` -- escalate.
"""

from __future__ import annotations

from repro.core.analyzer_db import ConversionAnalyzer
from repro.core.analyzer_program import blocking_failure
from repro.core.optimizer import CostModel
from repro.core.report import (
    ConversionReport,
    FaultContext,
    STATUS_AUTOMATIC,
    STATUS_FAILED,
    STATUS_FELL_BACK,
    STATUS_WARNINGS,
    StageOutcome,
)
from repro.core.supervisor import Analyst, pin_verb_question
from repro.cost import CostPredictor
from repro.errors import AnalysisError, PipelineFault
from repro.network.database import NetworkDatabase
from repro.observe.registry import NamedCounters
from repro.options import ConversionOptions
from repro.observe.tracing import span
from repro.programs.ast import Program
from repro.programs.interpreter import ProgramInputs, run_program
from repro.programs.iotrace import IOTrace
from repro.restructure.operators import RestructuringOperator
from repro.strategies.base import ConversionStrategy, StrategyRun
from repro.strategies.bridge import BridgeStrategy
from repro.strategies.emulation import EmulationStrategy
from repro.strategies.rewrite import RewriteStrategy

#: Default attempt order: the paper's preferred strategy first.
DEFAULT_ORDER = ("rewrite", "emulation", "bridge")


def traces_reordered(reference: IOTrace, candidate: IOTrace) -> bool:
    """True when the two traces carry the same multiset of events in a
    different order (scan-order divergence, not behaviour loss)."""
    mine = sorted(event.render() for event in reference.events)
    theirs = sorted(event.render() for event in candidate.events)
    return mine == theirs


class FallbackCascade:
    """Tries rewrite -> emulation -> bridge per program, validating
    each candidate differentially inside engine savepoints."""

    def __init__(self, source_db: NetworkDatabase,
                 target_db: NetworkDatabase,
                 operator: RestructuringOperator,
                 analyst: Analyst | None = None,
                 order: tuple[str, ...] = DEFAULT_ORDER,
                 rule_catalog=None):
        unknown = set(order) - set(DEFAULT_ORDER)
        if unknown:
            raise ValueError(f"unknown cascade stages: {sorted(unknown)}")
        self.source_db = source_db
        self.target_db = target_db
        self.operator = operator
        self.analyst = analyst
        self.catalog = ConversionAnalyzer().analyze_operator(
            source_db.schema, operator)
        self.order = tuple(order)
        if rule_catalog is not None:
            from repro.catalog.compile import compile_catalog

            rule_catalog = compile_catalog(rule_catalog)
        #: The rewrite stage's rule catalog, compiled once here rather
        #: than by every attempt's supervisor (``None``: the builtin
        #: catalog).  Distinct from ``self.catalog``, the ChangeCatalog
        #: of classified schema changes.
        self.rule_catalog = rule_catalog
        # The optimizer's cardinality model is taken once, eagerly:
        # probes roll back every mutation, so the counts never drift
        # during a batch and worker processes rehydrating this pickled
        # cascade optimize exactly like the serial coordinator.
        self.target_cost_model = CostModel.from_database(target_db)
        self.predictor = CostPredictor()
        self.cost_counters = NamedCounters("cost")

    # -- strategy construction ---------------------------------------

    def make_strategy(self, name: str) -> ConversionStrategy:
        """A fresh strategy instance for one probe: a bridge rebinds
        its target when it retranslates and a rewrite memoizes reports
        by program name, so no instance outlives its attempt."""
        if name == "rewrite":
            return RewriteStrategy(self.target_db, self.source_db.schema,
                                   self.operator, analyst=self.analyst,
                                   cost_model=self.target_cost_model,
                                   rule_catalog=self.rule_catalog,
                                   catalog=self.catalog)
        if name == "emulation":
            return EmulationStrategy(self.target_db, self.catalog)
        if name == "bridge":
            return BridgeStrategy(self.target_db, self.operator,
                                  self.catalog)
        raise ValueError(f"unknown strategy {name!r}")

    # -- probes --------------------------------------------------------

    def reference_trace(self, program: Program,
                        inputs: ProgramInputs | None = None) -> IOTrace:
        """The source program's behaviour on the source database,
        probed inside a savepoint and rolled back."""
        inputs = inputs or ProgramInputs()
        savepoint = self.source_db.savepoint()
        try:
            with span("cascade.reference-run", program=program.name):
                return run_program(program, self.source_db, inputs.copy(),
                                   consistent=False)
        except Exception as exc:
            raise PipelineFault(
                f"source program would not run: {exc}",
                program=program.name, phase="reference-run",
            ) from exc
        finally:
            self.source_db.rollback(savepoint)

    def _probe(self, strategy: ConversionStrategy, program: Program,
               inputs: ProgramInputs) -> StrategyRun:
        """One candidate run against the target, rolled back after."""
        savepoint = self.target_db.savepoint()
        try:
            return strategy.run(program, inputs.copy())
        finally:
            self.target_db.rollback(savepoint)

    # -- the cascade ---------------------------------------------------

    def convert(self, program: Program, *,
                options: ConversionOptions | None = None
                ) -> ConversionReport:
        """Run the cascade under a ``cascade.convert`` span and return
        the program's report."""
        inputs = options.inputs if options is not None else None
        with span("cascade.convert", program=program.name):
            blocking = self.predictor.predict(program)
            return self._convert(program, inputs, blocking)

    def _convert(self, program: Program, inputs: ProgramInputs | None,
                 blocking: tuple[str, ...]) -> ConversionReport:
        inputs = inputs or ProgramInputs()
        reference = self.reference_trace(program, inputs)

        stages: list[StageOutcome] = []
        rewrite_report: ConversionReport | None = None
        last_error: Exception | None = None
        last_detail = "no cascade stages attempted"

        for name in self.order:
            with span(f"cascade.{name}", program=program.name) as stage_span:
                if name == "rewrite" and blocking:
                    # Static analysis proves the analyzer would refuse
                    # this program; synthesize its exact refusal
                    # instead of paying for the attempt.
                    rewrite_report = self._synthesize_rewrite_refusal(
                        program, blocking)
                    last_detail = rewrite_report.failure or "unconverted"
                    stages.append(StageOutcome(name, "unconverted",
                                               last_detail))
                    stage_span.set_attr("outcome", "unconverted")
                    stage_span.set_attr("skipped", True)
                    self.cost_counters.bump("rewrite_skips")
                    continue

                strategy = self.make_strategy(name)

                if name == "rewrite":
                    rewrite_report = strategy.conversion_report(program)
                    if rewrite_report.target_program is None:
                        last_detail = rewrite_report.failure or "unconverted"
                        stages.append(StageOutcome(name, "unconverted",
                                                   last_detail))
                        stage_span.set_attr("outcome", "unconverted")
                        continue

                try:
                    run = self._probe(strategy, program, inputs)
                except Exception as exc:
                    last_error = exc
                    last_detail = f"{type(exc).__name__}: {exc}"
                    stages.append(StageOutcome(name, "error", last_detail))
                    stage_span.set_attr("outcome", "error")
                    continue

                divergence = reference.diff(run.trace)
                if divergence is None:
                    stages.append(StageOutcome(name, "validated"))
                    stage_span.set_attr("outcome", "validated")
                    return self._won(program, name, stages, rewrite_report,
                                     reordered=False)
                if traces_reordered(reference, run.trace):
                    stages.append(StageOutcome(
                        name, "validated-reordered",
                        "same events, different order"))
                    stage_span.set_attr("outcome", "validated-reordered")
                    return self._won(program, name, stages, rewrite_report,
                                     reordered=True)
                last_detail = divergence
                stages.append(StageOutcome(name, "divergent", divergence))
                stage_span.set_attr("outcome", "divergent")

        return self._lost(program, stages, rewrite_report, last_error,
                          last_detail)

    def _synthesize_rewrite_refusal(self, program: Program,
                                    blocking: tuple[str, ...]
                                    ) -> ConversionReport:
        """The report the rewrite attempt would have produced.

        Mirrors the supervisor's analyze-failure path exactly: in the
        cascade the supervisor carries no verb pins, so a blocking
        program fails regardless of the analyst's answer -- but the
        ``pin-verb`` question is still posed (and posed here, at the
        same point), keeping stateful analysts' transcripts identical
        to a run that pays for the attempt.
        """
        # The supervisor's _phase wrapper annotates the raised error
        # with program/phase context before str()-ing it into the
        # report; build the same exception so the text cannot drift.
        failure = str(AnalysisError(blocking_failure(blocking),
                                    program=program.name, phase="analyze"))
        report = ConversionReport(program.name, STATUS_FAILED)
        question = pin_verb_question(program.name, failure)
        if self.analyst is not None:
            self.analyst.answer(question)
        report.questions.append(question.render())
        report.failure = failure
        return report

    # -- report assembly ----------------------------------------------

    def _won(self, program: Program, name: str,
             stages: list[StageOutcome],
             rewrite_report: ConversionReport | None,
             reordered: bool) -> ConversionReport:
        if name == "rewrite":
            # The conversion report already carries the right band
            # (automatic / warnings / assisted).
            report = rewrite_report
        else:
            report = ConversionReport(program.name, STATUS_FELL_BACK)
            if rewrite_report is not None:
                report.questions.extend(rewrite_report.questions)
                if rewrite_report.failure:
                    report.notes.append(
                        f"rewrite failed: {rewrite_report.failure}"
                    )
        if reordered:
            report.warnings.append(
                f"{name}: trace order diverges from the source run "
                "(same event multiset; scan-order difference)"
            )
            if report.status == STATUS_AUTOMATIC:
                report.status = STATUS_WARNINGS
        report.strategy = name
        report.stages = list(stages)
        return report

    def _lost(self, program: Program, stages: list[StageOutcome],
              rewrite_report: ConversionReport | None,
              last_error: Exception | None,
              last_detail: str) -> ConversionReport:
        report = rewrite_report if rewrite_report is not None else \
            ConversionReport(program.name, STATUS_FAILED)
        report.status = STATUS_FAILED
        report.failure = last_detail
        # Every stage failed: a target rewrite generated may not serve.
        report.target_program = None
        report.strategy = None
        report.stages = list(stages)
        if last_error is not None:
            report.fault = FaultContext.from_exception(
                last_error, program=program.name, phase="cascade",
            )
        else:
            report.fault = FaultContext(
                error_type="TraceDivergence", message=last_detail,
                program=program.name, phase="cascade",
            )
        return report
