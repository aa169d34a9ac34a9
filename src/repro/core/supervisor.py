"""The Conversion Supervisor and the Conversion Analyst protocol.

"The system is intended to be interactive and controlled by a
Conversion Analyst interacting with the Program Conversion Supervisor
... if data referenced by an old program has been deleted or multiple
data paths can be found to carry out an access then these issues can
be resolved interactively." (Section 4)

The analyst is modeled as a protocol so experiments can script it:
:class:`AutoAnalyst` answers with defaults (full automation),
:class:`ScriptedAnalyst` replays prepared answers, and
:class:`RefusingAnalyst` declines everything (measuring the purely
mechanical automation rate -- the E2 experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.abstract import AScan, walk as walk_abstract
from repro.core.analyzer_db import ChangeCatalog, ConversionAnalyzer
from repro.core.analyzer_program import ProgramAnalyzer
from repro.core.converter import ProgramConverter
from repro.core.generator import ProgramGenerator
from repro.core.optimizer import CostModel, Optimizer
from repro.core.report import (
    BatchReport,
    ConversionReport,
    STATUS_ASSISTED,
    STATUS_AUTOMATIC,
    STATUS_FAILED,
    STATUS_WARNINGS,
)
from repro.errors import (
    AnalysisError,
    ConversionError,
    GenerationError,
    PipelineFault,
    UnconvertiblePattern,
    annotate,
)
from repro.options import DEFAULT_OPTIMIZER_PASSES, ConversionOptions
from repro.observe.tracing import span
from repro.programs import ast
from repro.restructure.operators import RestructuringOperator
from repro.schema.model import Schema


@dataclass(frozen=True)
class AnalystQuestion:
    """One issue raised to the Conversion Analyst."""

    kind: str       # 'pin-verb' | 'ambiguous-path' | 'unconvertible'
    program: str
    text: str
    options: tuple[str, ...] = ()

    def render(self) -> str:
        options = f" [{'/'.join(self.options)}]" if self.options else ""
        return f"({self.kind}) {self.text}{options}"


def pin_verb_question(program_name: str, failure: str) -> AnalystQuestion:
    """The Section 3.2 verb-variability refusal, as a question.

    Shared with the cascade's cost-based skip path: when the predictor
    proves the analyzer would refuse, the cascade poses this exact
    question without running the pipeline, so analyst transcripts are
    identical either way.
    """
    return AnalystQuestion("pin-verb", program_name, failure)


class Analyst:
    """Protocol: return an answer string, or None to decline."""

    def answer(self, question: AnalystQuestion) -> str | None:
        raise NotImplementedError


class AutoAnalyst(Analyst):
    """Answers with permissive defaults; can pin DML verbs.

    ``verb_pins`` maps program name -> {generic-call index -> verb}.
    """

    def __init__(self, verb_pins: dict[str, dict[int, str]] | None = None):
        self.verb_pins = verb_pins or {}

    def answer(self, question: AnalystQuestion) -> str | None:
        if question.kind == "pin-verb":
            pins = self.verb_pins.get(question.program)
            if pins:
                return "pinned"
            return None
        if question.kind == "ambiguous-path":
            return question.options[0] if question.options else "first"
        return None


class ScriptedAnalyst(Analyst):
    """Replays prepared answers keyed by question kind.

    A value may be a single string (repeated for every question of
    that kind) or a list of strings consumed front to first; an
    exhausted list declines further questions of that kind, modelling
    an analyst who walks away mid-batch.
    """

    def __init__(self, answers: dict[str, str | list[str]]):
        self.answers: dict[str, str | list[str]] = {
            kind: list(value) if isinstance(value, (list, tuple)) else value
            for kind, value in answers.items()
        }
        self.transcript: list[tuple[AnalystQuestion, str | None]] = []

    def answer(self, question: AnalystQuestion) -> str | None:
        value = self.answers.get(question.kind)
        if isinstance(value, list):
            answer = value.pop(0) if value else None
        else:
            answer = value
        self.transcript.append((question, answer))
        return answer


class RefusingAnalyst(Analyst):
    """Declines every question: measures mechanical automation only."""

    def __init__(self):
        self.declined: list[AnalystQuestion] = []

    def answer(self, question: AnalystQuestion) -> str | None:
        self.declined.append(question)
        return None


class ConversionSupervisor:
    """Drives one program (or a whole system) through Figure 4.1."""

    def __init__(self, source_schema: Schema,
                 operator: RestructuringOperator | None = None,
                 target_schema: Schema | None = None,
                 analyst: Analyst | None = None,
                 cost_model: CostModel | None = None,
                 optimizer_passes: tuple[str, ...] =
                 DEFAULT_OPTIMIZER_PASSES,
                 verb_pins: dict[str, dict[int, str]] | None = None,
                 rule_catalog=None,
                 catalog: ChangeCatalog | None = None):
        # ``catalog`` hands in a ChangeCatalog already derived from the
        # same source schema and operator (the cascade's), so a
        # supervisor built per attempt does not analyze again.
        if catalog is not None:
            self.catalog: ChangeCatalog = catalog
        elif operator is not None:
            self.catalog = ConversionAnalyzer().analyze_operator(
                source_schema, operator
            )
        elif target_schema is not None:
            self.catalog = ConversionAnalyzer().analyze_schemas(
                source_schema, target_schema)
        else:
            raise ValueError("supervisor needs an operator or a target schema")
        # ``rule_catalog`` accepts a RuleCatalog or a pre-compiled
        # CompiledRules; None keeps the builtin catalog (resolved
        # lazily by the converter, so this import stays conditional).
        compiled = None
        if rule_catalog is not None:
            from repro.catalog.compile import CompiledRules, compile_catalog
            compiled = rule_catalog \
                if isinstance(rule_catalog, CompiledRules) \
                else compile_catalog(rule_catalog)
        self.rule_catalog = compiled
        self.analyst = analyst if analyst is not None \
            else AutoAnalyst(verb_pins)
        self.program_analyzer = ProgramAnalyzer(source_schema)
        self.converter = ProgramConverter(compiled)
        passes = optimizer_passes if compiled is None \
            else compiled.gate_passes(optimizer_passes)
        self.optimizer = Optimizer(self.catalog.target_schema, cost_model,
                                   passes)
        self.generator = ProgramGenerator(
            self.catalog.target_schema,
            templates=None if compiled is None else compiled.templates)
        self.verb_pins = verb_pins or {}

    @classmethod
    def from_options(cls, source_schema: Schema,
                     operator: RestructuringOperator | None = None,
                     target_schema: Schema | None = None,
                     options: ConversionOptions | None = None
                     ) -> "ConversionSupervisor":
        """Build a supervisor from one :class:`ConversionOptions`
        (the :mod:`repro.api` construction path)."""
        options = options if options is not None else ConversionOptions()
        return cls(source_schema, operator, target_schema,
                   analyst=options.analyst,
                   optimizer_passes=options.optimizer_passes,
                   verb_pins=options.verb_pins,
                   rule_catalog=options.rule_catalog)

    # -- single program ----------------------------------------------------

    def _phase(self, phase: str, program_name: str, thunk):
        """Run one Figure 4.1 phase.  Pipeline errors get their
        ``program=``/``phase=`` context filled in; anything else is
        wrapped in a chained :class:`PipelineFault` so batch isolation
        can report the root cause structurally."""
        try:
            # Phases are pure AST work -- the engine counters only move
            # during reference runs and program execution -- so phase
            # spans skip the registry snapshots; the enclosing
            # ``supervisor.convert`` span takes the program's pair.
            with span(f"phase.{phase}", capture_metrics=False,
                      program=program_name):
                return thunk()
        except ConversionError as error:
            raise annotate(error, program=program_name, phase=phase)
        except Exception as exc:
            raise PipelineFault(
                f"{type(exc).__name__} escaped the {phase} phase: {exc}",
                program=program_name, phase=phase,
            ) from exc

    def convert_program(self, program: ast.Program, *,
                        options: ConversionOptions | None = None
                        ) -> ConversionReport:
        """Convert one program, under a ``supervisor.convert`` span."""
        target_model = options.target_model if options is not None \
            else None
        with span("supervisor.convert", program=program.name):
            return self._convert_program(program, target_model)

    def _convert_program(self, program: ast.Program,
                         target_model: str | None = None
                         ) -> ConversionReport:
        target_model = target_model or program.model
        report = ConversionReport(program.name, STATUS_AUTOMATIC)

        # 1. Program Analyzer (with analyst-assisted verb pinning).
        try:
            abstract_source = self._phase(
                "analyze", program.name,
                lambda: self.program_analyzer.analyze(program))
        except AnalysisError as error:
            pins = self.verb_pins.get(program.name)
            question = pin_verb_question(program.name, str(error))
            answer = self.analyst.answer(question)
            report.questions.append(question.render())
            if answer is None or pins is None:
                report.status = STATUS_FAILED
                report.failure = str(error)
                return report
            try:
                abstract_source = self._phase(
                    "analyze", program.name,
                    lambda: self.program_analyzer.analyze(
                        program, pinned_verbs=pins))
                report.status = STATUS_ASSISTED
            except AnalysisError as retry_error:
                report.status = STATUS_FAILED
                report.failure = str(retry_error)
                return report
        report.abstract_source = abstract_source
        report.notes.extend(abstract_source.notes)

        # 2. Ambiguous access paths are an analyst question (Section 4).
        for ambiguity in self._ambiguous_paths(abstract_source):
            question = AnalystQuestion(
                "ambiguous-path", program.name, ambiguity,
                options=("keep-declared-set", "abort"),
            )
            answer = self.analyst.answer(question)
            report.questions.append(question.render())
            if answer in (None, "abort"):
                report.status = STATUS_FAILED
                report.failure = ambiguity
                return report
            if report.status == STATUS_AUTOMATIC:
                report.status = STATUS_ASSISTED

        # 3. Program Converter.
        try:
            artifacts = self._phase(
                "convert", program.name,
                lambda: self.converter.convert(abstract_source,
                                               self.catalog))
        except UnconvertiblePattern as error:
            question = AnalystQuestion("unconvertible", program.name,
                                       str(error))
            self.analyst.answer(question)
            report.questions.append(question.render())
            report.status = STATUS_FAILED
            report.failure = str(error)
            return report
        report.notes.extend(artifacts.notes)
        report.warnings.extend(artifacts.warnings)

        # 4. Optimizer.
        abstract_target = self._phase(
            "optimize", program.name,
            lambda: self.optimizer.optimize(artifacts.program))
        report.abstract_target = abstract_target

        # 5. Program Generator.
        try:
            target_program = self._phase(
                "generate", program.name,
                lambda: self.generator.generate(abstract_target,
                                                target_model))
        except GenerationError as error:
            report.status = STATUS_FAILED
            report.failure = str(error)
            return report
        report.target_program = target_program

        if report.status == STATUS_AUTOMATIC and report.warnings:
            report.status = STATUS_WARNINGS
        return report

    def _ambiguous_paths(self, abstract_source) -> list[str]:
        """Scans over sets with a parallel set in the target schema."""
        target = self.catalog.target_schema
        ambiguities = []
        for stmt in walk_abstract(abstract_source.statements):
            if not isinstance(stmt, AScan):
                continue
            source_set = self.catalog.source_schema.sets.get(stmt.via)
            if source_set is None:
                continue
            parallels = [
                other.name for other in target.sets.values()
                if other.owner == source_set.owner
                and other.member == source_set.member
                and other.name != stmt.via
                and stmt.via in target.sets
            ]
            if parallels:
                ambiguities.append(
                    f"access to {stmt.entity} can travel {stmt.via} or "
                    f"{parallels}; confirm the declared set"
                )
        return ambiguities

    # -- whole system ------------------------------------------------------------

    def convert_system(self, programs: list[ast.Program], *,
                       options: ConversionOptions | None = None
                       ) -> BatchReport:
        """Convert every program."""
        batch = BatchReport()
        for program in programs:
            batch.add(self.convert_program(program, options=options))
        return batch
