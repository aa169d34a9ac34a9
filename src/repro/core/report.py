"""Conversion reports.

The Conversion Supervisor "oversees the operation of the other
modules" and surfaces what happened to the Conversion Analyst.  A
:class:`ConversionReport` is the per-program record: the status band,
the intermediate artifacts, the notes/warnings the rules produced, and
the analyst dialogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.abstract import AbstractProgram, render_abstract
from repro.programs.ast import Program, render_program
from repro.programs.parser import parse_program

#: Status bands, in decreasing order of automation (the E2 experiment
#: reports the corpus distribution across these, mirroring the paper's
#: "65-70 percent success rate" discussion of Section 2.1.1).
STATUS_AUTOMATIC = "automatic"
STATUS_WARNINGS = "converted-with-warnings"
STATUS_ASSISTED = "analyst-assisted"
#: The rewrite pipeline could not produce a validated program but one
#: of the runtime strategies (emulation, bridge) did -- the Section 2.1
#: fallback the paper keeps in reserve for "programs which cannot be
#: automatically rewritten".
STATUS_FELL_BACK = "fell-back"
STATUS_FAILED = "needs-manual-conversion"
#: The batch supervisor gave up on a poison program: its conversion
#: repeatedly killed the worker process running it (or, serially,
#: raised :class:`~repro.faultinject.WorkerKilled`), so the program was
#: pulled from the batch with a synthesized report instead of sinking
#: the run.  Like ``STATUS_FAILED`` this is a needs-manual band --
#: ``converted`` stays False -- but the distinct status tells the
#: analyst *why*: the program is hostile to the conversion machinery
#: itself, not merely unconvertible.
STATUS_QUARANTINED = "quarantined"


@dataclass(frozen=True)
class StageOutcome:
    """One stage of the strategy fallback cascade.

    ``outcome`` is 'validated' | 'validated-reordered' | 'unconverted'
    | 'error' | 'divergent' | 'skipped'.
    """

    strategy: str
    outcome: str
    detail: str = ""

    def render(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.strategy}: {self.outcome}{suffix}"

    def to_dict(self) -> dict[str, str]:
        return {"strategy": self.strategy, "outcome": self.outcome,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict[str, str]) -> "StageOutcome":
        return cls(data["strategy"], data["outcome"],
                   data.get("detail", ""))


@dataclass(frozen=True)
class FaultContext:
    """Structured context for a fault isolated by the batch supervisor:
    which program, which pipeline phase, which statement, and the full
    ``raise ... from`` cause chain down to the root."""

    error_type: str
    message: str
    program: str | None = None
    phase: str | None = None
    statement: str | None = None
    cause_chain: tuple[str, ...] = ()

    @classmethod
    def from_exception(cls, exc: BaseException,
                       program: str | None = None,
                       phase: str | None = None) -> "FaultContext":
        """Capture an exception plus its ``__cause__``/``__context__``
        chain.  Context carried on the exception itself (the
        ConversionError ``program=``/``phase=``/``statement=`` fields)
        wins over the caller's defaults."""
        message = str(exc.args[0]) if exc.args else str(exc)
        chain: list[str] = []
        seen = {id(exc)}
        cause = exc.__cause__ if exc.__cause__ is not None else exc.__context__
        while cause is not None and id(cause) not in seen:
            seen.add(id(cause))
            chain.append(f"{type(cause).__name__}: {cause}")
            cause = cause.__cause__ if cause.__cause__ is not None \
                else cause.__context__
        return cls(
            error_type=type(exc).__name__,
            message=message,
            program=getattr(exc, "program", None) or program,
            phase=getattr(exc, "phase", None) or phase,
            statement=getattr(exc, "statement", None),
            cause_chain=tuple(chain),
        )

    @property
    def root_cause(self) -> str:
        if self.cause_chain:
            return self.cause_chain[-1]
        return f"{self.error_type}: {self.message}"

    def render(self) -> str:
        where = ", ".join(
            f"{key}={value}" for key, value in (
                ("program", self.program), ("phase", self.phase),
                ("statement", self.statement),
            ) if value is not None
        )
        lines = [f"{self.error_type}: {self.message}"
                 + (f" [{where}]" if where else "")]
        for link in self.cause_chain:
            lines.append(f"  caused by {link}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "error_type": self.error_type,
            "message": self.message,
            "program": self.program,
            "phase": self.phase,
            "statement": self.statement,
            "cause_chain": list(self.cause_chain),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultContext":
        return cls(
            error_type=data["error_type"],
            message=data["message"],
            program=data.get("program"),
            phase=data.get("phase"),
            statement=data.get("statement"),
            cause_chain=tuple(data.get("cause_chain", ())),
        )


class _ParsedOnRead:
    """:attr:`ConversionReport.target_program`: the program as set, or
    the report's kept ``target_text`` parsed the first time it is read
    (either is held in ``report._target``).

    As a dataclass field's default it keeps ``target_program`` an
    ordinary constructor argument and field (read from the class it is
    the default, ``None``); setting it drops any kept text."""

    def __get__(self, report: Any, owner: type | None = None) -> Program | None:
        if report is None:
            return None
        if report._target is None and report.target_text is not None:
            report._target = parse_program(report.target_text)
        return report._target

    def __set__(self, report: Any, program: Program | None) -> None:
        report._target = program
        report.target_text = None


@dataclass
class ConversionReport:
    """Everything the supervisor learned converting one program.

    A report read back from a summary (:meth:`from_summary`: the pool
    merge and a resume) keeps the summary's ``target_text`` and parses
    it only when :attr:`target_program` is first read; :meth:`to_summary`
    and :attr:`converted` use the kept text as it is, so such a report
    is written back out without a parse or a render (the render/parse
    round trip is exact).
    """

    program_name: str
    status: str
    target_program: Program | None = _ParsedOnRead()  # type: ignore[assignment]
    abstract_source: AbstractProgram | None = None
    abstract_target: AbstractProgram | None = None
    notes: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    questions: list[str] = field(default_factory=list)
    failure: str | None = None
    #: The strategy that ended up serving the program ('rewrite' |
    #: 'emulation' | 'bridge'), when the fallback cascade decided.
    strategy: str | None = None
    #: Per-stage cascade outcomes, in attempt order.
    stages: list[StageOutcome] = field(default_factory=list)
    #: Structured context when the program faulted.
    fault: FaultContext | None = None
    #: The rendered target kept from a summary until
    #: :attr:`target_program` is set (after it in field order: setting
    #: the target clears this).
    target_text: str | None = field(default=None, repr=False, compare=False)

    @property
    def converted(self) -> bool:
        """A program counts as converted when a rewritten target exists
        OR a runtime strategy (emulation/bridge) validated -- Section
        1.1's "each program actually existing in the source system has
        been converted" admits either."""
        if self.target_text is not None or self._target is not None:
            return True
        return self.strategy is not None and self.status != STATUS_FAILED

    def render(self, include_programs: bool = False) -> str:
        lines = [f"=== {self.program_name}: {self.status} ==="]
        if self.strategy:
            lines.append(f"  strategy: {self.strategy}")
        for stage in self.stages:
            lines.append(f"  stage {stage.render()}")
        if self.failure:
            lines.append(f"  failure: {self.failure}")
        if self.fault is not None:
            for fault_line in self.fault.render().splitlines():
                lines.append(f"  fault: {fault_line}")
        for question in self.questions:
            lines.append(f"  analyst: {question}")
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if include_programs and self.abstract_source is not None:
            lines.append(render_abstract(self.abstract_source))
        if include_programs and self.target_program is not None:
            lines.append(render_program(self.target_program))
        return "\n".join(lines)

    def rendered_target(self) -> str | None:
        """The target program's text: the kept text, or a render of the
        set target; ``None`` when there is no target."""
        if self.target_text is not None or self._target is None:
            return self.target_text
        return render_program(self._target)

    # -- checkpoint serialization -------------------------------------

    def to_summary(self) -> dict[str, Any]:
        """A JSON-able summary carrying everything the batch checkpoint
        needs to resume: the status bookkeeping plus the rendered
        target program (:meth:`rendered_target`; the render/parse round
        trip is exact)."""
        return {
            "program": self.program_name,
            "status": self.status,
            "strategy": self.strategy,
            "target_text": self.rendered_target(),
            "notes": list(self.notes),
            "warnings": list(self.warnings),
            "questions": list(self.questions),
            "failure": self.failure,
            "stages": [stage.to_dict() for stage in self.stages],
            "fault": self.fault.to_dict() if self.fault else None,
        }

    @classmethod
    def from_summary(cls, summary: dict[str, Any]) -> "ConversionReport":
        """The report a summary describes, keeping its ``target_text``
        unparsed."""
        return cls(
            program_name=summary["program"],
            status=summary["status"],
            target_text=summary.get("target_text") or None,
            notes=list(summary.get("notes", ())),
            warnings=list(summary.get("warnings", ())),
            questions=list(summary.get("questions", ())),
            failure=summary.get("failure"),
            strategy=summary.get("strategy"),
            stages=[StageOutcome.from_dict(stage)
                    for stage in summary.get("stages", ())],
            fault=(FaultContext.from_dict(summary["fault"])
                   if summary.get("fault") else None),
        )


@dataclass
class BatchReport:
    """A whole application system's conversion (Section 1.1: "a
    database application system is converted when each program actually
    existing in the source system has been converted")."""

    reports: list[ConversionReport] = field(default_factory=list)

    def add(self, report: ConversionReport) -> None:
        self.reports.append(report)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for report in self.reports:
            out[report.status] = out.get(report.status, 0) + 1
        return out

    def automation_rate(self) -> float:
        """Fraction converted without analyst involvement."""
        if not self.reports:
            return 0.0
        automatic = sum(
            1 for r in self.reports
            if r.status in (STATUS_AUTOMATIC, STATUS_WARNINGS)
        )
        return automatic / len(self.reports)

    def conversion_rate(self) -> float:
        """Fraction converted at all (with or without the analyst)."""
        if not self.reports:
            return 0.0
        converted = sum(1 for r in self.reports if r.converted)
        return converted / len(self.reports)

    def faults(self) -> list[FaultContext]:
        """The structured fault contexts of every faulted program."""
        return [r.fault for r in self.reports if r.fault is not None]

    def render(self) -> str:
        lines = [f"{len(self.reports)} program(s) processed:"]
        for status, count in sorted(self.counts().items()):
            lines.append(f"  {status}: {count}")
        lines.append(
            f"  automation rate: {self.automation_rate():.0%}; "
            f"conversion rate: {self.conversion_rate():.0%}"
        )
        return "\n".join(lines)

    def to_summary(self) -> dict[str, Any]:
        return {"reports": [r.to_summary() for r in self.reports]}
