"""The rewrite strategy: Figure 4.1 as a strategy object.

"The drawbacks of the existing strategies described above can be
avoided by 'rewriting' the application programs (using the conversion
system) to take advantage of the restructured database." (Section 2.2)

Programs are converted once (conversion cost is reported separately by
:meth:`RewriteStrategy.conversion_report`); each run then executes the
converted program directly against the target database with no
per-call overhead.
"""

from __future__ import annotations

from repro.core.analyzer_db import ChangeCatalog
from repro.core.optimizer import CostModel
from repro.core.supervisor import Analyst, ConversionSupervisor
from repro.core.report import ConversionReport
from repro.errors import ConversionError
from repro.network.database import NetworkDatabase
from repro.programs.ast import Program
from repro.programs.interpreter import Interpreter, ProgramInputs
from repro.restructure.operators import RestructuringOperator
from repro.schema.model import Schema
from repro.strategies.base import ConversionStrategy, StrategyRun


class RewriteStrategy(ConversionStrategy):
    """Converts programs through the framework, then runs them natively."""

    name = "rewrite"

    def __init__(self, target_db: NetworkDatabase, source_schema: Schema,
                 operator: RestructuringOperator,
                 analyst: Analyst | None = None,
                 cost_model: CostModel | None = None,
                 rule_catalog=None,
                 catalog: ChangeCatalog | None = None):
        self.target_db = target_db
        self.supervisor = ConversionSupervisor(source_schema, operator,
                                               analyst=analyst,
                                               cost_model=cost_model,
                                               rule_catalog=rule_catalog,
                                               catalog=catalog)
        self._converted: dict[str, ConversionReport] = {}

    def conversion_report(self, program: Program) -> ConversionReport:
        """Convert (memoized) and return the full report."""
        report = self._converted.get(program.name)
        if report is None:
            report = self.supervisor.convert_program(program)
            self._converted[program.name] = report
        return report

    def run(self, program: Program,
            inputs: ProgramInputs | None = None) -> StrategyRun:
        report = self.conversion_report(program)
        if report.target_program is None:
            raise ConversionError(
                f"program {program.name} did not convert: {report.failure}"
            )
        with self._measured(self.target_db.metrics) as scope:
            interpreter = Interpreter(self.target_db, inputs)
            trace = interpreter.run(report.target_program)
        return StrategyRun(self.name, program.name, trace, scope.delta)
