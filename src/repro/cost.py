"""The cascade's rewrite-skip check.

The fallback cascade makes one static decision before it pays for a
rewrite attempt: when the Program Analyzer is certain to refuse the
program, the attempt is skipped and the refusal synthesized.  The
analyzer refuses exactly on the Section 3.2 *blocking* findings (run-time
verb variability), so the check is that detector's own verdict,
computed without the other three pathology detectors or the
template-match pipeline.

The check is a pure function of the program: it never depends on the
databases or on batch history, so the cascade's reports stay
byte-identical at every worker count and in either strategy order.
:func:`~repro.analysis.variability.detect_verb_variability` walks the
program in :func:`~repro.programs.ast.walk_program` order -- the order
the analyzer reports its findings in -- so the synthesized refusal text
is the analyzer's, byte for byte.

Cardinality-driven choices live elsewhere: the optimizer's calc-locate
and hoist-locate passes read a
:class:`~repro.core.optimizer.CostModel` of the target database.
"""

from __future__ import annotations

from repro.analysis.variability import detect_verb_variability
from repro.programs import ast


class CostPredictor:
    """Stateless rewrite-feasibility check for the cascade."""

    def predict(self, program: ast.Program) -> tuple[str, ...]:
        """The program's blocking finding details, in walk order.

        Non-empty means the rewrite pipeline will refuse the program
        mechanically; the details are the text of that refusal.
        """
        return tuple(
            finding.detail
            for finding in detect_verb_variability(program)
            if finding.blocking
        )


__all__ = ["CostPredictor"]
