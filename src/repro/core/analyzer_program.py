"""The Program Analyzer (Figure 4.1).

"The Program Analyzer uses the source database description and matches
candidate language templates against the source application program to
produce a representation of the database operations and data access
patterns made by the program."

Analysis steps:

1. run the Section 3.2 pathology detectors; *blocking* findings
   (run-time verb variability) abort analysis unless the conversion
   analyst has pinned the verb to a constant;
2. template-match the statement tree into an abstract program
   (:mod:`repro.core.abstract`);
3. attach warnings (order dependence, process-first, status-code
   dependence) as notes for the supervisor's report.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.variability import detect_pathologies
from repro.core.abstract import ALocate, AQuery, AbstractProgram
from repro.core.templates import NetworkTemplateMatcher, _conds
from repro.errors import AnalysisError
from repro.programs import ast
from repro.schema.model import Schema


def blocking_failure(details: list[str] | tuple[str, ...]) -> str:
    """The analyzer's refusal message for blocking findings.

    Shared with the cascade, whose rewrite skip (the :mod:`repro.cost`
    blocking check) must synthesize the exact same failure text the
    real analyzer raises.
    """
    return ("program cannot be analyzed mechanically: "
            + "; ".join(details))


class ProgramAnalyzer:
    """Derives abstract programs from concrete database programs."""

    def __init__(self, schema: Schema):
        self.schema = schema

    def analyze(self, program: ast.Program,
                pinned_verbs: dict[int, str] | None = None
                ) -> AbstractProgram:
        """Produce the abstract program.

        ``pinned_verbs`` maps the position (index among NetGenericCall
        statements, in walk order) to a verb string the analyst has
        asserted constant -- the interactive resolution the paper
        expects for Section 3.2 variability.
        """
        findings = detect_pathologies(program)
        blocking = [f for f in findings if f.blocking]
        if pinned_verbs:
            program = _pin_verbs(program, pinned_verbs)
            findings = detect_pathologies(program)
            blocking = [f for f in findings if f.blocking]
        if blocking:
            raise AnalysisError(
                blocking_failure([f.detail for f in blocking])
            )
        if program.procedures:
            # Inline-free analysis: procedures are analyzed but calls
            # are left opaque only if a procedure contains DML.
            for procedure in program.procedures:
                for stmt in ast.walk(procedure.body):
                    if isinstance(stmt, ast.DML_NODES):
                        raise AnalysisError(
                            f"procedure {procedure.name} contains DML; "
                            "inline it before analysis (sub-program DML "
                            "analysis is future work, Section 5.3)"
                        )
        statements = self._analyze_block(program)
        notes = tuple(f.render() for f in findings)
        return AbstractProgram(program.name, program.model,
                               program.schema_name, statements, notes)

    def _analyze_block(self, program: ast.Program):
        if program.model == "network":
            matcher = NetworkTemplateMatcher(self.schema)
            return matcher.match_block(program.statements)
        if program.model == "relational":
            return _match_relational(program.statements)
        if program.model == "hierarchical":
            raise AnalysisError(
                "hierarchical programs are converted by command "
                "substitution (Mehl & Wang, Section 2.2); use "
                "repro.core.command_substitution"
            )
        raise AnalysisError(f"unknown program model {program.model!r}")


def _match_relational(statements: tuple[ast.Stmt, ...]):
    out = []
    for stmt in statements:
        if isinstance(stmt, ast.RelQuery):
            out.append(AQuery(stmt.sequel, stmt.into_var, stmt.parameters))
        elif isinstance(stmt, ast.RelInsert):
            from repro.core.abstract import AStore

            out.append(AStore(stmt.relation, stmt.values))
        elif isinstance(stmt, ast.RelDelete):
            from repro.core.abstract import AErase

            out.append(ALocate(stmt.relation, _conds(stmt.equal),
                               bind=False))
            out.append(AErase(stmt.relation))
        elif isinstance(stmt, ast.RelUpdate):
            from repro.core.abstract import AModify

            out.append(ALocate(stmt.relation, _conds(stmt.equal),
                               bind=False))
            out.append(AModify(stmt.relation, stmt.updates))
        elif isinstance(stmt, ast.If):
            out.append(replace(stmt,
                               then=_match_relational(stmt.then),
                               orelse=_match_relational(stmt.orelse)))
        elif isinstance(stmt, ast.While):
            out.append(replace(stmt, body=_match_relational(stmt.body)))
        elif isinstance(stmt, ast.ForEachRow):
            out.append(replace(stmt, body=_match_relational(stmt.body)))
        else:
            out.append(stmt)
    return tuple(out)


def _pin_verbs(program: ast.Program,
               pinned: dict[int, str]) -> ast.Program:
    """Replace NetGenericCall verbs with analyst-asserted constants."""
    counter = {"index": -1}

    def fix(stmt: ast.Stmt):
        if isinstance(stmt, ast.NetGenericCall):
            counter["index"] += 1
            verb = pinned.get(counter["index"])
            if verb is not None:
                return replace(stmt, verb=ast.Const(verb))
        return stmt

    return ast.transform_program(program, fix)
