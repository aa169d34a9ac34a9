"""Section 3.2 pathology detectors.

Four detectors, one per difficulty the paper names:

* **verb variability** -- a call-interface DML whose verb expression is
  not a provable run-time constant ("what appeared to be a read at
  compile time might become an update");
* **order dependence** -- observable output emitted per member inside a
  set scan, so I/O depends on member presentation order;
* **process-first** -- a FIND FIRST whose result is used without a
  FIND NEXT loop ("may have intended to process all dependent records
  ... but may have written a program which will process the first");
* **status-code dependence** -- branching on specific non-OK status
  codes ("certain restructurings will cause a different status code to
  be returned").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.dataflow import is_runtime_constant
from repro.programs import ast
from repro.programs.ast import Program, Stmt, children_of, walk_program


@dataclass(frozen=True)
class Finding:
    """One detected pathology."""

    kind: str          # 'verb-variability' | 'order-dependence' |
                       # 'process-first' | 'status-code'
    statement: str     # rendered statement
    detail: str
    blocking: bool     # True when conversion cannot proceed mechanically

    def render(self) -> str:
        marker = "BLOCKING" if self.blocking else "warning"
        return f"[{marker}] {self.kind}: {self.detail} ({self.statement})"


#: Status codes that flow from normal loop termination; branching on
#: these is idiomatic, not pathological.
_BENIGN_CODES = {"0000"}

#: The finding :mod:`repro.cost`'s rewrite-skip check reads; the
#: cascade's synthesized refusal quotes it byte-for-byte.
VERB_VARIABILITY_DETAIL = (
    "DML verb is a run-time expression; the request may change "
    "during execution (Section 3.2)"
)


def detect_verb_variability(program: Program) -> list[Finding]:
    """Call-interface DML whose verb is not provably constant."""
    findings = []
    for stmt in walk_program(program):
        if not isinstance(stmt, ast.NetGenericCall):
            continue
        if is_runtime_constant(program, stmt.verb):
            continue
        findings.append(Finding(
            "verb-variability", stmt.render(),
            VERB_VARIABILITY_DETAIL,
            blocking=True,
        ))
    return findings


def detect_order_dependence(program: Program) -> list[Finding]:
    """Find I/O emitted per-member inside set-scan loops."""
    findings = []

    def scan_sets_in(condition_stmts: tuple[Stmt, ...]) -> set[str]:
        names = set()
        for stmt in condition_stmts:
            if isinstance(stmt, (ast.NetFindNext, ast.NetFindFirst,
                                 ast.NetFindNextUsing)):
                names.add(stmt.set_name)
        return names

    def visit(statements: tuple[Stmt, ...]) -> None:
        for stmt in statements:
            if isinstance(stmt, ast.While):
                sets = scan_sets_in(tuple(walk_program(
                    Program("_", program.model, program.schema_name,
                            stmt.body)
                )))
                if sets:
                    emits = [
                        inner for inner in _walk_block(stmt.body)
                        if isinstance(inner, (ast.WriteTerminal,
                                              ast.WriteFile))
                    ]
                    for emitted in emits:
                        findings.append(Finding(
                            "order-dependence", emitted.render(),
                            "output emitted per member of set(s) "
                            f"{sorted(sets)}; I/O depends on member "
                            "presentation order",
                            blocking=False,
                        ))
            for block in children_of(stmt):
                visit(block)

    visit(program.statements)
    for procedure in program.procedures:
        visit(procedure.body)
    findings += _detect_relational_order_dependence(program)
    return findings


def _detect_relational_order_dependence(program: Program) -> list[Finding]:
    """FOR EACH over an unordered query result that emits output: the
    row order is an accident of base-relation order, the relational
    twin of the navigational order dependence."""
    findings: list[Finding] = []
    unordered_rows_vars = set()
    for stmt in walk_program(program):
        if isinstance(stmt, ast.RelQuery) and \
                "ORDER BY" not in stmt.sequel.upper():
            unordered_rows_vars.add(stmt.into_var)
    for stmt in walk_program(program):
        if not isinstance(stmt, ast.ForEachRow):
            continue
        if stmt.rows_var not in unordered_rows_vars:
            continue
        for inner in _walk_block(stmt.body):
            if isinstance(inner, (ast.WriteTerminal, ast.WriteFile)):
                findings.append(Finding(
                    "order-dependence", inner.render(),
                    f"output emitted per row of unordered query result "
                    f"{stmt.rows_var}; add ORDER BY or accept "
                    "presentation-order dependence (Section 3.2)",
                    blocking=False,
                ))
    return findings


def _walk_block(statements: tuple[Stmt, ...]):
    for stmt in statements:
        yield stmt
        for block in children_of(stmt):
            yield from _walk_block(block)


def detect_process_first(program: Program) -> list[Finding]:
    """FIND FIRST with no corresponding FIND NEXT on the same set."""
    findings = []
    scanned_sets = {
        stmt.set_name for stmt in walk_program(program)
        if isinstance(stmt, (ast.NetFindNext, ast.NetFindNextUsing))
    }
    for stmt in walk_program(program):
        if not isinstance(stmt, ast.NetFindFirst):
            continue
        if stmt.set_name in scanned_sets:
            continue
        findings.append(Finding(
            "process-first", stmt.render(),
            f"only the first member of {stmt.set_name} is processed; "
            "if the application meant 'process all', behaviour depends "
            "on the occurrence having one member (Section 3.2)",
            blocking=False,
        ))
    return findings


def detect_status_code_dependence(program: Program) -> list[Finding]:
    """Branches comparing DB-STATUS to specific non-OK codes."""
    findings = []

    def check_expr(expr: ast.Expr, statement: Stmt) -> None:
        if isinstance(expr, ast.Bin):
            if (expr.op in ("=", "<>")
                    and isinstance(expr.left, ast.Var)
                    and expr.left.name == "DB-STATUS"
                    and isinstance(expr.right, ast.Const)
                    and expr.right.value not in _BENIGN_CODES):
                findings.append(Finding(
                    "status-code", statement.render(),
                    f"branches on status code {expr.right.value!r}; "
                    "restructuring may return a different code "
                    "(Section 3.2)",
                    blocking=False,
                ))
            check_expr(expr.left, statement)
            check_expr(expr.right, statement)

    for stmt in walk_program(program):
        if isinstance(stmt, ast.If):
            check_expr(stmt.condition, stmt)
        elif isinstance(stmt, ast.While):
            check_expr(stmt.condition, stmt)
    return findings


def detect_pathologies(program: Program) -> list[Finding]:
    """All four Section 3.2 detectors, in severity order."""
    findings = detect_verb_variability(program)
    findings += detect_order_dependence(program)
    findings += detect_process_first(program)
    findings += detect_status_code_dependence(program)
    return findings
