"""Dataflow analysis over the program AST.

The paper requires that "any software which attempts to understand the
program's behavior from a source language version of the program must
(through data flow analysis techniques) make sure that the commands do
not vary at run time" (Section 3.2).  The analysis here is deliberately
conservative: a variable counts as a run-time constant only when it is
assigned exactly once, from a literal, outside any loop or branch, and
is never re-bound by terminal/file input, GET bindings, or query
results.

Deciding that takes a walk over every binding of the program, so it is
done once per program and question: :func:`runtime_constants` counts
the bindings of just the variables asked about that have a top-level
``MOVE literal`` (no walk at all when none has), and
:func:`is_constant_under` answers each expression from its result.
The walks dispatch on exact node types (no AST class has a subclass).
"""

from __future__ import annotations

from typing import Any, Collection

from repro.programs import ast
from repro.programs.ast import (
    Assign,
    Bin,
    Const,
    Expr,
    Program,
    Stmt,
    Var,
    walk_program,
)


def assigned_variables(program: Program,
                       names: Collection[str]) -> dict[str, int]:
    """How many times each of ``names`` is (potentially) assigned; a
    name never bound is left out.

    Assignments inside loops count as 2 (may repeat); GET/GU/GN/query
    bindings count their implicit targets.  Only the names asked about
    are counted, so a caller that needs a few counts does not pay for a
    dictionary of every variable of a long program.
    """
    counts: dict[str, int] = {}

    def visit(statements: tuple[Stmt, ...], weight: int) -> None:
        for stmt in statements:
            kind = type(stmt)
            if kind is Assign or kind is ast.ReadTerminal \
                    or kind is ast.ReadFile:
                name = stmt.var
            elif kind is ast.RelQuery:
                name = stmt.into_var
            elif kind is ast.NetGet:
                name = f"{stmt.record}.*"
            elif kind is ast.If:
                visit(stmt.then, weight)
                visit(stmt.orelse, weight)
                continue
            elif kind is ast.While:
                visit(stmt.body, 2)
                continue
            elif kind is ast.ForEachRow:
                name = f"{stmt.row_var}.*"
                if name in names:
                    counts[name] = counts.get(name, 0) + 2
                visit(stmt.body, 2)
                continue
            else:
                continue
            if name in names:
                counts[name] = counts.get(name, 0) + weight

    visit(program.statements, 1)
    for procedure in program.procedures:
        # Called procedures may run any number of times.
        visit(procedure.body, 2)
    return counts


def runtime_constants(program: Program,
                      names: Collection[str]) -> dict[str, Any]:
    """Each of ``names`` that is provably a run-time constant, with its
    value.

    Provable means: exactly one top-level ``MOVE literal TO name`` and
    no other binding anywhere in the program.  Only the variables with
    such a MOVE are candidates, and their bindings are counted in one
    walk (none when there is no candidate), so a caller asking about
    several expressions of one program computes this once and asks
    :func:`is_constant_under`.
    """
    candidates = {
        stmt.var: stmt.expr.value
        for stmt in program.statements  # top level only
        if type(stmt) is Assign
        and type(stmt.expr) is Const
        and stmt.var in names
    }
    if not candidates:
        return {}
    counts = assigned_variables(program, candidates)
    return {
        name: value for name, value in candidates.items() if counts[name] == 1
    }


def constant_value(program: Program, name: str) -> tuple[bool, Any]:
    """(True, value) when ``name`` is provably a run-time constant
    (see :func:`runtime_constants`)."""
    constants = runtime_constants(program, (name,))
    if name in constants:
        return True, constants[name]
    return False, None


def is_runtime_constant(program: Program, expr: Expr) -> bool:
    """Is this expression's value fixed for the whole run?"""
    return is_constant_under(
        expr, runtime_constants(program, expression_variables(expr)))


def is_constant_under(expr: Expr, constants: dict[str, Any]) -> bool:
    """Is ``expr`` fixed for the whole run, given its program's
    :func:`runtime_constants` (at least those of its variables)?"""
    kind = type(expr)
    if kind is Const:
        return True
    if kind is Var:
        return expr.name in constants
    if kind is Bin:
        return (is_constant_under(expr.left, constants)
                and is_constant_under(expr.right, constants))
    return False


def input_tainted_variables(program: Program) -> set[str]:
    """Variables whose value may derive from terminal or file input
    (transitively through assignments)."""
    tainted: set[str] = set()
    for stmt in walk_program(program):
        if isinstance(stmt, (ast.ReadTerminal, ast.ReadFile)):
            tainted.add(stmt.var)
    # Propagate through assignments to a fixpoint.
    changed = True
    while changed:
        changed = False
        for stmt in walk_program(program):
            if not isinstance(stmt, Assign) or stmt.var in tainted:
                continue
            if _mentions_any(stmt.expr, tainted):
                tainted.add(stmt.var)
                changed = True
    return tainted


def _mentions_any(expr: Expr, names: set[str]) -> bool:
    if isinstance(expr, Var):
        return expr.name in names
    if isinstance(expr, Bin):
        return (_mentions_any(expr.left, names)
                or _mentions_any(expr.right, names))
    return False


def expression_variables(expr: Expr) -> set[str]:
    """All variable names mentioned in an expression."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Bin):
        return expression_variables(expr.left) | \
            expression_variables(expr.right)
    return set()
