"""Builder helpers for constructing database programs compactly.

Raw Python values are auto-wrapped in :class:`Const`; strings are NOT
auto-converted to variables (pass :func:`v` explicitly), because the
difference between a literal and a variable is exactly what the
Section 3.2 variability analysis cares about.

The compound helpers (:func:`scan_set`, :func:`scan_set_using`) emit
the *canonical language templates* of Section 4.1 -- FIND FIRST
followed by a status-driven FIND NEXT loop -- which is also the shape
the program analyzer's template matcher recognizes.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.programs import ast
from repro.programs.ast import (
    Assign,
    Bin,
    Const,
    Expr,
    If,
    Program,
    ReadFile,
    ReadTerminal,
    Stmt,
    Var,
    While,
    WriteFile,
    WriteTerminal,
)


def lit(value: Any) -> Expr:
    """Wrap a raw value as a Const; pass Expr nodes through."""
    if isinstance(value, (Const, Var, Bin)):
        return value
    return Const(value)


def v(name: str) -> Var:
    """A program variable reference."""
    return Var(name)


def c(value: Any) -> Const:
    """A literal constant."""
    return Const(value)


def field(record: str, field_name: str) -> Var:
    """The RECORD.FIELD variable bound by GET."""
    return Var(f"{record}.{field_name}")


# -- expression combinators ---------------------------------------------------


def eq(left: Any, right: Any) -> Bin:
    """``left = right``."""
    return Bin("=", lit(left), lit(right))


def ne(left: Any, right: Any) -> Bin:
    """``left <> right``."""
    return Bin("<>", lit(left), lit(right))


def lt(left: Any, right: Any) -> Bin:
    """``left < right``."""
    return Bin("<", lit(left), lit(right))


def le(left: Any, right: Any) -> Bin:
    """``left <= right``."""
    return Bin("<=", lit(left), lit(right))


def gt(left: Any, right: Any) -> Bin:
    """``left > right``."""
    return Bin(">", lit(left), lit(right))


def ge(left: Any, right: Any) -> Bin:
    """``left >= right``."""
    return Bin(">=", lit(left), lit(right))


def add(left: Any, right: Any) -> Bin:
    """``left + right``."""
    return Bin("+", lit(left), lit(right))


def and_(left: Any, right: Any) -> Bin:
    """Boolean AND (short-circuit)."""
    return Bin("AND", lit(left), lit(right))


def or_(left: Any, right: Any) -> Bin:
    """Boolean OR (short-circuit)."""
    return Bin("OR", lit(left), lit(right))


# -- host statements --------------------------------------------------------


def assign(var: str, value: Any) -> Assign:
    """``MOVE value TO var``."""
    return Assign(var, lit(value))


def display(*values: Any) -> WriteTerminal:
    """``DISPLAY`` values to the terminal (space-joined)."""
    return WriteTerminal(tuple(lit(value) for value in values))


def accept(var: str, prompt: str | None = None) -> ReadTerminal:
    """``ACCEPT`` a terminal line into a variable."""
    return ReadTerminal(var, prompt)


def read_file(file_name: str, var: str) -> ReadFile:
    """``READ file INTO var`` (non-database file)."""
    return ReadFile(file_name, var)


def write_file(file_name: str, *values: Any) -> WriteFile:
    """``WRITE`` values to a non-database file."""
    return WriteFile(file_name, tuple(lit(value) for value in values))


def if_(condition: Any, then: Sequence[Stmt],
        orelse: Sequence[Stmt] = ()) -> If:
    """``IF condition ... [ELSE ...] END-IF``."""
    return If(lit(condition), tuple(then), tuple(orelse))


def while_(condition: Any, body: Sequence[Stmt]) -> While:
    """``PERFORM WHILE condition ... END-PERFORM``."""
    return While(lit(condition), tuple(body))


def for_each_row(row_var: str, rows_var: str,
                 body: Sequence[Stmt]) -> ast.ForEachRow:
    """Iterate a query result, binding row columns."""
    return ast.ForEachRow(row_var, rows_var, tuple(body))


def call(procedure: str, *arguments: Any) -> ast.Call:
    """``PERFORM`` a named procedure with arguments."""
    return ast.Call(procedure, tuple(lit(a) for a in arguments))


# -- network DML --------------------------------------------------------------


def _kv(values: dict[str, Any]) -> tuple[tuple[str, Expr], ...]:
    return tuple((name, lit(value)) for name, value in values.items())


def find_any(record: str, **using: Any) -> ast.NetFindAny:
    """``FIND ANY record USING field values``."""
    return ast.NetFindAny(record, _kv(using))


def find_first(record: str, set_name: str) -> ast.NetFindFirst:
    """``FIND FIRST record WITHIN set``."""
    return ast.NetFindFirst(record, set_name)


def find_next(record: str, set_name: str) -> ast.NetFindNext:
    """``FIND NEXT record WITHIN set``."""
    return ast.NetFindNext(record, set_name)


def find_next_using(record: str, set_name: str,
                    **using: Any) -> ast.NetFindNextUsing:
    """``FIND NEXT ... USING`` (the paper's template (B))."""
    return ast.NetFindNextUsing(record, set_name, _kv(using))


def find_owner(set_name: str) -> ast.NetFindOwner:
    """``FIND OWNER WITHIN set``."""
    return ast.NetFindOwner(set_name)


def get(record: str) -> ast.NetGet:
    """``GET``: bind the current record's fields."""
    return ast.NetGet(record)


def store(record: str, **values: Any) -> ast.NetStore:
    """``STORE record`` with field values."""
    return ast.NetStore(record, _kv(values))


def modify(record: str, **values: Any) -> ast.NetModify:
    """``MODIFY`` the current record."""
    return ast.NetModify(record, _kv(values))


def erase(record: str, all_members: bool = False) -> ast.NetErase:
    """``ERASE`` the current record (optionally ALL MEMBERS)."""
    return ast.NetErase(record, all_members)


def connect(record: str, set_name: str) -> ast.NetConnect:
    """``CONNECT`` the current record to a set occurrence."""
    return ast.NetConnect(record, set_name)


def disconnect(record: str, set_name: str) -> ast.NetDisconnect:
    """``DISCONNECT`` the current record from a set."""
    return ast.NetDisconnect(record, set_name)


def generic_call(verb: Any, record: str, **values: Any) -> ast.NetGenericCall:
    """A call-interface DML request (verb may be an expression, Section 3.2)."""
    return ast.NetGenericCall(lit(verb), record, _kv(values))


def scan_set(record: str, set_name: str,
             body: Sequence[Stmt]) -> list[Stmt]:
    """The canonical "process all members" template (Section 4.1):

    FIND FIRST record WITHIN set;
    PERFORM WHILE DB-STATUS = OK: GET; <body>; FIND NEXT.
    """
    return [
        find_first(record, set_name),
        while_(ast.status_ok(), [
            get(record),
            *body,
            find_next(record, set_name),
        ]),
    ]


def process_first(record: str, set_name: str,
                  body: Sequence[Stmt]) -> list[Stmt]:
    """The Section 3.2 'process the first' shape: the programmer
    "may have intended to process all dependent records ... but may
    have written a program which will process the first"."""
    return [
        find_first(record, set_name),
        if_(ast.status_ok(), [get(record), *body]),
    ]


# -- relational DML ------------------------------------------------------------


def query(sequel: str, into_var: str,
          parameters: Iterable[str] = ()) -> ast.RelQuery:
    """A SEQUEL query bound into a rows variable."""
    return ast.RelQuery(sequel, into_var, tuple(parameters))


def rel_insert(relation: str, **values: Any) -> ast.RelInsert:
    """Relational INSERT."""
    return ast.RelInsert(relation, _kv(values))


def rel_delete(relation: str, **equal: Any) -> ast.RelDelete:
    """Relational DELETE by equality conditions."""
    return ast.RelDelete(relation, _kv(equal))


def rel_update(relation: str, equal: dict[str, Any],
               updates: dict[str, Any]) -> ast.RelUpdate:
    """Relational UPDATE by equality conditions."""
    return ast.RelUpdate(relation, _kv(equal), _kv(updates))


# -- hierarchical DML -------------------------------------------------------------


def ssa(segment: str, qual_field: str | None = None, op: str = "=",
        value: Any = None) -> ast.SsaSpec:
    """A DL/I segment search argument."""
    return ast.SsaSpec(
        segment, qual_field, op,
        lit(value) if qual_field is not None else None,
    )


def gu(*ssas: ast.SsaSpec) -> ast.HierGU:
    """DL/I GET UNIQUE."""
    return ast.HierGU(tuple(ssas))


def gn(*ssas: ast.SsaSpec) -> ast.HierGN:
    """DL/I GET NEXT."""
    return ast.HierGN(tuple(ssas))


def gnp(*ssas: ast.SsaSpec) -> ast.HierGNP:
    """DL/I GET NEXT WITHIN PARENT."""
    return ast.HierGNP(tuple(ssas))


def isrt(segment: str, values: dict[str, Any],
         *parent_ssas: ast.SsaSpec) -> ast.HierISRT:
    """DL/I ISRT under a parent path."""
    return ast.HierISRT(segment, _kv(values), tuple(parent_ssas))


def dlet() -> ast.HierDLET:
    """DL/I DLET (current segment and subtree)."""
    return ast.HierDLET()


def repl(**values: Any) -> ast.HierREPL:
    """DL/I REPL (update the current segment)."""
    return ast.HierREPL(_kv(values))


# -- program ----------------------------------------------------------------


def program(name: str, model: str, schema_name: str,
            statements: Sequence[Stmt],
            procedures: Sequence[ast.Procedure] = ()) -> Program:
    """Assemble a Program from statements and procedures."""
    return Program(name, model, schema_name, tuple(statements),
                   tuple(procedures))


def procedure(name: str, parameters: Sequence[str],
              body: Sequence[Stmt]) -> ast.Procedure:
    """Assemble a named Procedure."""
    return ast.Procedure(name, tuple(parameters), tuple(body))
