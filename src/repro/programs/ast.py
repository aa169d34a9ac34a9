"""The host-language AST with embedded DML statements.

Design notes
------------

* Expressions are :class:`Const`, :class:`Var`, and :class:`Bin`.
  Variables live in one flat environment; successful GET-style DML
  binds database fields to variables named ``RECORD.FIELD`` (the COBOL
  record area, flattened).
* Every DML statement sets the variable ``DB-STATUS`` to the session's
  status code, so programs branch on it exactly the way Section 3.2's
  status-code-dependent programs do.
* All nodes are frozen dataclasses: the converter rewrites programs by
  building new trees, never mutating (the "abstract source program" to
  "abstract target program" mapping of Figure 4.1).
* Every node renders to a readable pseudo-COBOL text via
  :func:`render_program`, used by examples and reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterator, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    """A literal value."""

    value: Any

    def render(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class Var:
    """A program variable (``RECORD.FIELD`` names come from GET)."""

    name: str

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class Bin:
    """Binary operation: arithmetic, comparison, or boolean."""

    op: str  # + - * = <> < <= > >= AND OR
    left: "Expr"
    right: "Expr"

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


Expr = Union[Const, Var, Bin]


def status_is(code: str) -> Bin:
    """Condition ``DB-STATUS = code`` -- the idiom of Section 4.1's
    "IF no such occurrence is found" template lines."""
    return Bin("=", Var("DB-STATUS"), Const(code))


def status_ok() -> Bin:
    """Condition ``DB-STATUS = '0000'``."""
    return status_is("0000")


# ---------------------------------------------------------------------------
# Statements: host language
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    var: str
    expr: Expr

    def render(self) -> str:
        return f"MOVE {self.expr.render()} TO {self.var}"


@dataclass(frozen=True)
class If:
    condition: Expr
    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...] = ()

    def render(self) -> str:
        return f"IF {self.condition.render()} ..."


@dataclass(frozen=True)
class While:
    condition: Expr
    body: tuple["Stmt", ...]

    def render(self) -> str:
        return f"PERFORM UNTIL NOT {self.condition.render()} ..."


@dataclass(frozen=True)
class ForEachRow:
    """Iterate the rows bound to ``rows_var`` (a RelQuery result),
    binding each row's columns as ``<row_var>.<COLUMN>`` variables."""

    row_var: str
    rows_var: str
    body: tuple["Stmt", ...]

    def render(self) -> str:
        return f"FOR EACH {self.row_var} IN {self.rows_var} ..."


@dataclass(frozen=True)
class BindFirstRow:
    """Bind the first row of a query result (held in ``rows_var``) to
    ``<row_var>.<COLUMN>`` variables; DB-STATUS becomes '0000' when a
    row exists, '0326' otherwise.  The relational idiom for the
    navigational 'locate one instance'."""

    row_var: str
    rows_var: str

    def render(self) -> str:
        return f"BIND FIRST {self.row_var} FROM {self.rows_var}"


@dataclass(frozen=True)
class Call:
    """Invoke a named procedure of the program (the paper's
    "sub-program parameter passing structure"); arguments bind to the
    procedure's parameter names for the duration of the call."""

    procedure: str
    arguments: tuple[Expr, ...] = ()

    def render(self) -> str:
        rendered = ", ".join(a.render() for a in self.arguments)
        return f"PERFORM {self.procedure}({rendered})"


@dataclass(frozen=True)
class ReadTerminal:
    """Read one line from the terminal into a variable."""

    var: str
    prompt: str | None = None

    def render(self) -> str:
        prompt = f" PROMPT '{self.prompt}'" if self.prompt else ""
        return f"ACCEPT {self.var}{prompt}"


@dataclass(frozen=True)
class WriteTerminal:
    """Write expressions to the terminal (space-joined, one line)."""

    exprs: tuple[Expr, ...]

    def render(self) -> str:
        return "DISPLAY " + ", ".join(e.render() for e in self.exprs)


@dataclass(frozen=True)
class ReadFile:
    """Read the next line of a named non-database file into a var."""

    file_name: str
    var: str

    def render(self) -> str:
        return f"READ {self.file_name} INTO {self.var}"


@dataclass(frozen=True)
class WriteFile:
    """Append a line (space-joined expressions) to a named file."""

    file_name: str
    exprs: tuple[Expr, ...]

    def render(self) -> str:
        rendered = ", ".join(e.render() for e in self.exprs)
        return f"WRITE {rendered} TO {self.file_name}"


# ---------------------------------------------------------------------------
# Statements: network (CODASYL) DML
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetFindAny:
    """FIND ANY record USING field values."""

    record: str
    using: tuple[tuple[str, Expr], ...] = ()

    def render(self) -> str:
        if not self.using:
            return f"FIND ANY {self.record}"
        parts = ", ".join(f"{k}={v.render()}" for k, v in self.using)
        return f"FIND ANY {self.record} USING {parts}"


@dataclass(frozen=True)
class NetFindFirst:
    record: str
    set_name: str

    def render(self) -> str:
        return f"FIND FIRST {self.record} WITHIN {self.set_name}"


@dataclass(frozen=True)
class NetFindNext:
    record: str
    set_name: str

    def render(self) -> str:
        return f"FIND NEXT {self.record} WITHIN {self.set_name}"


@dataclass(frozen=True)
class NetFindNextUsing:
    """FIND NEXT record WITHIN set USING fields (values are exprs)."""

    record: str
    set_name: str
    using: tuple[tuple[str, Expr], ...]

    def render(self) -> str:
        parts = ", ".join(f"{k}={v.render()}" for k, v in self.using)
        return f"FIND NEXT {self.record} WITHIN {self.set_name} USING {parts}"


@dataclass(frozen=True)
class NetFindOwner:
    set_name: str

    def render(self) -> str:
        return f"FIND OWNER WITHIN {self.set_name}"


@dataclass(frozen=True)
class NetFindCurrent:
    """FIND CURRENT OF record: re-establish the run-unit currency from
    the record-type currency (used by conversion-inserted sequences
    that hop away and back)."""

    record: str

    def render(self) -> str:
        return f"FIND CURRENT {self.record}"


@dataclass(frozen=True)
class NetGet:
    """GET: bind the current record's fields to RECORD.FIELD vars."""

    record: str

    def render(self) -> str:
        return f"GET {self.record}"


@dataclass(frozen=True)
class NetStore:
    record: str
    values: tuple[tuple[str, Expr], ...]

    def render(self) -> str:
        parts = ", ".join(f"{k}={v.render()}" for k, v in self.values)
        return f"STORE {self.record} ({parts})"


@dataclass(frozen=True)
class NetModify:
    record: str
    values: tuple[tuple[str, Expr], ...]

    def render(self) -> str:
        parts = ", ".join(f"{k}={v.render()}" for k, v in self.values)
        return f"MODIFY {self.record} ({parts})"


@dataclass(frozen=True)
class NetErase:
    record: str
    all_members: bool = False

    def render(self) -> str:
        suffix = " ALL MEMBERS" if self.all_members else ""
        return f"ERASE {self.record}{suffix}"


@dataclass(frozen=True)
class NetConnect:
    record: str
    set_name: str

    def render(self) -> str:
        return f"CONNECT {self.record} TO {self.set_name}"


@dataclass(frozen=True)
class NetDisconnect:
    record: str
    set_name: str

    def render(self) -> str:
        return f"DISCONNECT {self.record} FROM {self.set_name}"


@dataclass(frozen=True)
class NetReconnect:
    """Move the current record to the owner of ``set_name`` identified
    by ``using_field = value`` (conversion-inserted statement; with
    ``ensure_owner`` a missing owner is created)."""

    record: str
    set_name: str
    using_field: str
    value: Expr
    ensure_owner: bool = False

    def render(self) -> str:
        ensure = " ENSURING OWNER" if self.ensure_owner else ""
        return (f"RECONNECT {self.record} IN {self.set_name} TO "
                f"{self.using_field}={self.value.render()}{ensure}")


@dataclass(frozen=True)
class NetGenericCall:
    """A call-interface DML request whose *verb is an expression*.

    Section 3.2: "some database systems which use a call interface ...
    pass the request (retrieve, insert, etc.) as an argument.  This
    argument is usually a program variable and thus potentially can
    change during execution."  When ``verb`` is not a constant, the
    program analyzer must prove it invariant via data flow -- or give
    up, exactly as the paper predicts.
    """

    verb: Expr  # evaluates to 'FIND-ANY' | 'STORE' | 'ERASE' | 'MODIFY' | 'GET'
    record: str
    values: tuple[tuple[str, Expr], ...] = ()

    def render(self) -> str:
        parts = "".join(
            f", {k}={v.render()}" for k, v in self.values
        )
        return f"CALL DML({self.verb.render()}, {self.record}{parts})"


# ---------------------------------------------------------------------------
# Statements: relational DML
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelQuery:
    """Run a SEQUEL query; bind the result rows to ``into_var``.

    ``parameters`` substitute ``?NAME`` placeholders in the query text
    with current variable values before parsing.
    """

    sequel: str
    into_var: str
    parameters: tuple[str, ...] = ()

    def render(self) -> str:
        using = ""
        if self.parameters:
            using = f" USING ({', '.join(self.parameters)})"
        return f"QUERY [{self.sequel}] INTO {self.into_var}{using}"


@dataclass(frozen=True)
class RelInsert:
    relation: str
    values: tuple[tuple[str, Expr], ...]

    def render(self) -> str:
        parts = ", ".join(f"{k}={v.render()}" for k, v in self.values)
        return f"INSERT INTO {self.relation} ({parts})"


@dataclass(frozen=True)
class RelDelete:
    """Delete rows matching equality conditions."""

    relation: str
    equal: tuple[tuple[str, Expr], ...]

    def render(self) -> str:
        parts = " AND ".join(f"{k}={v.render()}" for k, v in self.equal)
        return f"DELETE FROM {self.relation} WHERE {parts}"


@dataclass(frozen=True)
class RelUpdate:
    relation: str
    equal: tuple[tuple[str, Expr], ...]
    updates: tuple[tuple[str, Expr], ...]

    def render(self) -> str:
        where = " AND ".join(f"{k}={v.render()}" for k, v in self.equal)
        sets = ", ".join(f"{k}={v.render()}" for k, v in self.updates)
        return f"UPDATE {self.relation} SET {sets} WHERE {where}"


# ---------------------------------------------------------------------------
# Statements: hierarchical (DL/I) DML
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SsaSpec:
    """An SSA whose comparison value is an expression."""

    segment: str
    qual_field: str | None = None
    op: str = "="
    value: Expr | None = None

    def render(self) -> str:
        if self.qual_field is None:
            return self.segment
        return f"{self.segment}({self.qual_field}{self.op}{self.value.render()})"


@dataclass(frozen=True)
class HierGU:
    """GET UNIQUE: bind found segment fields to SEGMENT.FIELD vars."""

    ssas: tuple[SsaSpec, ...]

    def render(self) -> str:
        return "GU " + " ".join(s.render() for s in self.ssas)


@dataclass(frozen=True)
class HierGN:
    ssas: tuple[SsaSpec, ...] = ()

    def render(self) -> str:
        return "GN " + " ".join(s.render() for s in self.ssas)


@dataclass(frozen=True)
class HierGNP:
    ssas: tuple[SsaSpec, ...] = ()

    def render(self) -> str:
        return "GNP " + " ".join(s.render() for s in self.ssas)


@dataclass(frozen=True)
class HierISRT:
    segment: str
    values: tuple[tuple[str, Expr], ...]
    parent_ssas: tuple[SsaSpec, ...] = ()

    def render(self) -> str:
        parts = ", ".join(f"{k}={v.render()}" for k, v in self.values)
        path = " ".join(s.render() for s in self.parent_ssas)
        under = f" UNDER {path}" if path else ""
        return f"ISRT {self.segment} ({parts}){under}"


@dataclass(frozen=True)
class HierDLET:
    def render(self) -> str:
        return "DLET"


@dataclass(frozen=True)
class HierPositionParent:
    """Re-establish position at the current parentage (used by
    Mehl & Wang substitution sequences between generated typed loops)."""

    def render(self) -> str:
        return "POSITION PARENT"


@dataclass(frozen=True)
class HierREPL:
    values: tuple[tuple[str, Expr], ...]

    def render(self) -> str:
        parts = ", ".join(f"{k}={v.render()}" for k, v in self.values)
        return f"REPL ({parts})"


Stmt = Union[
    Assign, If, While, ForEachRow, BindFirstRow, Call,
    ReadTerminal, WriteTerminal, ReadFile, WriteFile,
    NetFindAny, NetFindFirst, NetFindNext, NetFindNextUsing, NetFindOwner,
    NetFindCurrent, NetGet, NetStore, NetModify, NetErase, NetConnect,
    NetDisconnect, NetReconnect, NetGenericCall,
    RelQuery, RelInsert, RelDelete, RelUpdate,
    HierGU, HierGN, HierGNP, HierISRT, HierDLET, HierREPL,
    HierPositionParent,
]

#: Statement classes that touch the database (used by the analyzer).
DML_NODES = (
    NetFindAny, NetFindFirst, NetFindNext, NetFindNextUsing, NetFindOwner,
    NetFindCurrent, NetGet, NetStore, NetModify, NetErase, NetConnect,
    NetDisconnect, NetReconnect, NetGenericCall,
    RelQuery, RelInsert, RelDelete, RelUpdate,
    HierGU, HierGN, HierGNP, HierISRT, HierDLET, HierREPL,
    HierPositionParent,
)


# ---------------------------------------------------------------------------
# Program container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Procedure:
    """A named sub-program with positional parameters."""

    name: str
    parameters: tuple[str, ...]
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class Program:
    """A complete database program.

    ``model`` names the data model its DML speaks ('network',
    'relational', or 'hierarchical'); ``schema_name`` records which
    schema it was written against (the paper's requirement that a
    program's assumptions be declared, Section 1.1).
    """

    name: str
    model: str
    schema_name: str
    statements: tuple[Stmt, ...]
    procedures: tuple[Procedure, ...] = ()

    def procedure(self, name: str) -> Procedure:
        for procedure in self.procedures:
            if procedure.name == name:
                return procedure
        raise KeyError(f"program {self.name} has no procedure {name}")

    def with_statements(self, statements: tuple[Stmt, ...]) -> "Program":
        return replace(self, statements=statements)


# ---------------------------------------------------------------------------
# Tree walking and rendering
# ---------------------------------------------------------------------------


def children_of(stmt: Stmt) -> tuple[tuple[Stmt, ...], ...]:
    """The nested statement blocks of a compound statement."""
    if isinstance(stmt, If):
        return (stmt.then, stmt.orelse)
    if isinstance(stmt, While):
        return (stmt.body,)
    if isinstance(stmt, ForEachRow):
        return (stmt.body,)
    return ()


def walk(statements: tuple[Stmt, ...]) -> Iterator[Stmt]:
    """Yield every statement in a block, depth-first, pre-order.

    One generator over an explicit stack of block iterators, so a
    statement nested ``n`` levels deep is not passed up through ``n``
    generators; the compound statements are told apart by exact type
    (no AST class has a subclass)."""
    return _walk_blocks([iter(statements)])


def walk_program(program: Program) -> Iterator[Stmt]:
    """Walk the main block and every procedure body, in that order."""
    stack = [iter(procedure.body) for procedure in reversed(program.procedures)]
    stack.append(iter(program.statements))
    return _walk_blocks(stack)


#: The statement classes that hold nested blocks.
_COMPOUND = frozenset((If, While, ForEachRow))


def _walk_blocks(stack: list[Iterator[Stmt]]) -> Iterator[Stmt]:
    """Pre-order walk of the blocks on ``stack``, top first."""
    while stack:
        for stmt in stack[-1]:
            yield stmt
            kind = type(stmt)
            if kind in _COMPOUND:
                if kind is If:
                    stack += (iter(stmt.orelse), iter(stmt.then))
                else:
                    stack.append(iter(stmt.body))
                break
        else:
            stack.pop()


def transform_block(statements: tuple[Stmt, ...],
                    fn) -> tuple[Stmt, ...]:
    """Rebuild a block, applying ``fn`` bottom-up to each statement.

    ``fn(stmt)`` returns a statement, a tuple/list of statements (to
    splice), or None (to drop).  Nested blocks are transformed first so
    ``fn`` sees already-rewritten children.
    """
    out: list[Stmt] = []
    for stmt in statements:
        if isinstance(stmt, If):
            stmt = replace(stmt,
                           then=transform_block(stmt.then, fn),
                           orelse=transform_block(stmt.orelse, fn))
        elif isinstance(stmt, While):
            stmt = replace(stmt, body=transform_block(stmt.body, fn))
        elif isinstance(stmt, ForEachRow):
            stmt = replace(stmt, body=transform_block(stmt.body, fn))
        result = fn(stmt)
        if result is None:
            continue
        if isinstance(result, (tuple, list)):
            out.extend(result)
        else:
            out.append(result)
    return tuple(out)


def transform_program(program: Program, fn) -> Program:
    """Apply :func:`transform_block` to the program and its procedures."""
    statements = transform_block(program.statements, fn)
    procedures = tuple(
        replace(procedure, body=transform_block(procedure.body, fn))
        for procedure in program.procedures
    )
    return replace(program, statements=statements, procedures=procedures)


def render_program(program: Program) -> str:
    """Readable pseudo-COBOL text of a program."""
    lines = [f"PROGRAM {program.name} ({program.model} / "
             f"{program.schema_name})."]

    def emit(statements: tuple[Stmt, ...], indent: int) -> None:
        pad = "  " * indent
        for stmt in statements:
            if isinstance(stmt, If):
                lines.append(f"{pad}IF {stmt.condition.render()}")
                emit(stmt.then, indent + 1)
                if stmt.orelse:
                    lines.append(f"{pad}ELSE")
                    emit(stmt.orelse, indent + 1)
                lines.append(f"{pad}END-IF")
            elif isinstance(stmt, While):
                lines.append(f"{pad}PERFORM WHILE {stmt.condition.render()}")
                emit(stmt.body, indent + 1)
                lines.append(f"{pad}END-PERFORM")
            elif isinstance(stmt, ForEachRow):
                lines.append(
                    f"{pad}FOR EACH {stmt.row_var} IN {stmt.rows_var}"
                )
                emit(stmt.body, indent + 1)
                lines.append(f"{pad}END-FOR")
            else:
                lines.append(f"{pad}{stmt.render()}.")

    emit(program.statements, 1)
    for procedure in program.procedures:
        params = ", ".join(procedure.parameters)
        lines.append(f"PROCEDURE {procedure.name}({params}).")
        emit(procedure.body, 1)
    return "\n".join(lines) + "\n"
