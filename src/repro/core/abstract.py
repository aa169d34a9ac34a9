"""Abstract program representation.

Figure 4.1's Program Analyzer produces, and its Program Generator
consumes, an "abstract program": the host control structure with the
concrete DML replaced by data-model-independent access operations.
These are Su's access patterns given statement form -- ``ALocate`` is
"ACCESS A via A", ``AScan`` is "ACCESS A via AB", ``AToOwner`` is the
upward "ACCESS AB via B" -- so "conversion takes place at a level of
abstraction that is removed from an actual DBMS language" (Section 4.1).

Abstract statements nest host statements (If, While, Assign, I/O) and
vice versa; host expressions appear inside abstract conditions.
Successful ``bind`` operations make ``ENTITY.FIELD`` variables
available to the host code, mirroring GET.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Union

from repro.programs import ast
from repro.programs.ast import Expr


@dataclass(frozen=True)
class ACond:
    """One access condition: ``field op <host expression>``."""

    field: str
    op: str
    value: Expr

    def render(self) -> str:
        return f"{self.field} {self.op} {self.value.render()}"


@dataclass(frozen=True)
class ALocate:
    """Position at one instance of an entity by field conditions
    (Su's ``ACCESS A via A``).  Binds ENTITY.FIELD variables and sets
    DB-STATUS ('0000' found / '0326' not found)."""

    entity: str
    conditions: tuple[ACond, ...]
    bind: bool = True

    def render(self) -> str:
        conds = ", ".join(c.render() for c in self.conditions)
        return f"LOCATE {self.entity} [{conds}]"


@dataclass(frozen=True)
class AScan:
    """Iterate the members of an association occurrence (Su's
    ``ACCESS A via AB``), filtered by conditions, running ``body`` per
    member.  ``via`` is a set/association name; the owner occurrence is
    the nearest enclosing positioning on the owner entity.
    ``order_sensitive`` marks bodies whose observable I/O depends on
    member order (Section 3.2 order dependence)."""

    entity: str
    via: str
    conditions: tuple[ACond, ...]
    body: tuple["AStmt", ...]
    bind: bool = True
    order_sensitive: bool = False
    #: Set by the optimizer: equality conditions should drive a keyed
    #: retrieval (FIND ... USING) instead of a filter in the loop body.
    keyed: bool = False

    def render(self) -> str:
        conds = ", ".join(c.render() for c in self.conditions)
        keyed = " KEYED" if self.keyed else ""
        return f"SCAN {self.entity} VIA {self.via} [{conds}]{keyed}"


@dataclass(frozen=True)
class AFirst:
    """Process only the first member of an occurrence (the literal
    meaning of Section 3.2's 'process the first' programs; preserved,
    not 'fixed', because conversion must not change behaviour)."""

    entity: str
    via: str
    body: tuple["AStmt", ...]
    bind: bool = True

    def render(self) -> str:
        return f"FIRST {self.entity} VIA {self.via}"


@dataclass(frozen=True)
class ABind:
    """Re-read the current instance of an entity into its
    ENTITY.FIELD variables (a standalone GET under established
    currency, e.g. inside a status guard)."""

    entity: str

    def render(self) -> str:
        return f"BIND {self.entity}"


@dataclass(frozen=True)
class AToOwner:
    """Move from the current member to its owner through an
    association (Su's upward access pattern).  Binds owner fields."""

    entity: str  # the owner entity
    via: str
    bind: bool = True

    def render(self) -> str:
        return f"OWNER {self.entity} VIA {self.via}"


@dataclass(frozen=True)
class ARefind:
    """Re-establish positioning on an entity from its record-type
    currency (conversion-inserted after a hop to a related record)."""

    entity: str

    def render(self) -> str:
        return f"REFIND {self.entity}"


@dataclass(frozen=True)
class AStore:
    entity: str
    values: tuple[tuple[str, Expr], ...]

    def render(self) -> str:
        pairs = ", ".join(f"{k}={v.render()}" for k, v in self.values)
        return f"STORE {self.entity} ({pairs})"


@dataclass(frozen=True)
class AModify:
    entity: str
    updates: tuple[tuple[str, Expr], ...]

    def render(self) -> str:
        pairs = ", ".join(f"{k}={v.render()}" for k, v in self.updates)
        return f"MODIFY {self.entity} ({pairs})"


@dataclass(frozen=True)
class AErase:
    entity: str
    cascade: bool = False

    def render(self) -> str:
        return f"ERASE {self.entity}{' CASCADE' if self.cascade else ''}"


@dataclass(frozen=True)
class AReconnect:
    """Move the current instance of ``entity`` to the owner of ``via``
    identified by ``using_field = value`` -- the conversion-inserted
    operation replacing a MODIFY of a field that became VIRTUAL."""

    entity: str
    via: str
    using_field: str
    value: Expr
    ensure_owner: bool = False

    def render(self) -> str:
        return (f"RECONNECT {self.entity} VIA {self.via} TO "
                f"{self.using_field}={self.value.render()}")


@dataclass(frozen=True)
class AQuery:
    """A set-at-a-time query kept whole (relational programs): the
    parsed SEQUEL tree plus the variable receiving the rows."""

    sequel_text: str
    into_var: str
    parameters: tuple[str, ...] = ()

    def render(self) -> str:
        return f"QUERY [{self.sequel_text}] INTO {self.into_var}"


AStmt = Union[
    ALocate, AScan, AFirst, ABind, AToOwner, ARefind, AStore, AModify,
    AErase, AReconnect, AQuery,
    # host statements appear unchanged:
    ast.Assign, ast.If, ast.While, ast.ForEachRow, ast.BindFirstRow,
    ast.Call, ast.ReadTerminal, ast.WriteTerminal, ast.ReadFile,
    ast.WriteFile,
]

ABSTRACT_NODES = (ALocate, AScan, AFirst, ABind, AToOwner, ARefind,
                  AStore, AModify, AErase, AReconnect, AQuery)


@dataclass(frozen=True)
class AbstractProgram:
    """The analyzer's output: host structure + abstract access ops."""

    name: str
    source_model: str
    schema_name: str
    statements: tuple[AStmt, ...]
    notes: tuple[str, ...] = ()

    def with_statements(self,
                        statements: tuple[AStmt, ...]) -> "AbstractProgram":
        return replace(self, statements=statements)


def children_of(stmt: AStmt) -> tuple[tuple[AStmt, ...], ...]:
    """The nested blocks of a compound (abstract or host) statement."""
    if isinstance(stmt, (AScan, AFirst)):
        return (stmt.body,)
    if isinstance(stmt, ast.If):
        return (stmt.then, stmt.orelse)
    if isinstance(stmt, ast.While):
        return (stmt.body,)
    if isinstance(stmt, ast.ForEachRow):
        return (stmt.body,)
    return ()


def walk(statements: tuple[AStmt, ...]) -> Iterator[AStmt]:
    """Yield every statement depth-first, pre-order."""
    for stmt in statements:
        yield stmt
        for block in children_of(stmt):
            yield from walk(block)


def transform(statements: tuple[AStmt, ...], fn) -> tuple[AStmt, ...]:
    """Rebuild a block bottom-up; ``fn`` may return a statement, a
    sequence to splice, or None to drop."""
    out: list[AStmt] = []
    for stmt in statements:
        if isinstance(stmt, (AScan, AFirst)):
            stmt = replace(stmt, body=transform(stmt.body, fn))
        elif isinstance(stmt, ast.If):
            stmt = replace(stmt, then=transform(stmt.then, fn),
                           orelse=transform(stmt.orelse, fn))
        elif isinstance(stmt, ast.While):
            stmt = replace(stmt, body=transform(stmt.body, fn))
        elif isinstance(stmt, ast.ForEachRow):
            stmt = replace(stmt, body=transform(stmt.body, fn))
        result = fn(stmt)
        if result is None:
            continue
        if isinstance(result, (tuple, list)):
            out.extend(result)
        else:
            out.append(result)
    return tuple(out)


def render_abstract(program: AbstractProgram) -> str:
    """Readable text of an abstract program."""
    lines = [f"ABSTRACT {program.name} (from {program.source_model} / "
             f"{program.schema_name})."]

    def emit(statements: tuple[AStmt, ...], indent: int) -> None:
        pad = "  " * indent
        for stmt in statements:
            if isinstance(stmt, (AScan, AFirst)):
                lines.append(f"{pad}{stmt.render()}")
                emit(stmt.body, indent + 1)
                lines.append(f"{pad}END")
            elif isinstance(stmt, ast.If):
                lines.append(f"{pad}IF {stmt.condition.render()}")
                emit(stmt.then, indent + 1)
                if stmt.orelse:
                    lines.append(f"{pad}ELSE")
                    emit(stmt.orelse, indent + 1)
                lines.append(f"{pad}END-IF")
            elif isinstance(stmt, ast.While):
                lines.append(f"{pad}WHILE {stmt.condition.render()}")
                emit(stmt.body, indent + 1)
                lines.append(f"{pad}END-WHILE")
            elif isinstance(stmt, ast.ForEachRow):
                lines.append(f"{pad}FOR EACH {stmt.row_var} "
                             f"IN {stmt.rows_var}")
                emit(stmt.body, indent + 1)
                lines.append(f"{pad}END-FOR")
            else:
                lines.append(f"{pad}{stmt.render()}.")

    emit(program.statements, 1)
    for note in program.notes:
        lines.append(f"* NOTE: {note}")
    return "\n".join(lines) + "\n"
