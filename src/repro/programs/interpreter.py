"""Interpreter: runs a database program against a database, recording
its I/O trace.

The interpreter accepts any of the three database classes and wires up
the matching DML session.  It enforces the Section 1.1 consistency
contract when asked (``consistent=True`` wraps the run in a run unit)
and guards against runaway loops with a step budget.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ReproError
from repro.hierarchical.database import HierarchicalDatabase
from repro.hierarchical.dml import DLISession, SSA
from repro.network.database import NetworkDatabase
from repro.network.dml import DMLSession
from repro.observe.registry import named_counters
from repro.observe.tracing import current_tracer, sampled_span, span
from repro.programs import ast
from repro.programs.iotrace import IOTrace
from repro.relational.database import RelationalDatabase
from repro.relational.sequel import evaluate as evaluate_sequel, parse_sequel


class InterpreterError(ReproError):
    """A program failed at run time (bad variable, step budget, ...)."""


class ProgramTimeout(InterpreterError):
    """A program run exceeded its cooperative wall-clock deadline.

    Raised from the interpreter's statement loop when a
    :func:`program_deadline` window is active -- the batch supervisor's
    watchdog.  The message names the configured limit, never the
    elapsed time, so a timed-out program produces the same report
    serially and inside a worker process."""

    def __init__(self, message: str, program: str | None = None):
        super().__init__(message)
        self.program = program
        self.phase = "watchdog"


#: The active cooperative deadline: ``(monotonic_deadline, limit)``.
#: A context variable, so the batch layer can arm one deadline around
#: a whole conversion (reference run plus every validation probe) and
#: every interpreter the conversion creates -- in this thread or
#: task -- sees it without plumbing.
_DEADLINE: ContextVar[tuple[float, float] | None] = ContextVar(
    "repro_program_deadline", default=None)


@contextmanager
def program_deadline(seconds: float | None) -> Iterator[None]:
    """Arm a cooperative wall-clock deadline for program runs.

    Every :meth:`Interpreter.run` started inside the window checks the
    deadline once per statement (and once at end of run, so a run whose
    final statement blocked past the limit still surfaces) and raises
    :class:`ProgramTimeout` when it has passed.  ``None`` is a no-op,
    so callers can pass ``options.program_timeout`` unconditionally.
    Windows nest; the innermost wins.
    """
    if seconds is None:
        yield
        return
    if seconds <= 0:
        raise ValueError(f"program_timeout must be > 0, got {seconds}")
    token = _DEADLINE.set((time.monotonic() + seconds, seconds))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def active_deadline() -> tuple[float, float] | None:
    """The armed ``(monotonic_deadline, limit_seconds)``, if any."""
    return _DEADLINE.get()


@dataclass
class ProgramInputs:
    """External inputs to one run: terminal lines and file contents."""

    terminal: list[str] = field(default_factory=list)
    files: dict[str, list[str]] = field(default_factory=dict)

    def copy(self) -> "ProgramInputs":
        return ProgramInputs(
            list(self.terminal),
            {name: list(lines) for name, lines in self.files.items()},
        )


def _text(value: Any) -> str:
    return "" if value is None else str(value)


def _compare(op: str, left: Any, right: Any) -> bool:
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    # Ordering: None sorts below everything (matches index ordering).
    if left is None or right is None:
        if op in ("<", "<="):
            return left is None and (right is not None or op == "<=")
        return right is None and (left is not None or op == ">=")
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise InterpreterError(f"unknown comparison {op!r}")


class Interpreter:
    """Executes one program against one database."""

    def __init__(self, db, inputs: ProgramInputs | None = None,
                 max_steps: int = 2_000_000, session: Any = None):
        self.db = db
        self.inputs = (inputs or ProgramInputs()).copy()
        self.max_steps = max_steps
        self.trace = IOTrace()
        self.env: dict[str, Any] = {"DB-STATUS": "0000", "FILE-STATUS": "00"}
        self._steps = 0
        self._dml_statements = 0
        self._dml_trace = False
        self._deadline: tuple[float, float] | None = active_deadline()
        self._program: ast.Program | None = None
        # Per-statement compiled-expression cache.  Keyed by id() (AST
        # nodes are frozen dataclasses whose values may be unhashable);
        # the node itself is kept in the value so the id cannot be
        # recycled while the entry lives.
        self._compiled: dict[int, tuple[ast.Expr, Callable[[], Any]]] = {}
        # Substituted SEQUEL text -> parsed query, so a RelQuery inside
        # a loop parses once per distinct parameter binding.
        self._sequel_cache: dict[str, Any] = {}
        # Record name -> field name -> its "RECORD.FIELD" variable, the
        # names a GET binds, built once each.
        self._field_keys: dict[str, dict[str, str]] = {}
        if session is not None:
            # A custom session (e.g. a DML emulation layer) that speaks
            # the DMLSession surface.
            self.session = session
        elif isinstance(db, NetworkDatabase):
            self.session = DMLSession(db)
        elif isinstance(db, HierarchicalDatabase):
            self.session = DLISession(db)
        elif isinstance(db, RelationalDatabase):
            self.session = None
        else:
            raise InterpreterError(
                f"unsupported database type {type(db).__name__}"
            )

    # -- public entry -----------------------------------------------------

    def run(self, program: ast.Program) -> IOTrace:
        """Execute the program, producing its I/O trace.

        Under an active tracer the whole run is a ``program.run`` span
        stamped with the statement totals, and individual DML
        statements are recorded as sampled ``dml.*`` spans."""
        self._program = program
        self._deadline = active_deadline()
        self._dml_trace = current_tracer() is not None
        if not self._dml_trace:
            self._exec_block(program.statements)
            self._check_deadline()
            return self.trace
        with span("program.run", capture_metrics=False,
                  program=program.name, model=program.model) as run_span:
            self._exec_block(program.statements)
            self._check_deadline()
            run_span.set_attr("statements", self._steps)
            run_span.set_attr("dml_statements", self._dml_statements)
        return self.trace

    # -- expressions ---------------------------------------------------------

    def eval(self, expr: ast.Expr) -> Any:
        """Evaluate an expression (compiling it to a closure on first
        use; loops re-run the closure, not the AST walk)."""
        cached = self._compiled.get(id(expr))
        if cached is not None and cached[0] is expr:
            return cached[1]()
        compiled = self._compile_expr(expr)
        self._compiled[id(expr)] = (expr, compiled)
        return compiled()

    def _compile_expr(self, expr: ast.Expr) -> Callable[[], Any]:
        """One AST node -> one closure over the interpreter's (stable)
        environment dict.  Error semantics match the walking evaluator:
        unbound variables raise at evaluation, not compilation."""
        env = self.env
        if isinstance(expr, ast.Const):
            value = expr.value
            return lambda: value
        if isinstance(expr, ast.Var):
            name = expr.name

            def read_var() -> Any:
                try:
                    return env[name]
                except KeyError:
                    raise InterpreterError(
                        f"unbound variable {name}"
                    ) from None
            return read_var
        if isinstance(expr, ast.Bin):
            left = self._compile_expr(expr.left)
            right = self._compile_expr(expr.right)
            op = expr.op
            if op == "AND":
                return lambda: bool(left()) and bool(right())
            if op == "OR":
                return lambda: bool(left()) or bool(right())
            if op in ("=", "<>", "<", "<=", ">", ">="):
                return lambda: _compare(op, left(), right())
            if op == "+":
                return lambda: left() + right()
            if op == "-":
                return lambda: left() - right()
            if op == "*":
                return lambda: left() * right()
            raise InterpreterError(f"unknown operator {op!r}")
        raise InterpreterError(f"unknown expression {expr!r}")

    def _pairs(self, pairs: tuple[tuple[str, ast.Expr], ...]) -> dict[str, Any]:
        return {name: self.eval(expr) for name, expr in pairs}

    # -- statements -------------------------------------------------------------

    def _exec_block(self, statements: tuple[ast.Stmt, ...]) -> None:
        for stmt in statements:
            self._step()
            self._exec(stmt)

    def _step(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise InterpreterError(
                f"step budget exceeded ({self.max_steps}); "
                "probable infinite loop"
            )
        if self._deadline is not None:
            self._check_deadline()

    def _check_deadline(self) -> None:
        """Cooperative watchdog: raise once the armed deadline passes.

        The timeout message is deterministic -- it names the program
        and the configured limit, never the elapsed time -- so a
        timed-out program's failure report is byte-identical whether
        the run happened serially or inside a worker process."""
        if self._deadline is None:
            return
        deadline, limit = self._deadline
        if time.monotonic() < deadline:
            return
        named_counters("supervision").bump("timeouts")
        name = self._program.name if self._program is not None else "?"
        raise ProgramTimeout(
            f"program '{name}' exceeded its {limit:g}s conversion "
            "deadline (cooperative watchdog)",
            program=name,
        )

    def _exec(self, stmt: ast.Stmt) -> None:
        handler = self._HANDLERS.get(type(stmt))
        if handler is None:
            raise InterpreterError(
                f"no handler for statement {type(stmt).__name__}"
            )
        if type(stmt) in _DML_STATEMENTS:
            self._dml_statements += 1
            if self._dml_trace:
                with sampled_span(f"dml.{type(stmt).__name__}"):
                    handler(self, stmt)
                return
        handler(self, stmt)

    # host language ----------------------------------------------------

    def _exec_assign(self, stmt: ast.Assign) -> None:
        self.env[stmt.var] = self.eval(stmt.expr)

    def _exec_if(self, stmt: ast.If) -> None:
        if self.eval(stmt.condition):
            self._exec_block(stmt.then)
        else:
            self._exec_block(stmt.orelse)

    def _exec_while(self, stmt: ast.While) -> None:
        while self.eval(stmt.condition):
            self._step()
            self._exec_block(stmt.body)

    def _exec_for_each_row(self, stmt: ast.ForEachRow) -> None:
        rows = self.env.get(stmt.rows_var)
        if rows is None:
            raise InterpreterError(
                f"FOR EACH: {stmt.rows_var} holds no query result"
            )
        for row in rows:
            for column, value in row.items():
                self.env[f"{stmt.row_var}.{column}"] = value
            self._exec_block(stmt.body)

    def _exec_bind_first_row(self, stmt: ast.BindFirstRow) -> None:
        rows = self.env.get(stmt.rows_var)
        if not rows:
            self.env["DB-STATUS"] = "0326"
            return
        for column, value in rows[0].items():
            self.env[f"{stmt.row_var}.{column}"] = value
        self.env["DB-STATUS"] = "0000"

    def _exec_call(self, stmt: ast.Call) -> None:
        if self._program is None:
            raise InterpreterError("CALL outside a program run")
        procedure = self._program.procedure(stmt.procedure)
        if len(stmt.arguments) != len(procedure.parameters):
            raise InterpreterError(
                f"CALL {stmt.procedure}: expected "
                f"{len(procedure.parameters)} arguments"
            )
        saved = {
            name: self.env[name] for name in procedure.parameters
            if name in self.env
        }
        for name, expr in zip(procedure.parameters, stmt.arguments):
            self.env[name] = self.eval(expr)
        try:
            self._exec_block(procedure.body)
        finally:
            for name in procedure.parameters:
                if name in saved:
                    self.env[name] = saved[name]
                else:
                    self.env.pop(name, None)

    def _exec_read_terminal(self, stmt: ast.ReadTerminal) -> None:
        if stmt.prompt is not None:
            self.trace.terminal_write(stmt.prompt)
        if self.inputs.terminal:
            line = self.inputs.terminal.pop(0)
        else:
            line = ""
        self.env[stmt.var] = line
        self.trace.terminal_read(line)

    def _exec_write_terminal(self, stmt: ast.WriteTerminal) -> None:
        text = " ".join(_text(self.eval(e)) for e in stmt.exprs)
        self.trace.terminal_write(text)

    def _exec_read_file(self, stmt: ast.ReadFile) -> None:
        lines = self.inputs.files.get(stmt.file_name, [])
        if lines:
            line = lines.pop(0)
            self.env[stmt.var] = line
            self.env["FILE-STATUS"] = "00"
            self.trace.file_read(stmt.file_name, line)
        else:
            self.env[stmt.var] = None
            self.env["FILE-STATUS"] = "10"  # COBOL AT END

    def _exec_write_file(self, stmt: ast.WriteFile) -> None:
        text = " ".join(_text(self.eval(e)) for e in stmt.exprs)
        self.trace.file_write(stmt.file_name, text)

    # network DML ---------------------------------------------------------

    def _net(self) -> DMLSession:
        if not isinstance(self.session, DMLSession):
            raise InterpreterError(
                "network DML statement run against a non-network database"
            )
        return self.session

    def _after_net(self) -> None:
        # Every caller has just gone through _net().
        self.env["DB-STATUS"] = self.session.status

    def _exec_net_find_any(self, stmt: ast.NetFindAny) -> None:
        self._net().find_any(stmt.record, **self._pairs(stmt.using))
        self._after_net()

    def _exec_net_find_first(self, stmt: ast.NetFindFirst) -> None:
        self._net().find_first(stmt.record, stmt.set_name)
        self._after_net()

    def _exec_net_find_next(self, stmt: ast.NetFindNext) -> None:
        self._net().find_next(stmt.record, stmt.set_name)
        self._after_net()

    def _exec_net_find_next_using(self, stmt: ast.NetFindNextUsing) -> None:
        session = self._net()
        for name, value in self._pairs(stmt.using).items():
            session.move(value, stmt.record, name)
        session.find_next_using(stmt.record, stmt.set_name,
                                *[name for name, _ in stmt.using])
        self._after_net()

    def _exec_net_find_owner(self, stmt: ast.NetFindOwner) -> None:
        self._net().find_owner(stmt.set_name)
        self._after_net()

    def _exec_net_find_current(self, stmt: ast.NetFindCurrent) -> None:
        self._net().find_current(stmt.record)
        self._after_net()

    def _exec_net_get(self, stmt: ast.NetGet) -> None:
        session = self._net()
        record = session.current_of(stmt.record)
        if record is None:
            self.env["DB-STATUS"] = "0306"
            return
        values = session.get(record)
        self._after_net()
        if values is not None:
            keys = self._field_keys.get(stmt.record)
            if keys is None:
                keys = self._field_keys[stmt.record] = {}
            env = self.env
            for name, value in values.items():
                key = keys.get(name)
                if key is None:
                    key = keys[name] = f"{stmt.record}.{name}"
                env[key] = value

    def _exec_net_store(self, stmt: ast.NetStore) -> None:
        self._net().store(stmt.record, self._pairs(stmt.values))
        self._after_net()

    def _exec_net_modify(self, stmt: ast.NetModify) -> None:
        self._net().modify(self._pairs(stmt.values))
        self._after_net()

    def _exec_net_erase(self, stmt: ast.NetErase) -> None:
        self._net().erase(all_members=stmt.all_members)
        self._after_net()

    def _exec_net_connect(self, stmt: ast.NetConnect) -> None:
        self._net().connect(stmt.set_name)
        self._after_net()

    def _exec_net_disconnect(self, stmt: ast.NetDisconnect) -> None:
        self._net().disconnect(stmt.set_name)
        self._after_net()

    def _exec_net_reconnect(self, stmt: ast.NetReconnect) -> None:
        self._net().reconnect(stmt.set_name, stmt.using_field,
                              self.eval(stmt.value), stmt.ensure_owner)
        self._after_net()

    def _exec_net_generic(self, stmt: ast.NetGenericCall) -> None:
        verb = self.eval(stmt.verb)
        values = self._pairs(stmt.values)
        session = self._net()
        if verb == "FIND-ANY":
            session.find_any(stmt.record, **values)
        elif verb == "STORE":
            session.store(stmt.record, values)
        elif verb == "MODIFY":
            session.modify(values)
        elif verb == "ERASE":
            session.erase()
        elif verb == "GET":
            self._exec_net_get(ast.NetGet(stmt.record))
            return
        else:
            raise InterpreterError(f"unknown DML verb {verb!r}")
        self._after_net()

    # relational DML --------------------------------------------------------

    def _rel(self) -> RelationalDatabase:
        if not isinstance(self.db, RelationalDatabase):
            raise InterpreterError(
                "relational DML statement run against a non-relational "
                "database"
            )
        return self.db

    def _exec_rel_query(self, stmt: ast.RelQuery) -> None:
        text = stmt.sequel
        for name in stmt.parameters:
            value = self.env.get(name)
            literal = f"'{value}'" if isinstance(value, str) else str(value)
            text = text.replace(f"?{name}", literal)
        query = self._sequel_cache.get(text)
        if query is None:
            query = parse_sequel(text)
            self._sequel_cache[text] = query
        result = evaluate_sequel(query, self._rel())
        self.env[stmt.into_var] = result.rows()
        self.env["DB-STATUS"] = "0000"

    def _exec_rel_insert(self, stmt: ast.RelInsert) -> None:
        self._rel().insert(stmt.relation, self._pairs(stmt.values))
        self.env["DB-STATUS"] = "0000"

    def _exec_rel_delete(self, stmt: ast.RelDelete) -> None:
        wanted = self._pairs(stmt.equal)
        count = self._rel().delete_where(
            stmt.relation,
            lambda row: all(row.get(k) == v for k, v in wanted.items()),
            equal=wanted,
        )
        self.env["DB-STATUS"] = "0000" if count else "0326"

    def _exec_rel_update(self, stmt: ast.RelUpdate) -> None:
        wanted = self._pairs(stmt.equal)
        updates = self._pairs(stmt.updates)
        count = self._rel().update_where(
            stmt.relation,
            lambda row: all(row.get(k) == v for k, v in wanted.items()),
            updates,
            equal=wanted,
        )
        self.env["DB-STATUS"] = "0000" if count else "0326"

    # hierarchical DML ----------------------------------------------------------

    def _hier(self) -> DLISession:
        if not isinstance(self.session, DLISession):
            raise InterpreterError(
                "hierarchical DML statement run against a non-hierarchical "
                "database"
            )
        return self.session

    def _ssas(self, specs: tuple[ast.SsaSpec, ...]) -> list[SSA]:
        out = []
        for spec in specs:
            if spec.qual_field is None:
                out.append(SSA(spec.segment))
            else:
                out.append(SSA(spec.segment, spec.qual_field, spec.op,
                               self.eval(spec.value)))
        return out

    def _bind_segment(self, record) -> None:
        if record is None:
            return
        for name, value in record.values.items():
            self.env[f"{record.type_name}.{name}"] = value

    def _exec_hier_gu(self, stmt: ast.HierGU) -> None:
        session = self._hier()
        record = session.get_unique(*self._ssas(stmt.ssas))
        self.env["DB-STATUS"] = session.status
        self._bind_segment(record)

    def _exec_hier_gn(self, stmt: ast.HierGN) -> None:
        session = self._hier()
        record = session.get_next(*self._ssas(stmt.ssas))
        self.env["DB-STATUS"] = session.status
        self._bind_segment(record)

    def _exec_hier_gnp(self, stmt: ast.HierGNP) -> None:
        session = self._hier()
        record = session.get_next_within_parent(*self._ssas(stmt.ssas))
        self.env["DB-STATUS"] = session.status
        self._bind_segment(record)

    def _exec_hier_isrt(self, stmt: ast.HierISRT) -> None:
        session = self._hier()
        session.insert(stmt.segment, self._pairs(stmt.values),
                       *self._ssas(stmt.parent_ssas))
        self.env["DB-STATUS"] = session.status

    def _exec_hier_position_parent(self, stmt: ast.HierPositionParent) -> None:
        session = self._hier()
        session.position_to_parentage()
        self.env["DB-STATUS"] = session.status

    def _exec_hier_dlet(self, stmt: ast.HierDLET) -> None:
        session = self._hier()
        session.delete()
        self.env["DB-STATUS"] = session.status

    def _exec_hier_repl(self, stmt: ast.HierREPL) -> None:
        session = self._hier()
        session.replace(self._pairs(stmt.values))
        self.env["DB-STATUS"] = session.status

    _HANDLERS = {
        ast.Assign: _exec_assign,
        ast.If: _exec_if,
        ast.While: _exec_while,
        ast.ForEachRow: _exec_for_each_row,
        ast.BindFirstRow: _exec_bind_first_row,
        ast.Call: _exec_call,
        ast.ReadTerminal: _exec_read_terminal,
        ast.WriteTerminal: _exec_write_terminal,
        ast.ReadFile: _exec_read_file,
        ast.WriteFile: _exec_write_file,
        ast.NetFindAny: _exec_net_find_any,
        ast.NetFindFirst: _exec_net_find_first,
        ast.NetFindNext: _exec_net_find_next,
        ast.NetFindNextUsing: _exec_net_find_next_using,
        ast.NetFindOwner: _exec_net_find_owner,
        ast.NetFindCurrent: _exec_net_find_current,
        ast.NetGet: _exec_net_get,
        ast.NetStore: _exec_net_store,
        ast.NetModify: _exec_net_modify,
        ast.NetErase: _exec_net_erase,
        ast.NetConnect: _exec_net_connect,
        ast.NetDisconnect: _exec_net_disconnect,
        ast.NetReconnect: _exec_net_reconnect,
        ast.NetGenericCall: _exec_net_generic,
        ast.RelQuery: _exec_rel_query,
        ast.RelInsert: _exec_rel_insert,
        ast.RelDelete: _exec_rel_delete,
        ast.RelUpdate: _exec_rel_update,
        ast.HierGU: _exec_hier_gu,
        ast.HierGN: _exec_hier_gn,
        ast.HierGNP: _exec_hier_gnp,
        ast.HierISRT: _exec_hier_isrt,
        ast.HierDLET: _exec_hier_dlet,
        ast.HierPositionParent: _exec_hier_position_parent,
        ast.HierREPL: _exec_hier_repl,
    }


#: Statement types that issue DML; counted per run and recorded as
#: sampled spans when tracing is on.
_DML_STATEMENTS = frozenset(
    stmt_type for stmt_type in Interpreter._HANDLERS
    if stmt_type.__name__.startswith(("Net", "Rel", "Hier"))
)


def run_program(program: ast.Program, db,
                inputs: ProgramInputs | None = None,
                consistent: bool = True) -> IOTrace:
    """Run a program; with ``consistent=True`` (default) the run is a
    Section 1.1 run unit: the database must end consistent."""
    interpreter = Interpreter(db, inputs)
    if consistent:
        with db.run_unit():
            trace = interpreter.run(program)
    else:
        trace = interpreter.run(program)
    return trace
