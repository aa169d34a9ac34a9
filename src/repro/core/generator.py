"""The Program Generator (Figure 4.1).

"The optimized target program representation is used by the Program
Generator to produce a target program."  One abstract program can be
lowered to any of the three data models -- the Section 4.1 claim that
"conversion from one DBMS to another to account for some schema changes
is possible" because "conversion takes place at a level of abstraction
that is removed from an actual DBMS language".

* **network** -- expands the language templates of
  :mod:`repro.core.templates` (FIND ANY, canonical scan loops, the
  keyed FIND ... USING template (B));
* **relational** -- produces SEQUEL queries (nested IN-subqueries for
  pure retrieval pipelines would be an optimization; the general
  lowering emits one parameterized query per access level with
  FOR-EACH iteration) plus INSERT/UPDATE/DELETE;
* **hierarchical** -- GU/GNP loops for located parents and
  single-level scans (deeper navigation is converted by command
  substitution instead, see :mod:`repro.core.command_substitution`).
"""

from __future__ import annotations

from repro.core import templates
from repro.core.abstract import (
    ABind,
    AErase,
    ARefind,
    AFirst,
    ALocate,
    AModify,
    AQuery,
    AReconnect,
    AScan,
    AStmt,
    AStore,
    AToOwner,
    AbstractProgram,
)
from repro.errors import GenerationError
from repro.programs import ast
from repro.relational.database import fk_columns
from repro.schema.model import Schema


class ProgramGenerator:
    """Lowers abstract programs into concrete database programs.

    ``templates`` optionally restricts the language templates every
    lowering may expand (a rule catalog's TEMPLATE entries via
    ``CompiledRules.templates``); ``None`` means no gating.  A
    disabled ``keyed-scan`` degrades to the network filtered loop; the
    other templates have no fallback, so disabling them makes programs
    that need them raise :class:`~repro.errors.GenerationError` in
    every target model.
    """

    def __init__(self, schema: Schema,
                 templates: frozenset[str] | None = None):
        self.schema = schema
        self.templates = templates

    def generate(self, program: AbstractProgram,
                 target_model: str = "network") -> ast.Program:
        if target_model == "network":
            statements = _NetworkLowering(self.schema,
                                          self.templates).lower(
                program.statements
            )
        elif target_model == "relational":
            statements = _RelationalLowering(self.schema,
                                             self.templates).lower(
                program.statements, {}
            )
        elif target_model == "hierarchical":
            statements = _HierarchicalLowering(self.schema,
                                               self.templates).lower(
                program.statements
            )
        else:
            raise GenerationError(f"unknown target model {target_model!r}")
        return ast.Program(program.name, target_model, self.schema.name,
                           tuple(statements))


class _Lowering:
    """What the three target-model lowerings share: the rule catalog's
    language-template grants (``enabled``; ``None`` grants all)."""

    def __init__(self, schema: Schema,
                 enabled: frozenset[str] | None = None):
        self.schema = schema
        self.enabled = enabled

    def _require(self, stmt: AStmt) -> None:
        """Refuse ``stmt`` when it needs a template the catalog
        disables.  Each lowering calls this first for every statement
        it lowers, so the refusal names the first such statement in
        lowering order."""
        if self.enabled is None:
            return
        if isinstance(stmt, ALocate):
            name, what = "locate", f"LOCATE {stmt.entity}"
        elif isinstance(stmt, AScan):
            name, what = "scan", f"scan of {stmt.entity}"
        elif isinstance(stmt, AFirst):
            name, what = "process-first", f"'process first' of {stmt.entity}"
        elif isinstance(stmt, AToOwner):
            name, what = "owner-hop", f"owner hop via {stmt.via}"
        else:
            return
        if name not in self.enabled:
            raise GenerationError(
                f"{what} needs the {name!r} language template, which "
                f"the rule catalog disables"
            )


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class _NetworkLowering(_Lowering):
    def lower(self, statements: tuple[AStmt, ...]) -> list[ast.Stmt]:
        out: list[ast.Stmt] = []
        for stmt in statements:
            out.extend(self._lower_one(stmt))
        return out

    def _lower_one(self, stmt: AStmt) -> list[ast.Stmt]:
        self._require(stmt)
        if isinstance(stmt, ALocate):
            return templates.emit_locate_network(stmt)
        if isinstance(stmt, AScan):
            keyed = self.enabled is None or "keyed-scan" in self.enabled
            return templates.emit_scan_network(
                stmt, tuple(self.lower(stmt.body)), keyed=keyed
            )
        if isinstance(stmt, AFirst):
            return templates.emit_first_network(
                stmt, tuple(self.lower(stmt.body))
            )
        if isinstance(stmt, ABind):
            return [ast.NetGet(stmt.entity)]
        if isinstance(stmt, ARefind):
            return [ast.NetFindCurrent(stmt.entity)]
        if isinstance(stmt, AToOwner):
            return templates.emit_owner_network(stmt)
        if isinstance(stmt, AStore):
            return [ast.NetStore(stmt.entity, stmt.values)]
        if isinstance(stmt, AModify):
            return [ast.NetModify(stmt.entity, stmt.updates)]
        if isinstance(stmt, AErase):
            return [ast.NetErase(stmt.entity, stmt.cascade)]
        if isinstance(stmt, AReconnect):
            return [ast.NetReconnect(stmt.entity, stmt.via,
                                     stmt.using_field, stmt.value,
                                     stmt.ensure_owner)]
        if isinstance(stmt, AQuery):
            raise GenerationError(
                "set-at-a-time queries cannot be lowered to network DML"
            )
        if isinstance(stmt, ast.If):
            return [ast.If(stmt.condition, tuple(self.lower(stmt.then)),
                           tuple(self.lower(stmt.orelse)))]
        if isinstance(stmt, ast.While):
            return [ast.While(stmt.condition, tuple(self.lower(stmt.body)))]
        if isinstance(stmt, ast.ForEachRow):
            return [ast.ForEachRow(stmt.row_var, stmt.rows_var,
                                   tuple(self.lower(stmt.body)))]
        return [stmt]


# ---------------------------------------------------------------------------
# Relational
# ---------------------------------------------------------------------------


class _RelationalLowering(_Lowering):
    def __init__(self, schema: Schema,
                 enabled: frozenset[str] | None = None):
        super().__init__(schema, enabled)
        self._counter = 0

    def _fresh(self, entity: str) -> str:
        self._counter += 1
        return f"$ROWS-{entity}-{self._counter}"

    def lower(self, statements: tuple[AStmt, ...],
              positioned: dict[str, tuple[str, str]]) -> list[ast.Stmt]:
        """``positioned`` maps entity name -> (bound variable prefix,
        positioning kind: 'locate' for single-row binds whose miss is
        visible in DB-STATUS, 'scan' for per-row loop binds)."""
        out: list[ast.Stmt] = []
        for stmt in statements:
            out.extend(self._lower_one(stmt, positioned))
        return out

    def _condition_sql(self, entity: str, conditions,
                       extra: list[tuple[str, ast.Expr]]
                       ) -> tuple[str, tuple[str, ...]]:
        """Build a WHERE fragment; expression values become ?params."""
        fragments: list[str] = []
        params: list[str] = []
        for cond in conditions:
            literal, param = self._value_sql(cond.value)
            fragments.append(f"{cond.field} {cond.op} {literal}")
            params.extend(param)
        for column, value in extra:
            literal, param = self._value_sql(value)
            fragments.append(f"{column} = {literal}")
            params.extend(param)
        return " AND ".join(fragments), tuple(params)

    def _value_sql(self, value: ast.Expr) -> tuple[str, list[str]]:
        if isinstance(value, ast.Const):
            if isinstance(value.value, str):
                return f"'{value.value}'", []
            return str(value.value), []
        if isinstance(value, ast.Var):
            return f"?{value.name}", [value.name]
        raise GenerationError(
            "relational lowering supports constant and variable "
            "condition values only"
        )

    def _lower_one(self, stmt: AStmt,
                   positioned: dict[str, str]) -> list[ast.Stmt]:
        self._require(stmt)
        if isinstance(stmt, ALocate):
            where, params = self._condition_sql(stmt.entity,
                                                stmt.conditions, [])
            text = f"SELECT * FROM {stmt.entity}"
            if where:
                text += f" WHERE {where}"
            rows_var = self._fresh(stmt.entity)
            positioned[stmt.entity] = (stmt.entity, "locate")
            return [
                ast.RelQuery(text, rows_var, params),
                ast.BindFirstRow(stmt.entity, rows_var),
            ]
        if isinstance(stmt, (AScan, AFirst)):
            return self._lower_scan(stmt, positioned)
        if isinstance(stmt, (ABind, ARefind)):
            # Relational locates/scans already bound the row variables,
            # and positioning is by bound variables, so both are no-ops.
            return []
        if isinstance(stmt, AToOwner):
            set_type = self.schema.set_type(stmt.via)
            member_position = positioned.get(set_type.member)
            if member_position is None:
                raise GenerationError(
                    f"owner access via {stmt.via} needs the member "
                    "positioned"
                )
            member_prefix = member_position[0]
            columns = fk_columns(self.schema, set_type)
            extra = [
                (column, ast.Var(f"{member_prefix}.{column}"))
                for column in columns
            ]
            where, params = self._condition_sql(stmt.entity, (), extra)
            rows_var = self._fresh(stmt.entity)
            positioned[stmt.entity] = (stmt.entity, "locate")
            return [
                ast.RelQuery(
                    f"SELECT * FROM {stmt.entity} WHERE {where}",
                    rows_var, params,
                ),
                ast.BindFirstRow(stmt.entity, rows_var),
            ]
        if isinstance(stmt, AStore):
            values = dict(stmt.values)
            for set_type in self.schema.sets_with_member(stmt.entity):
                if set_type.system_owned:
                    continue
                owner_position = positioned.get(set_type.owner)
                for column in fk_columns(self.schema, set_type):
                    if column in values:
                        continue
                    if owner_position is not None:
                        values[column] = ast.Var(
                            f"{owner_position[0]}.{column}")
            # Values routed through deeper virtual chains (e.g. the
            # division name on an employee two hops away) are derivable
            # via the foreign keys and are not columns of the relation.
            from repro.relational.database import relation_columns

            columns = set(relation_columns(self.schema, stmt.entity))
            values = {name: value for name, value in values.items()
                      if name in columns}
            return [ast.RelInsert(stmt.entity, tuple(values.items()))]
        if isinstance(stmt, (AModify, AErase, AReconnect)):
            return self._lower_update(stmt, positioned)
        if isinstance(stmt, AQuery):
            return [ast.RelQuery(stmt.sequel_text, stmt.into_var,
                                 stmt.parameters)]
        if isinstance(stmt, ast.If):
            return [ast.If(stmt.condition,
                           tuple(self.lower(stmt.then, dict(positioned))),
                           tuple(self.lower(stmt.orelse, dict(positioned))))]
        if isinstance(stmt, ast.While):
            return [ast.While(stmt.condition,
                              tuple(self.lower(stmt.body, dict(positioned))))]
        if isinstance(stmt, ast.ForEachRow):
            return [ast.ForEachRow(stmt.row_var, stmt.rows_var,
                                   tuple(self.lower(stmt.body,
                                                    dict(positioned))))]
        return [stmt]

    def _lower_scan(self, stmt: AScan | AFirst,
                    positioned: dict[str, str]) -> list[ast.Stmt]:
        set_type = self.schema.set_type(stmt.via)
        extra: list[tuple[str, ast.Expr]] = []
        if not set_type.system_owned:
            owner_position = positioned.get(set_type.owner)
            if owner_position is None:
                raise GenerationError(
                    f"scan via {stmt.via} needs owner {set_type.owner} "
                    "positioned"
                )
            for column in fk_columns(self.schema, set_type):
                extra.append((column,
                              ast.Var(f"{owner_position[0]}.{column}")))
        conditions = stmt.conditions if isinstance(stmt, AScan) else ()
        where, params = self._condition_sql(stmt.entity, conditions, extra)
        text = f"SELECT * FROM {stmt.entity}"
        if where:
            text += f" WHERE {where}"
        order_keys = [
            key for key in set_type.order_keys
            if not self.schema.record(stmt.entity).field(key).is_virtual
        ]
        if order_keys:
            text += f" ORDER BY {', '.join(order_keys)}"
        rows_var = self._fresh(stmt.entity)
        inner_positioned = dict(positioned)
        inner_positioned[stmt.entity] = (
            stmt.entity, "locate" if isinstance(stmt, AFirst) else "scan")
        body = tuple(self.lower(stmt.body, inner_positioned))
        query = ast.RelQuery(text, rows_var, params)
        if isinstance(stmt, AFirst):
            return [
                query,
                ast.BindFirstRow(stmt.entity, rows_var),
                ast.If(ast.status_ok(), body),
            ]
        return [query, ast.ForEachRow(stmt.entity, rows_var, body)]

    def _lower_update(self, stmt: AStmt,
                      positioned: dict[str, str]) -> list[ast.Stmt]:
        entity = stmt.entity
        record = self.schema.record(entity)
        if not record.calc_keys:
            raise GenerationError(
                f"relational UPDATE/DELETE of {entity} needs a CALC key "
                "to identify the current instance"
            )
        position = positioned.get(entity)
        if position is None:
            raise GenerationError(
                f"UPDATE/DELETE of {entity} needs it positioned"
            )
        prefix, kind = position

        def guarded(statement: ast.Stmt) -> list[ast.Stmt]:
            # A locate-positioned update must not run (and must not
            # evaluate unbound row variables) when the locate missed;
            # DB-STATUS carries the miss, exactly as in the source.
            if kind == "locate":
                return [ast.If(ast.status_ok(), (statement,))]
            return [statement]

        equal = tuple(
            (key, ast.Var(f"{prefix}.{key}")) for key in record.calc_keys
        )
        if isinstance(stmt, AModify):
            return guarded(ast.RelUpdate(entity, equal, stmt.updates))
        if isinstance(stmt, AErase):
            return guarded(ast.RelDelete(entity, equal))
        # AReconnect: point the member's FK at the new owner value,
        # inserting the owner first when missing (ensure_owner).
        assert isinstance(stmt, AReconnect)
        set_type = self.schema.set_type(stmt.via)
        columns = fk_columns(self.schema, set_type)
        if columns != [stmt.using_field]:
            raise GenerationError(
                f"relational reconnect via {stmt.via} expects FK column "
                f"{stmt.using_field}, schema has {columns}"
            )
        out: list[ast.Stmt] = []
        if stmt.ensure_owner:
            literal, params = self._value_sql(stmt.value)
            rows_var = self._fresh(set_type.owner)
            out.append(ast.RelQuery(
                f"SELECT * FROM {set_type.owner} WHERE "
                f"{stmt.using_field} = {literal}",
                rows_var, tuple(params),
            ))
            out.append(ast.BindFirstRow(set_type.owner, rows_var))
            out.append(ast.If(
                ast.Bin("<>", ast.Var("DB-STATUS"), ast.Const("0000")),
                (ast.RelInsert(set_type.owner,
                               ((stmt.using_field, stmt.value),)),),
            ))
        out.append(ast.RelUpdate(entity, equal,
                                 ((stmt.using_field, stmt.value),)))
        return out


# ---------------------------------------------------------------------------
# Hierarchical
# ---------------------------------------------------------------------------


class _HierarchicalLowering(_Lowering):
    def lower(self, statements: tuple[AStmt, ...]) -> list[ast.Stmt]:
        out: list[ast.Stmt] = []
        for stmt in statements:
            out.extend(self._lower_one(stmt))
        return out

    def _ssa(self, entity: str, conditions) -> tuple[ast.SsaSpec, list]:
        if not conditions:
            return ast.SsaSpec(entity), []
        head, *rest = conditions
        ssa = ast.SsaSpec(entity, head.field, head.op, head.value)
        return ssa, rest

    def _guard(self, entity: str, rest, body: tuple[ast.Stmt, ...]
               ) -> tuple[ast.Stmt, ...]:
        if not rest:
            return body
        condition: ast.Expr | None = None
        for cond in rest:
            comparison = ast.Bin(cond.op,
                                 ast.Var(f"{entity}.{cond.field}"),
                                 cond.value)
            condition = comparison if condition is None else \
                ast.Bin("AND", condition, comparison)
        return (ast.If(condition, body),)

    def _lower_one(self, stmt: AStmt) -> list[ast.Stmt]:
        self._require(stmt)
        if isinstance(stmt, ALocate):
            ssa, rest = self._ssa(stmt.entity, stmt.conditions)
            if rest:
                raise GenerationError(
                    "hierarchical LOCATE supports one qualification; "
                    "use command substitution for richer access"
                )
            return [ast.HierGU((ssa,))]
        if isinstance(stmt, AScan):
            set_type = self.schema.set_type(stmt.via)
            if set_type.system_owned:
                # Root sweep: GN(SSA) walks every root occurrence and
                # (unlike GNP) re-establishes parentage each time, so
                # nested GNP scans work under it.
                ssa, rest = self._ssa(stmt.entity, stmt.conditions)
                body = self._guard(stmt.entity, rest,
                                   tuple(self.lower(stmt.body)))
                loop_body = body + (ast.HierGN((ssa,)),)
                return [
                    ast.HierGN((ssa,)),
                    ast.While(_hier_status_ok(), loop_body),
                ]
            ssa, rest = self._ssa(stmt.entity, stmt.conditions)
            body = self._guard(stmt.entity, rest,
                               tuple(self.lower(stmt.body)))
            loop_body = body + (ast.HierGNP((ssa,)),)
            return [
                # Scan the parent's subtree from its top, regardless of
                # where a preceding sibling scan left the position.
                ast.HierPositionParent(),
                ast.HierGNP((ssa,)),
                ast.While(_hier_status_ok(), loop_body),
            ]
        if isinstance(stmt, AFirst):
            ssa, rest = self._ssa(stmt.entity, ())
            del rest
            body = tuple(self.lower(stmt.body))
            return [
                ast.HierGNP((ssa,)),
                ast.If(_hier_status_ok(), body),
            ]
        if isinstance(stmt, ABind):
            return []  # GU/GN/GNP already bound the segment fields
        if isinstance(stmt, ARefind):
            raise GenerationError(
                "hierarchical lowering has no currency re-establishment;"
                " use command substitution"
            )
        if isinstance(stmt, AStore):
            return [ast.HierISRT(stmt.entity, stmt.values)]
        if isinstance(stmt, AModify):
            return [ast.HierREPL(stmt.updates)]
        if isinstance(stmt, AErase):
            return [ast.HierDLET()]
        if isinstance(stmt, (AToOwner, AReconnect, AQuery)):
            raise GenerationError(
                f"{type(stmt).__name__} has no hierarchical lowering; "
                "route this program through command substitution"
            )
        if isinstance(stmt, ast.If):
            return [ast.If(stmt.condition, tuple(self.lower(stmt.then)),
                           tuple(self.lower(stmt.orelse)))]
        if isinstance(stmt, ast.While):
            return [ast.While(stmt.condition, tuple(self.lower(stmt.body)))]
        return [stmt]


def _hier_status_ok() -> ast.Bin:
    return ast.Bin("=", ast.Var("DB-STATUS"), ast.Const("  "))
