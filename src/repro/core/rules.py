"""Transformation rules: the primitive combinators.

"The internal representation of how the database schema has been
changed is used by a Program Converter to select the proper
transformation rules for use in mapping the source program
representation to the target program representation." (Figure 4.1)

Each rule handles one :class:`~repro.schema.diff.SchemaChange` kind.
A rule rewrites the abstract program and may append analyst notes; a
change a rule cannot absorb raises
:class:`~repro.errors.UnconvertiblePattern`, which the supervisor turns
into an analyst question.

Since the rules-as-data redesign this module holds only the
*primitives*: structural rewrites too entangled with the abstract
syntax to express as data (renames, interposition, merges, vertical
partitioning) and a small set of parameterized combinators
(note/warn/refuse on an access-pattern match).  Which combinator
handles which change kind, with which analyst message templates, is
declared by the shipped catalog ``repro/catalog/data/builtin.rules``
and compiled back onto these classes by :mod:`repro.catalog.compile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields, \
    replace

from repro.core import abstract
from repro.core.abstract import (
    ACond,
    AErase,
    AFirst,
    ALocate,
    AModify,
    AQuery,
    AReconnect,
    ARefind,
    AScan,
    AStmt,
    AStore,
    AToOwner,
    AbstractProgram,
)
from repro.errors import UnconvertiblePattern
from repro.programs import ast
from repro.relational.sequel import (
    Comparison,
    InSubquery,
    SequelQuery,
    parse_sequel,
)
from repro.schema.constraints import Constraint
from repro.schema.diff import (
    FieldRenamed,
    FieldsExtracted,
    FieldsInlined,
    RecordAdded,
    RecordInterposed,
    RecordRenamed,
    RecordsMerged,
    SchemaChange,
    SetRenamed,
    VirtualizedField,
)
from repro.schema.model import Schema


@dataclass
class RuleContext:
    """Shared state while converting one program."""

    source_schema: Schema
    target_schema: Schema
    notes: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def warn(self, text: str) -> None:
        self.warnings.append(text)


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------


def _rename_var_prefix(expr: ast.Expr, old_prefix: str,
                       new_prefix: str) -> ast.Expr:
    """Rewrite bound-variable references ``OLD.FIELD`` -> ``NEW.FIELD``."""
    if isinstance(expr, ast.Var) and expr.name.startswith(old_prefix):
        return ast.Var(new_prefix + expr.name[len(old_prefix):])
    if isinstance(expr, ast.Bin):
        return ast.Bin(expr.op,
                       _rename_var_prefix(expr.left, old_prefix, new_prefix),
                       _rename_var_prefix(expr.right, old_prefix, new_prefix))
    return expr


def _rewrite_exprs(statements: tuple[AStmt, ...], fn) -> tuple[AStmt, ...]:
    """Apply an expression rewriter to every expression in a block."""

    def fix(stmt: AStmt):
        if isinstance(stmt, ast.Assign):
            return replace(stmt, expr=fn(stmt.expr))
        if isinstance(stmt, ast.If):
            return replace(stmt, condition=fn(stmt.condition))
        if isinstance(stmt, ast.While):
            return replace(stmt, condition=fn(stmt.condition))
        if isinstance(stmt, ast.WriteTerminal):
            return replace(stmt, exprs=tuple(fn(e) for e in stmt.exprs))
        if isinstance(stmt, ast.WriteFile):
            return replace(stmt, exprs=tuple(fn(e) for e in stmt.exprs))
        if isinstance(stmt, (ALocate, AScan)):
            return replace(stmt, conditions=tuple(
                replace(c, value=fn(c.value)) for c in stmt.conditions
            ))
        if isinstance(stmt, (AStore, AModify)):
            key = "values" if isinstance(stmt, AStore) else "updates"
            pairs = getattr(stmt, key)
            return replace(stmt, **{key: tuple(
                (name, fn(value)) for name, value in pairs
            )})
        if isinstance(stmt, AReconnect):
            return replace(stmt, value=fn(stmt.value))
        return stmt

    return abstract.transform(statements, fix)


def _mentions_entity(statements: tuple[AStmt, ...], entity: str) -> bool:
    for stmt in abstract.walk(statements):
        if getattr(stmt, "entity", None) == entity:
            return True
    return False


def _mentions_field(statements: tuple[AStmt, ...], entity: str,
                    field_name: str) -> bool:
    var_name = f"{entity}.{field_name}"

    def in_expr(expr: ast.Expr) -> bool:
        if isinstance(expr, ast.Var):
            return expr.name == var_name
        if isinstance(expr, ast.Bin):
            return in_expr(expr.left) or in_expr(expr.right)
        return False

    for stmt in abstract.walk(statements):
        if getattr(stmt, "entity", None) == entity:
            for cond in getattr(stmt, "conditions", ()):
                if cond.field == field_name:
                    return True
            for name, _value in getattr(stmt, "values", ()):
                if name == field_name:
                    return True
            for name, _value in getattr(stmt, "updates", ()):
                if name == field_name:
                    return True
        for attribute in ("condition", "expr"):
            expr = getattr(stmt, attribute, None)
            if expr is not None and in_expr(expr):
                return True
        for expr in getattr(stmt, "exprs", ()):
            if in_expr(expr):
                return True
    return False


# ---------------------------------------------------------------------------
# Catalog message templating
# ---------------------------------------------------------------------------


def change_namespace(change: SchemaChange) -> dict[str, object]:
    """The namespace a catalog message template formats against: one
    name per dataclass field of the change.  Tuples render as lists
    and constraints as their ``describe()`` text, so a template can
    say ``{old_keys}`` or ``{constraint}`` directly -- ``str.format``
    supports attribute access but never method calls."""
    namespace: dict[str, object] = {}
    for spec in dataclass_fields(change):
        value = getattr(change, spec.name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, Constraint):
            value = value.describe()
        namespace[spec.name] = value
    return namespace


def format_message(template: str, change: SchemaChange,
                   extras: dict[str, object] | None = None) -> str:
    """Render one catalog message template for a concrete change."""
    namespace = change_namespace(change)
    if extras:
        namespace.update(extras)
    return template.format(**namespace)


# ---------------------------------------------------------------------------
# Rule base
# ---------------------------------------------------------------------------


class TransformationRule:
    """One rule: rewrites a program for one change kind."""

    change_type: type[SchemaChange]

    def apply(self, program: AbstractProgram, change: SchemaChange,
              ctx: RuleContext) -> AbstractProgram:
        raise NotImplementedError


class RenameRecordRule(TransformationRule):
    """Rename an entity everywhere: access ops, query text, bound variables."""

    change_type = RecordRenamed

    def apply(self, program, change, ctx):
        old, new = change.old_name, change.new_name

        def fix(stmt: AStmt):
            if getattr(stmt, "entity", None) == old:
                stmt = replace(stmt, entity=new)
            if isinstance(stmt, AQuery):
                stmt = replace(stmt, sequel_text=_rename_query_table(
                    stmt.sequel_text, old, new
                ))
            return stmt

        statements = abstract.transform(program.statements, fix)
        statements = _rewrite_exprs(
            statements,
            lambda e: _rename_var_prefix(e, f"{old}.", f"{new}."),
        )
        return program.with_statements(statements)


class RenameFieldRule(TransformationRule):
    """Rename a field in conditions, value lists, query text, and bound variables."""

    change_type = FieldRenamed

    def apply(self, program, change, ctx):
        record, old, new = change.record, change.old_name, change.new_name

        def fix(stmt: AStmt):
            if getattr(stmt, "entity", None) == record:
                if isinstance(stmt, (ALocate, AScan)):
                    stmt = replace(stmt, conditions=tuple(
                        replace(c, field=new) if c.field == old else c
                        for c in stmt.conditions
                    ))
                if isinstance(stmt, AStore):
                    stmt = replace(stmt, values=tuple(
                        (new if name == old else name, value)
                        for name, value in stmt.values
                    ))
                if isinstance(stmt, AModify):
                    stmt = replace(stmt, updates=tuple(
                        (new if name == old else name, value)
                        for name, value in stmt.updates
                    ))
            if isinstance(stmt, AQuery):
                stmt = replace(stmt, sequel_text=_rename_query_column(
                    stmt.sequel_text, record, old, new
                ))
            return stmt

        statements = abstract.transform(program.statements, fix)
        statements = _rewrite_exprs(
            statements,
            lambda e: _rename_var_prefix(e, f"{record}.{old}",
                                         f"{record}.{new}"),
        )
        # Row variables bound from queries over the renamed record
        # (FOR EACH ROW IN $ROWS / BIND FIRST) carry the renamed
        # column too: ROW.OLD -> ROW.NEW.
        for row_var in _row_vars_over(statements, record):
            statements = _rewrite_exprs(
                statements,
                lambda e, rv=row_var: _rename_var_prefix(
                    e, f"{rv}.{old}", f"{rv}.{new}"),
            )
        return program.with_statements(statements)


def _row_vars_over(statements: tuple[AStmt, ...],
                   record: str) -> set[str]:
    """Row variables whose rows come from a query over ``record``."""
    rows_vars: set[str] = set()
    for stmt in abstract.walk(statements):
        if isinstance(stmt, AQuery):
            try:
                table = parse_sequel(stmt.sequel_text).table
            except Exception:
                continue
            if table == record:
                rows_vars.add(stmt.into_var)
    row_vars: set[str] = set()
    for stmt in abstract.walk(statements):
        if isinstance(stmt, ast.ForEachRow) and \
                stmt.rows_var in rows_vars:
            row_vars.add(stmt.row_var)
        if isinstance(stmt, ast.BindFirstRow) and \
                stmt.rows_var in rows_vars:
            row_vars.add(stmt.row_var)
    return row_vars


class RenameSetRule(TransformationRule):
    """Rename a set in every via reference."""

    change_type = SetRenamed

    def apply(self, program, change, ctx):
        old, new = change.old_name, change.new_name

        def fix(stmt: AStmt):
            if getattr(stmt, "via", None) == old:
                return replace(stmt, via=new)
            return stmt

        return program.with_statements(
            abstract.transform(program.statements, fix)
        )


# ---------------------------------------------------------------------------
# Catalog combinators: parameterized by the compiled catalog with a
# change kind and analyst message templates (see repro.catalog).
# ---------------------------------------------------------------------------


class NoopRule(TransformationRule):
    """Changes with no program impact (pure additions, or changes the
    target model absorbs elsewhere -- e.g. sibling order, which only
    affects hierarchical GN sequences converted by command
    substitution)."""

    def __init__(self, change_type: type[SchemaChange] = RecordAdded):
        self.change_type = change_type

    def apply(self, program, change, ctx):
        return program


class NoteOnStoreRule(TransformationRule):
    """Note the message when the program STOREs the changed record."""

    def __init__(self, change_type: type[SchemaChange], note: str):
        self.change_type = change_type
        self.note = note

    def apply(self, program, change, ctx):
        stores = any(
            isinstance(stmt, AStore) and stmt.entity == change.record
            for stmt in abstract.walk(program.statements)
        )
        if stores:
            ctx.note(format_message(self.note, change))
        return program


class RefuseOnFieldUseRule(TransformationRule):
    """Refuse when the program references the changed record's field."""

    def __init__(self, change_type: type[SchemaChange], refusal: str):
        self.change_type = change_type
        self.refusal = refusal

    def apply(self, program, change, ctx):
        if _mentions_field(program.statements, change.record,
                           change.field_name):
            raise UnconvertiblePattern(
                format_message(self.refusal, change)
            )
        return program


class RefuseOnRecordUseRule(TransformationRule):
    """Refuse when the program accesses the changed record type."""

    def __init__(self, change_type: type[SchemaChange], refusal: str):
        self.change_type = change_type
        self.refusal = refusal

    def apply(self, program, change, ctx):
        if _mentions_entity(program.statements, change.record):
            raise UnconvertiblePattern(
                format_message(self.refusal, change)
            )
        return program


class RefuseOnSetUseRule(TransformationRule):
    """Refuse when the program traverses the changed set."""

    def __init__(self, change_type: type[SchemaChange], refusal: str):
        self.change_type = change_type
        self.refusal = refusal

    def apply(self, program, change, ctx):
        uses = any(
            getattr(stmt, "via", None) == change.set_name
            for stmt in abstract.walk(program.statements)
        )
        if uses:
            raise UnconvertiblePattern(
                format_message(self.refusal, change)
            )
        return program


class WarnOnReorderRule(TransformationRule):
    """Warn when order-sensitive scans or process-first touch the
    changed set: the Section 3.2 order-dependence pathology."""

    def __init__(self, change_type: type[SchemaChange],
                 scan_warning: str, first_warning: str):
        self.change_type = change_type
        self.scan_warning = scan_warning
        self.first_warning = first_warning

    def apply(self, program, change, ctx):
        for stmt in abstract.walk(program.statements):
            if isinstance(stmt, AScan) and stmt.via == change.set_name \
                    and stmt.order_sensitive:
                ctx.warn(format_message(self.scan_warning, change))
            if isinstance(stmt, AFirst) and stmt.via == change.set_name:
                ctx.warn(format_message(self.first_warning, change))
        return program


class NoteOnMembershipRule(TransformationRule):
    """Note behaviour changes for STORE/ERASE of the changed set's
    member (available to the template as ``{member}``)."""

    def __init__(self, change_type: type[SchemaChange], note: str):
        self.change_type = change_type
        self.note = note

    def apply(self, program, change, ctx):
        member = ctx.source_schema.set_type(change.set_name).member
        touches = any(
            isinstance(stmt, (AStore, AErase)) and stmt.entity == member
            for stmt in abstract.walk(program.statements)
        )
        if touches:
            ctx.note(format_message(self.note, change,
                                    {"member": member}))
        return program


class NoteRule(TransformationRule):
    """Unconditionally note the message (behaviour-change advisories
    that apply to every program, e.g. constraint changes)."""

    def __init__(self, change_type: type[SchemaChange], note: str):
        self.change_type = change_type
        self.note = note

    def apply(self, program, change, ctx):
        ctx.note(format_message(self.note, change))
        return program


class VirtualizedFieldRule(TransformationRule):
    """Reads survive virtualization; MODIFY becomes a reconnection."""

    change_type = VirtualizedField

    def apply(self, program, change, ctx):
        if not change.now_virtual:
            return program  # materialization: reads/writes keep working
        record, field_name = change.record, change.field_name
        via = change.via_set

        def fix(stmt: AStmt):
            if isinstance(stmt, AModify) and stmt.entity == record:
                moved = [
                    (name, value) for name, value in stmt.updates
                    if name == field_name
                ]
                if not moved:
                    return stmt
                remaining = tuple(
                    (name, value) for name, value in stmt.updates
                    if name != field_name
                )
                ctx.note(
                    f"MODIFY of {record}.{field_name} became a "
                    f"reconnection through {via} "
                    "(conversion-inserted statements)"
                )
                out: list[AStmt] = []
                if remaining:
                    out.append(replace(stmt, updates=remaining))
                out.append(AReconnect(record, via, field_name,
                                      moved[0][1], ensure_owner=False))
                return out
            return stmt

        return program.with_statements(
            abstract.transform(program.statements, fix)
        )


class InterposeRule(TransformationRule):
    """The Figure 4.2 -> 4.4 rule: nest scans, guard stores, reroute hops."""

    change_type = RecordInterposed

    def apply(self, program, change, ctx):
        if change.member:
            member, owner = change.member, change.owner
            order_keys = change.order_keys
        else:  # diff-inferred change without the snapshot
            source_set = ctx.source_schema.set_type(change.old_set)
            member, owner = source_set.member, source_set.owner
            order_keys = source_set.order_keys
        key_fields = set(change.key_fields)

        def split(conditions: tuple[ACond, ...]):
            key_conds = tuple(c for c in conditions
                              if c.field in key_fields)
            rest = tuple(c for c in conditions if c.field not in key_fields)
            pinned = {
                c.field for c in key_conds if c.op == "="
            } == key_fields
            return key_conds, rest, pinned

        def fix(stmt: AStmt):
            if isinstance(stmt, AScan) and stmt.via == change.old_set:
                if stmt.entity == member:
                    key_conds, rest, pinned = split(stmt.conditions)
                    inner = AScan(member, change.lower_set, rest,
                                  stmt.body, stmt.bind,
                                  stmt.order_sensitive, stmt.keyed)
                    outer = AScan(change.new_record, change.upper_set,
                                  key_conds, (inner,), bind=False)
                    if stmt.order_sensitive and not pinned:
                        ctx.warn(
                            f"scan of {member} via {change.old_set} is "
                            "order-sensitive; after interposition members "
                            f"arrive grouped by {change.new_record} "
                            "(level-2 conversion, Section 5.2)"
                        )
                    return outer
                if stmt.entity == owner:
                    raise UnconvertiblePattern(
                        f"upward scan of owners via {change.old_set} has "
                        "no mechanical equivalent after interposition"
                    )
            if isinstance(stmt, AFirst) and stmt.via == change.old_set \
                    and stmt.entity == member:
                rewritten = _first_member_min_rewrite(stmt, change,
                                                      order_keys, ctx)
                if rewritten is not None:
                    return rewritten
                ctx.warn(
                    f"'process first' of {change.old_set}: after "
                    f"interposition the first member of the first "
                    f"{change.new_record} group is processed, which may "
                    "be a different record (Section 3.2)"
                )
                inner = AFirst(member, change.lower_set, stmt.body,
                               stmt.bind)
                return AFirst(change.new_record, change.upper_set,
                              (inner,), bind=False)
            if isinstance(stmt, AToOwner) and stmt.via == change.old_set:
                return [
                    AToOwner(change.new_record, change.lower_set,
                             bind=False),
                    AToOwner(owner, change.upper_set, stmt.bind),
                ]
            if isinstance(stmt, AStore) and stmt.entity == member:
                stored = {name for name, _ in stmt.values}
                if stored & key_fields:
                    ctx.note(
                        f"STORE {member} now routes through interposed "
                        f"{change.new_record}; conversion inserts a "
                        "guarded STORE of the missing group record"
                    )
                    return _ensure_group_then_store(
                        stmt, change, ctx.target_schema)
            if isinstance(stmt, AModify) and stmt.entity == member:
                moved = [(name, value) for name, value in stmt.updates
                         if name in key_fields]
                if moved:
                    remaining = tuple(
                        (name, value) for name, value in stmt.updates
                        if name not in key_fields
                    )
                    ctx.note(
                        f"MODIFY of {member} group key became a "
                        f"reconnection through {change.lower_set}, "
                        f"creating the {change.new_record} group when "
                        "missing"
                    )
                    out: list[AStmt] = []
                    if remaining:
                        out.append(replace(stmt, updates=remaining))
                    out.extend(
                        AReconnect(member, change.lower_set, name, value,
                                   ensure_owner=True)
                        for name, value in moved
                    )
                    return out
            return stmt

        return program.with_statements(
            abstract.transform(program.statements, fix)
        )


def _first_member_min_rewrite(stmt: AFirst, change: RecordInterposed,
                              order_keys: tuple[str, ...],
                              ctx: RuleContext):
    """Strictly preserve 'process first' when the source set's single
    order key is also the member's CALC key: the first member overall
    is the minimum of the per-group firsts, found by a min-tracking
    sweep and then re-located directly.

    Returns None when the rewrite does not apply (multi-key or
    non-locatable ordering), in which case the caller falls back to the
    warned first-of-first-group form (Section 5.2 level 2).
    """
    member = change.member or \
        ctx.source_schema.set_type(change.old_set).member
    member_type = ctx.source_schema.record(member)
    if len(order_keys) != 1:
        return None
    order_key = order_keys[0]
    if member_type.calc_keys != (order_key,):
        return None
    min_var = f"FIRST-{member}-KEY"
    key_var = ast.Var(f"{member}.{order_key}")
    track = AScan(
        change.new_record, change.upper_set, (),
        (
            AFirst(member, change.lower_set, (
                ast.If(
                    ast.Bin("OR",
                            ast.Bin("=", ast.Var(min_var),
                                    ast.Const(None)),
                            ast.Bin("<", key_var, ast.Var(min_var))),
                    (ast.Assign(min_var, key_var),),
                ),
            ), bind=True),
        ),
        bind=False,
    )
    ctx.note(
        f"'process first' of {change.old_set} preserved exactly: the "
        f"conversion sweeps the {change.new_record} groups for the "
        f"minimal {order_key} and re-locates it"
    )
    process = ALocate(member, (ACond(order_key, "=",
                                     ast.Var(min_var)),),
                      bind=stmt.bind)
    return [
        ast.Assign(min_var, ast.Const(None)),
        track,
        ast.If(
            ast.Bin("<>", ast.Var(min_var), ast.Const(None)),
            (process,) + stmt.body,
        ),
    ]


def _ensure_group_then_store(store: AStore, change: RecordInterposed,
                             target_schema: Schema) -> list[AStmt]:
    """Insert the missing group record before the member store.

    Two scopings, mirroring CODASYL's two set-selection modes:

    * when the store values identify the *upper* owner by value (e.g.
      the member carried DIV-NAME, now a virtual field on the group),
      the check is a value-scoped LOCATE -- which works without any
      currency, so it survives retargeting to the relational model;
    * otherwise the check scans the upper set under the current owner
      occurrence (currency scoping), so same-named groups under other
      owners don't satisfy the existence test.
    """
    key_values = {
        name: value for name, value in store.values
        if name in change.key_fields
    }
    new_record = target_schema.record(change.new_record)
    chain_values = {
        name: value for name, value in store.values
        if name not in change.key_fields
        and new_record.has_field(name)
        and new_record.field(name).is_virtual
    }
    if chain_values:
        conditions = tuple(
            ACond(name, "=", value)
            for name, value in {**key_values, **chain_values}.items()
        )
        group_values = tuple({**key_values, **chain_values}.items())
        return [
            ALocate(change.new_record, conditions, bind=False),
            ast.If(
                ast.Bin("<>", ast.Var("DB-STATUS"), ast.Const("0000")),
                (AStore(change.new_record, group_values),),
            ),
            store,
        ]
    found_var = f"FOUND-{change.new_record}"
    key_conds = tuple(
        ACond(name, "=", value) for name, value in key_values.items()
    )
    return [
        ast.Assign(found_var, ast.Const(0)),
        AScan(change.new_record, change.upper_set, key_conds,
              (ast.Assign(found_var, ast.Const(1)),), bind=False),
        ast.If(
            ast.Bin("=", ast.Var(found_var), ast.Const(0)),
            (AStore(change.new_record, tuple(key_values.items())),),
        ),
        store,
    ]


class MergeRule(TransformationRule):
    """Inverse of interposition: collapse nested scans, inline bound variables."""

    change_type = RecordsMerged

    def apply(self, program, change, ctx):
        middle = change.removed_record
        lower = ctx.source_schema.set_type(change.lower_set)
        member = lower.member
        inherited = set(change.inherited_fields)

        def fix(stmt: AStmt):
            if isinstance(stmt, AScan) and stmt.via == change.upper_set \
                    and stmt.entity == middle:
                # Outer scan of the middle record: absorb a nested scan
                # of the member when there is one.
                nested = [
                    s for s in stmt.body
                    if isinstance(s, AScan) and s.via == change.lower_set
                ]
                others = [
                    s for s in stmt.body
                    if not (isinstance(s, AScan)
                            and s.via == change.lower_set)
                ]
                if not nested or others:
                    raise UnconvertiblePattern(
                        f"scan of merged record {middle} does more than "
                        "iterate its members; analyst must redesign"
                    )
                inner = nested[0]
                merged_conditions = stmt.conditions + inner.conditions
                body = _rewrite_exprs(
                    inner.body,
                    lambda e: _rename_var_prefix(e, f"{middle}.",
                                                 f"{member}."),
                )
                pinned = {
                    c.field for c in stmt.conditions if c.op == "="
                } >= inherited
                if inner.order_sensitive and not pinned:
                    ctx.warn(
                        f"merged scan loses grouping by {middle}; member "
                        "order within the new set follows its restored "
                        "keys (level-2 conversion)"
                    )
                return AScan(member, change.new_set, merged_conditions,
                             body, inner.bind, inner.order_sensitive,
                             inner.keyed)
            if isinstance(stmt, AToOwner) and stmt.via == change.lower_set \
                    and stmt.entity == middle:
                # Member -> middle hop: the middle's fields now live on
                # the member; drop the hop and rewrite references.
                ctx.note(
                    f"owner access to merged {middle} removed; its "
                    f"fields are stored on {member}"
                )
                return None
            if isinstance(stmt, AToOwner) and stmt.via == change.upper_set:
                return replace(stmt, via=change.new_set)
            if getattr(stmt, "entity", None) == middle:
                raise UnconvertiblePattern(
                    f"program accesses merged-away record {middle}"
                )
            return stmt

        statements = abstract.transform(program.statements, fix)
        statements = _rewrite_exprs(
            statements,
            lambda e: _rename_var_prefix(e, f"{middle}.", f"{member}."),
        )
        return program.with_statements(statements)


class ExtractFieldsRule(TransformationRule):
    """Vertical partition: reads keep working through the VIRTUAL
    fields; writes of moved fields are routed to the extracted record
    through conversion-inserted hops."""

    change_type = FieldsExtracted

    def apply(self, program, change, ctx):
        record = change.record
        moved = set(change.fields)
        new_record = change.new_record
        link = change.link_set

        def fix(stmt: AStmt):
            if isinstance(stmt, AStore) and stmt.entity == record:
                extracted = tuple(
                    (name, value) for name, value in stmt.values
                    if name in moved
                )
                rest = tuple(
                    (name, value) for name, value in stmt.values
                    if name not in moved
                )
                if not extracted:
                    # Still must create the 1:1 partner (MANDATORY link).
                    extracted = ()
                ctx.note(
                    f"STORE {record} splits across {record} and the "
                    f"extracted {new_record}"
                )
                return [AStore(new_record, extracted),
                        replace(stmt, values=rest)]
            if isinstance(stmt, AModify) and stmt.entity == record:
                extracted = tuple(
                    (name, value) for name, value in stmt.updates
                    if name in moved
                )
                if not extracted:
                    return stmt
                rest = tuple(
                    (name, value) for name, value in stmt.updates
                    if name not in moved
                )
                ctx.note(
                    f"MODIFY of extracted field(s) "
                    f"{[name for name, _ in extracted]} routed to "
                    f"{new_record} (conversion-inserted hop)"
                )
                out: list[AStmt] = []
                if rest:
                    out.append(replace(stmt, updates=rest))
                out.append(AToOwner(new_record, link, bind=False))
                out.append(AModify(new_record, extracted))
                out.append(ARefind(record))
                return out
            if isinstance(stmt, AErase) and stmt.entity == record:
                ctx.note(
                    f"ERASE {record} also erases its extracted "
                    f"{new_record} partner"
                )
                return [
                    AToOwner(new_record, link, bind=False),
                    ARefind(record),
                    stmt,
                    ARefind(new_record),
                    AErase(new_record),
                ]
            return stmt

        return program.with_statements(
            abstract.transform(program.statements, fix)
        )


class InlineFieldsRule(TransformationRule):
    """Inverse of extraction: hops to the removed record disappear and
    its bound variables live on the merged record."""

    change_type = FieldsInlined

    def apply(self, program, change, ctx):
        removed = change.removed_record
        record = change.record

        def fix(stmt: AStmt):
            if isinstance(stmt, AToOwner) and stmt.via == change.link_set:
                ctx.note(
                    f"hop to inlined record {removed} removed; its "
                    f"fields are stored on {record}"
                )
                return None
            if isinstance(stmt, AModify) and stmt.entity == removed:
                return replace(stmt, entity=record)
            if getattr(stmt, "entity", None) == removed:
                raise UnconvertiblePattern(
                    f"program accesses inlined-away record {removed}"
                )
            return stmt

        statements = abstract.transform(program.statements, fix)
        statements = _rewrite_exprs(
            statements,
            lambda e: _rename_var_prefix(e, f"{removed}.", f"{record}."),
        )
        return program.with_statements(statements)


def _rename_query_table(sequel_text: str, old: str, new: str) -> str:
    query = parse_sequel(sequel_text)
    return _rename_tables(query, old, new).render()


def _rename_tables(query: SequelQuery, old: str, new: str) -> SequelQuery:
    where = tuple(
        InSubquery(c.column, _rename_tables(c.query, old, new))
        if isinstance(c, InSubquery) else c
        for c in query.where
    )
    return replace(query,
                   table=new if query.table == old else query.table,
                   where=where)


def _rename_query_column(sequel_text: str, record: str, old: str,
                         new: str) -> str:
    query = parse_sequel(sequel_text)
    return _rename_columns(query, record, old, new).render()


def _rename_columns(query: SequelQuery, record: str, old: str,
                    new: str) -> SequelQuery:
    def fix_condition(condition):
        if isinstance(condition, InSubquery):
            inner = _rename_columns(condition.query, record, old, new)
            column = condition.column
            if query.table == record and column == old:
                column = new
            return InSubquery(column, inner)
        if query.table == record and condition.column == old:
            return Comparison(new, condition.op, condition.value)
        return condition

    columns = query.columns
    order_by = query.order_by
    if query.table == record:
        columns = tuple(new if c == old else c for c in columns)
        order_by = tuple(new if c == old else c for c in order_by)
    return replace(query, columns=columns, order_by=order_by,
                   where=tuple(fix_condition(c) for c in query.where))

