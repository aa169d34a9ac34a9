"""Relational database over the common schema.

Record types become base relations over their *stored* fields plus, for
each non-SYSTEM set membership, foreign-key columns named after the
owner's CALC key (Figure 3.1a style).  Sets are metadata only: the
paper's point in Section 3.1 is that the relational model enforces
nothing but key uniqueness -- so inserts here check declared UniqueKey
constraints and nothing else, and the rest is caught (or not) at the
run-unit boundary.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.engine.metrics import Metrics
from repro.engine.savepoint import Savepoint, UndoLog, fingerprint
from repro.engine.storage import Record
from repro.errors import IntegrityError, QueryError, UniquenessViolation
from repro.relational.relation import Relation
from repro.schema.constraints import UniqueKey, Violation, check_all
from repro.schema.model import Schema, SetType


def fk_columns(schema: Schema, set_type: SetType,
               _visited: frozenset[str] = frozenset()) -> list[str]:
    """The member-side columns referencing the owner of a set.

    The owner's CALC key names, e.g. COURSE-OFFERING carries CNO for
    the course set and S for the semester set.  When the owner is
    itself a member of further sets (a *weak entity* like the
    interposed DEPT of Figure 4.4, whose DEPT-NAME is unique only
    within a division), the foreign key is composite: the owner's key
    plus, recursively, the owner's own foreign-key columns -- so EMP
    carries (DEPT-NAME, DIV-NAME).  Raises when the owner declares no
    CALC key (the relational interpretation needs one).
    """
    if set_type.system_owned:
        return []
    owner = schema.record(set_type.owner)
    if not owner.calc_keys:
        raise QueryError(
            f"set {set_type.name}: owner {set_type.owner} has no CALC key "
            "to serve as the relational foreign key"
        )
    columns = list(owner.calc_keys)
    if set_type.owner in _visited:
        return columns  # ownership cycle: stop at the direct key
    visited = _visited | {set_type.owner}
    for upper in schema.sets_with_member(set_type.owner):
        if upper.system_owned:
            continue
        for column in fk_columns(schema, upper, visited):
            if column not in columns:
                columns.append(column)
    return columns


def relation_columns(schema: Schema, record_name: str) -> list[str]:
    """Columns of a record type's base relation: stored fields plus any
    missing foreign-key columns for its set memberships."""
    record_type = schema.record(record_name)
    columns = list(record_type.stored_field_names())
    for set_type in schema.sets_with_member(record_name):
        for column in fk_columns(schema, set_type):
            if column not in columns:
                columns.append(column)
    return columns


def index_columns(schema: Schema, record_name: str) -> list[tuple[str, ...]]:
    """The column tuples worth indexing on a base relation: the CALC
    (primary) key, each set membership's foreign-key columns, the same
    columns on the owner side (so owner lookups are keyed), and every
    declared UniqueKey."""
    record_type = schema.record(record_name)
    relation_cols = set(relation_columns(schema, record_name))
    out: list[tuple[str, ...]] = []

    def add(columns: tuple[str, ...]) -> None:
        if not columns or columns in out:
            return
        if all(column in relation_cols for column in columns):
            out.append(columns)

    add(tuple(record_type.calc_keys))
    for set_type in schema.sets_with_member(record_name):
        add(tuple(fk_columns(schema, set_type)))
    for set_type in schema.sets_owned_by(record_name):
        if not set_type.system_owned:
            add(tuple(fk_columns(schema, set_type)))
    for constraint in schema.constraints:
        if isinstance(constraint, UniqueKey) and \
                constraint.record == record_name:
            add(tuple(constraint.fields))
    return out


class RelationalDatabase:
    """Base relations for every record type of a schema.

    ``use_indexes=False`` restores the seed's index-free linear-scan
    execution (the escape hatch mirroring the snapshot pattern); the
    default builds maintained HashIndexes on primary-key, foreign-key,
    and unique-key columns of every base relation.
    """

    def __init__(self, schema: Schema, metrics: Metrics | None = None,
                 use_indexes: bool = True):
        schema.validate()
        self.schema = schema
        self.metrics = metrics if metrics is not None else Metrics()
        self.use_indexes = use_indexes
        # One undo log behind every base relation and its indexes.
        self._undo = UndoLog()
        self.relations: dict[str, Relation] = {
            name: Relation(name, relation_columns(schema, name),
                           metrics=self.metrics, use_indexes=use_indexes,
                           undo=self._undo)
            for name in schema.records
        }
        if use_indexes:
            for name, relation in self.relations.items():
                for columns in index_columns(schema, name):
                    relation.add_index(columns)

    # -- access -------------------------------------------------------------

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise QueryError(f"no relation {name}") from None

    def insert(self, relation_name: str, row: dict[str, Any],
               enforce_keys: bool = True) -> dict[str, Any]:
        """INSERT one row; checks declared UniqueKey constraints (the
        one thing the 1979 relational model enforces natively)."""
        self.metrics.dml_calls += 1
        relation = self.relation(relation_name)
        if enforce_keys:
            for constraint in self.schema.constraints:
                if not isinstance(constraint, UniqueKey):
                    continue
                if constraint.record != relation_name:
                    continue
                key = tuple(row.get(f) for f in constraint.fields)
                if any(part is None for part in key):
                    continue
                equal = dict(zip(constraint.fields, key))
                clashes = relation.lookup_rows(equal)
                if clashes is None:
                    clashes = [
                        existing for existing in relation
                        if tuple(existing.get(f)
                                 for f in constraint.fields) == key
                    ]
                if clashes:
                    raise UniquenessViolation(
                        f"{relation_name}: duplicate key {key!r} "
                        f"({constraint.name})"
                    )
        return relation.append(row)

    def insert_many(self, relation_name: str, rows: list[dict[str, Any]],
                    enforce_keys: bool = True) -> list[dict[str, Any]]:
        """Bulk :meth:`insert`: the UniqueKey check scans the existing
        relation once per constraint (building a key set) instead of
        once per inserted row."""
        self.metrics.dml_calls += 1
        relation = self.relation(relation_name)
        if enforce_keys:
            constraints = [
                c for c in self.schema.constraints
                if isinstance(c, UniqueKey) and c.record == relation_name
            ]
            for constraint in constraints:
                seen = set()
                for existing in relation:
                    key = tuple(existing.get(f) for f in constraint.fields)
                    if not any(part is None for part in key):
                        seen.add(key)
                for row in rows:
                    key = tuple(row.get(f) for f in constraint.fields)
                    if any(part is None for part in key):
                        continue
                    if key in seen:
                        raise UniquenessViolation(
                            f"{relation_name}: duplicate key {key!r} "
                            f"({constraint.name})"
                        )
                    seen.add(key)
        return relation.extend(rows)

    def delete_where(self, relation_name: str, predicate,
                     equal: dict[str, Any] | None = None) -> int:
        self.metrics.dml_calls += 1
        return self.relation(relation_name).remove_where(predicate,
                                                         equal=equal)

    def update_where(self, relation_name: str, predicate,
                     updates: dict[str, Any],
                     equal: dict[str, Any] | None = None) -> int:
        self.metrics.dml_calls += 1
        return self.relation(relation_name).update_where(predicate, updates,
                                                         equal=equal)

    # -- DatabaseView protocol -------------------------------------------------

    def instances(self, record_name: str) -> Iterator[Record]:
        """Rows exposed as Record objects (rid = 1-based row position)."""
        relation = self.relation(record_name)
        for position, row in enumerate(relation, start=1):
            yield Record(position, record_name, dict(row))

    def owner_record(self, set_name: str, member_rid: int) -> Record | None:
        set_type = self.schema.set_type(set_name)
        if set_type.system_owned:
            return None
        member_rows = self.relation(set_type.member).rows()
        if not 1 <= member_rid <= len(member_rows):
            return None
        member_row = member_rows[member_rid - 1]
        columns = fk_columns(self.schema, set_type)
        key = tuple(member_row.get(c) for c in columns)
        if any(part is None for part in key):
            return None
        owner_relation = self.relation(set_type.owner)
        hits = owner_relation.lookup_positions(dict(zip(columns, key)))
        if hits is not None:
            for position, row in hits:
                return Record(position, set_type.owner, dict(row))
            return None
        for position, row in enumerate(owner_relation, start=1):
            if tuple(row.get(c) for c in columns) == key:
                return Record(position, set_type.owner, dict(row))
        return None

    def member_records(self, set_name: str, owner_rid: int) -> Iterator[Record]:
        set_type = self.schema.set_type(set_name)
        columns = fk_columns(self.schema, set_type)
        if set_type.system_owned:
            yield from self.instances(set_type.member)
            return
        owner_rows = self.relation(set_type.owner).rows()
        if not 1 <= owner_rid <= len(owner_rows):
            return
        key = tuple(owner_rows[owner_rid - 1].get(c) for c in columns)
        member_relation = self.relation(set_type.member)
        hits = member_relation.lookup_positions(dict(zip(columns, key)))
        if hits is not None:
            for position, row in hits:
                yield Record(position, set_type.member, dict(row))
            return
        for position, row in enumerate(member_relation, start=1):
            if tuple(row.get(c) for c in columns) == key:
                yield Record(position, set_type.member, dict(row))

    def read_field(self, record: Record, field_name: str) -> Any:
        """Column access; VIRTUAL fields resolve through the FK."""
        record_type = self.schema.record(record.type_name)
        if record_type.has_field(field_name):
            fld = record_type.field(field_name)
            if fld.is_virtual:
                owner = self.owner_record(fld.virtual_via, record.rid)
                if owner is None:
                    return None
                return self.read_field(owner, fld.virtual_using)
        return record.get(field_name)

    # -- integrity ---------------------------------------------------------------

    def check_constraints(self) -> list[Violation]:
        return check_all(self)

    def verify_consistent(self) -> None:
        violations = self.check_constraints()
        if violations:
            summary = "; ".join(str(v) for v in violations[:5])
            raise IntegrityError(
                f"database inconsistent ({len(violations)} violations): "
                f"{summary}",
                constraint=violations[0].constraint,
            )

    @contextmanager
    def run_unit(self) -> Iterator["RelationalDatabase"]:
        yield self
        self.verify_consistent()

    def count(self, relation_name: str) -> int:
        return len(self.relation(relation_name))

    # -- savepoints --------------------------------------------------------

    def savepoint(self) -> Savepoint:
        """Mark the undo log of every base relation (metrics are not
        restored, as for the other engines)."""
        return self._undo.savepoint("relational-db", self)

    def rollback(self, savepoint: Savepoint) -> None:
        """Restore the exact state at :meth:`savepoint` and end it,
        with every savepoint taken after it."""
        self._undo.rollback(savepoint, "relational-db", self)

    def release(self, savepoint: Savepoint) -> None:
        """End :meth:`savepoint` (and later ones), keeping the changes."""
        self._undo.release(savepoint, "relational-db", self)

    def state_fingerprint(self) -> str:
        return fingerprint((
            "relational", self.schema.name,
            tuple(relation.state_fingerprint_data()
                  for relation in self.relations.values()),
        ))
