"""The network database: stores, set occurrences, CALC indexes,
constraint checking, and the consistent-state run-unit boundary.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.engine.index import HashIndex
from repro.engine.metrics import Metrics
from repro.engine.savepoint import Savepoint, UndoLog, fingerprint
from repro.engine.storage import Record, RecordStore
from repro.errors import (
    IntegrityError,
    MandatoryViolation,
)
from repro.network.sets import SetStore
from repro.schema.constraints import Violation, check_all
from repro.schema.model import Field, Retention, Schema, SetType


class NetworkDatabase:
    """An in-memory CODASYL database instance over a schema.

    Implements the :class:`repro.schema.constraints.DatabaseView`
    protocol so declared constraints check uniformly, and exposes the
    raw stores/sets to the DML session, the data translator, and the
    bridge strategy.
    """

    def __init__(self, schema: Schema, metrics: Metrics | None = None):
        schema.validate()
        self.schema = schema
        self.metrics = metrics if metrics is not None else Metrics()
        # One undo log behind every store, set and CALC index.
        self._undo = UndoLog()
        self._stores: dict[str, RecordStore] = {
            name: RecordStore(name, self.metrics, self._undo)
            for name in schema.records
        }
        self._sets: dict[str, SetStore] = {
            name: SetStore(set_type, self._stores[set_type.member],
                           self._undo)
            for name, set_type in schema.sets.items()
        }
        # The sets each record type owns or belongs to: the only ones a
        # verb on one of its records can touch.  Built once, since the
        # schema never changes under a database.
        self._sets_of: dict[str, tuple[SetType, ...]] = {
            name: tuple(schema.sets_of(name)) for name in schema.records
        }
        self._calc: dict[str, HashIndex] = {}
        for name, record in schema.records.items():
            if record.calc_keys:
                self._calc[name] = HashIndex(
                    f"{name}.calc", unique=False, metrics=self.metrics,
                    undo=self._undo,
                )

    # -- low-level access -------------------------------------------------

    def store(self, record_name: str) -> RecordStore:
        store = self._stores.get(record_name)
        if store is None:
            self.schema.record(record_name)  # raises UnknownRecordType
        return store

    def set_store(self, set_name: str) -> SetStore:
        set_store = self._sets.get(set_name)
        if set_store is None:
            self.schema.set_type(set_name)  # raises UnknownSetType
        return set_store

    def sets_of(self, record_name: str) -> tuple[SetType, ...]:
        """:meth:`Schema.sets_of <repro.schema.model.Schema.sets_of>`,
        looked up instead of searched."""
        return self._sets_of.get(record_name, ())

    def calc_index(self, record_name: str) -> HashIndex | None:
        return self._calc.get(record_name)

    def _calc_key(self, record_name: str, values: dict[str, Any]) -> tuple:
        return tuple(map(values.get, self.schema.record(record_name).calc_keys))

    # -- record lifecycle ---------------------------------------------------

    def insert_record(self, record_name: str,
                      values: dict[str, Any]) -> Record:
        """Store a record (no set connection -- the DML layer drives
        AUTOMATIC insertion so currency can participate)."""
        record_type = self.schema.record(record_name)
        checked = record_type.validate_values(values)
        # Fill unmentioned stored fields with null.
        for field_name in record_type.stored_field_names():
            checked.setdefault(field_name, None)
        record = self._stores[record_name].insert(checked)
        index = self._calc.get(record_name)
        if index is not None:
            index.insert(self._calc_key(record_name, checked), record.rid)
        return record

    def insert_records(self, record_name: str,
                       rows: list[dict[str, Any]]) -> list[Record]:
        """Bulk :meth:`insert_record`: validation per row, store and
        CALC-index maintenance amortized over the batch."""
        record_type = self.schema.record(record_name)
        stored_fields = record_type.stored_field_names()
        checked_rows = []
        for values in rows:
            checked = record_type.validate_values(values)
            for field_name in stored_fields:
                checked.setdefault(field_name, None)
            checked_rows.append(checked)
        records = self._stores[record_name].insert_many(checked_rows)
        index = self._calc.get(record_name)
        if index is not None:
            calc_keys = record_type.calc_keys
            for record in records:
                index.insert(tuple(map(record.values.get, calc_keys)),
                             record.rid)
        return records

    def update_record(self, record_name: str, rid: int,
                      updates: dict[str, Any]) -> Record:
        record_type = self.schema.record(record_name)
        checked = record_type.validate_values(updates)
        store = self._stores[record_name]
        old = store.peek(rid)
        record = store.update(rid, checked)
        index = self._calc.get(record_name)
        if index is not None and old is not None:
            old_key = self._calc_key(record_name, old.values)
            new_key = self._calc_key(record_name, record.values)
            if old_key != new_key:
                index.remove(old_key, rid)
                index.insert(new_key, rid)
        # Re-sort any set occurrence whose order keys were touched.
        for set_type in self._sets_of[record_name]:
            if set_type.member != record_name:
                continue
            if any(key in checked for key in set_type.order_keys):
                self._sets[set_type.name].reposition(rid)
        return record

    def delete_record(self, record_name: str, rid: int,
                      all_members: bool = False) -> None:
        """ERASE semantics.

        Without ``all_members``: OPTIONAL members of owned occurrences
        are disconnected; a non-empty occurrence of MANDATORY members
        refuses the erase.  With ``all_members``: members are erased
        recursively -- the Section 3.1 hazard ("deletion of course
        offerings when instructors are deleted ... violates the
        system's integrity constraints"); any damage is caught at the
        run-unit boundary, not here.  A refused erase changes nothing:
        every MANDATORY occurrence is checked before the first
        disconnect.
        """
        touched = self._sets_of[record_name]
        owned = [self._sets[set_type.name] for set_type in touched
                 if set_type.owner == record_name]
        if not all_members:
            for set_store in owned:
                set_type = set_store.set_type
                members = set_store.members(rid)
                if members and set_type.retention is Retention.MANDATORY:
                    raise MandatoryViolation(
                        f"cannot erase {record_name} rid {rid}: occurrence "
                        f"of {set_type.name} has {len(members)} MANDATORY "
                        f"members"
                    )
        for set_store in owned:
            for member_rid in list(set_store.members(rid)):
                set_store.disconnect(member_rid)
                if all_members:
                    self.delete_record(set_store.set_type.member, member_rid,
                                       all_members=True)
        # Leave every set this record belongs to as a member.
        for set_type in touched:
            if set_type.member == record_name:
                self._sets[set_type.name].disconnect(rid)
        store = self._stores[record_name]
        old = store.peek(rid)
        store.delete(rid)
        index = self._calc.get(record_name)
        if index is not None and old is not None:
            index.remove(self._calc_key(record_name, old.values), rid)

    # -- set connection -------------------------------------------------

    def connect(self, set_name: str, owner_rid: int, member_rid: int) -> None:
        self.metrics.set_traversals += 1
        self._sets[set_name].connect(owner_rid, member_rid)

    def connect_many(self, set_name: str, owner_rid: int,
                     member_rids: list[int]) -> None:
        """Bulk :meth:`connect` into one occurrence: the occurrence is
        ordered once for the whole batch instead of per member."""
        self.metrics.set_traversals += len(member_rids)
        self._sets[set_name].connect_many(owner_rid, member_rids)

    def disconnect(self, set_name: str, member_rid: int) -> int | None:
        return self._sets[set_name].disconnect(member_rid)

    def select_owner_by_value(self, set_type: SetType, using_field: str,
                              value: Any) -> Record | None:
        """SET SELECTION BY VALUE: the first owner whose ``using_field``
        equals ``value`` (backing VIRTUAL ... VIA ... USING storage)."""
        owners = self.select_owners_by_value(set_type, using_field, value)
        return owners[0] if owners else None

    def select_owners_by_value(self, set_type: SetType, using_field: str,
                               value: Any) -> list[Record]:
        """All owners whose ``using_field`` equals ``value``.

        Interposed record types (Figure 4.4's DEPT) have keys unique
        only within their own owner's occurrence, so selection may be
        ambiguous; the DML session disambiguates with set currency
        (CODASYL SET SELECTION ... THRU OWNER)."""
        owner_type = self.schema.record(set_type.owner)
        index = self._calc.get(set_type.owner)
        if index is not None and owner_type.calc_keys == (using_field,):
            rids = index.lookup((value,))
            return [self._stores[set_type.owner].fetch(rid) for rid in rids]
        # The using-field may itself be virtual on the owner (a chain
        # through an interposed record): resolve through read_field.
        return [
            record for record in self._stores[set_type.owner].scan()
            if self.read_field(record, using_field) == value
        ]

    # -- DatabaseView protocol -------------------------------------------

    def instances(self, record_name: str) -> Iterator[Record]:
        yield from self.store(record_name).scan()

    def owner_record(self, set_name: str, member_rid: int) -> Record | None:
        set_store = self.set_store(set_name)
        owner_rid = set_store.owner(member_rid)
        if owner_rid is None:
            return None
        if set_store.set_type.system_owned:
            return None  # SYSTEM has no owner record
        self.metrics.set_traversals += 1
        return self._stores[set_store.set_type.owner].fetch(owner_rid)

    def member_records(self, set_name: str, owner_rid: int) -> Iterator[Record]:
        set_store = self.set_store(set_name)
        member_store = self._stores[set_store.set_type.member]
        for member_rid in set_store.members(owner_rid):
            self.metrics.set_traversals += 1
            yield member_store.fetch(member_rid)

    def read_field(self, record: Record, field_name: str) -> Any:
        """Field access resolving VIRTUAL fields through their set."""
        fld = self.schema.record(record.type_name).field(field_name)
        if not fld.is_virtual:
            return record.values.get(field_name)
        return self._read_virtual(record, fld)

    def _read_virtual(self, record: Record, fld: Field) -> Any:
        owner = self.owner_record(fld.virtual_via, record.rid)
        if owner is None:
            return None
        # Recurse: the owner's field may itself be virtual (a chain
        # created by interposing a record on a set with virtual fields).
        return self.read_field(owner, fld.virtual_using)

    def record_values(self, record: Record) -> dict[str, Any]:
        """All field values of a record, virtuals resolved."""
        stored = record.values
        values: dict[str, Any] = {}
        for fld in self.schema.record(record.type_name).fields:
            if fld.is_virtual:
                values[fld.name] = self._read_virtual(record, fld)
            else:
                values[fld.name] = stored.get(fld.name)
        return values

    # -- integrity ---------------------------------------------------------

    def check_constraints(self) -> list[Violation]:
        """All current violations of the schema's declared constraints,
        plus the structural AUTOMATIC+MANDATORY existence rule."""
        violations = check_all(self)
        for set_type in self.schema.sets.values():
            if set_type.system_owned:
                continue
            if set_type.retention is not Retention.MANDATORY:
                continue
            set_store = self._sets[set_type.name]
            for record in self.instances(set_type.member):
                if not set_store.is_connected(record.rid):
                    violations.append(Violation(
                        _MandatoryRule(set_type.name), set_type.member,
                        record.rid,
                        f"{set_type.member} rid {record.rid} is not "
                        f"connected in MANDATORY set {set_type.name}",
                    ))
        return violations

    def verify_consistent(self) -> None:
        """Raise IntegrityError when the database is inconsistent."""
        violations = self.check_constraints()
        if violations:
            summary = "; ".join(str(v) for v in violations[:5])
            raise IntegrityError(
                f"database inconsistent ({len(violations)} violations): "
                f"{summary}",
                constraint=violations[0].constraint,
            )

    @contextmanager
    def run_unit(self) -> Iterator["NetworkDatabase"]:
        """The Section 1.1 contract: a program takes the database from
        one consistent state to another.  Entering asserts nothing;
        leaving (without an exception in flight) verifies consistency.
        """
        yield self
        self.verify_consistent()

    # -- savepoints --------------------------------------------------------

    def savepoint(self) -> Savepoint:
        """Mark the instance's undo log: from now on every store, set
        occurrence and CALC index change is logged.  Metrics are
        deliberately NOT restored -- a rolled-back probe still did the
        work it did."""
        return self._undo.savepoint("network-db", self)

    def rollback(self, savepoint: Savepoint) -> None:
        """Restore the exact state at :meth:`savepoint` and end it,
        with every savepoint taken after it."""
        self._undo.rollback(savepoint, "network-db", self)

    def release(self, savepoint: Savepoint) -> None:
        """End :meth:`savepoint` (and later ones), keeping the changes."""
        self._undo.release(savepoint, "network-db", self)

    def state_fingerprint(self) -> str:
        """Content digest over records, set occurrences, and rid
        counters; two databases with equal fingerprints are
        byte-identical in everything a program can observe."""
        return fingerprint((
            "network", self.schema.name,
            tuple(store.state_fingerprint_data()
                  for store in self._stores.values()),
            tuple(set_store.state_fingerprint_data()
                  for set_store in self._sets.values()),
        ))

    # -- convenience -------------------------------------------------------

    def count(self, record_name: str) -> int:
        return len(self.store(record_name))


class _MandatoryRule:
    """Ad-hoc pseudo-constraint used in violation reports for the
    structural MANDATORY-membership rule."""

    def __init__(self, set_name: str):
        self.name = f"MANDATORY({set_name})"
        self.set_name = set_name

    def describe(self) -> str:
        return f"MANDATORY MEMBERSHIP IN {self.set_name}"
