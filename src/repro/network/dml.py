"""DBTG data-manipulation language session.

The verbs follow the 1978 CODASYL DML the paper quotes in Section 4.1::

    MOVE 'D2' TO D# IN DEPT.
    FIND ANY DEPT.
    IF no such occurrence is found GO TO NOTFD.
    MOVE 3 TO YEAR-OF-SERVICE IN EMP.
    NEXT. FIND NEXT EMP WITHIN ED USING YEAR-OF-SERVICE.
    IF no other occurrences GO TO NEXT.

A session owns a user work area (UWA) and a currency table.  Every verb
sets :attr:`DMLSession.status`; navigational misses are status codes,
not exceptions, so programs can exhibit (and conversions must preserve)
the Section 3.2 status-code behaviors.  Genuine integrity violations
still raise.
"""

from __future__ import annotations

from typing import Any

from repro.engine.storage import Record
from repro.errors import CurrencyError, ExistenceViolation
from repro.network.currency import CurrencyTable
from repro.network.database import NetworkDatabase
from repro.network.sets import SYSTEM_OWNER_RID
from repro.schema.model import Insertion, Retention, SetType

#: DBTG-style status codes.
STATUS_OK = "0000"
STATUS_END_OF_SET = "0307"     # FIND NEXT/PRIOR ran off the occurrence
STATUS_NOT_FOUND = "0326"      # FIND ANY / FIND ... USING found nothing
STATUS_NO_CURRENCY = "0306"    # verb issued without required currency
STATUS_EMPTY_SET = "0307"      # FIND FIRST of an empty occurrence


class DMLSession:
    """One run unit's view of a network database."""

    def __init__(self, db: NetworkDatabase):
        self.db = db
        self.currency = CurrencyTable()
        self.status = STATUS_OK
        self.uwa: dict[str, dict[str, Any]] = {
            name: {} for name in db.schema.records
        }

    # -- user work area ---------------------------------------------------

    def move(self, value: Any, record_name: str, field_name: str) -> None:
        """MOVE value TO field IN record (fills the UWA)."""
        self.db.schema.record(record_name).field(field_name)
        self.uwa[record_name][field_name] = value

    # -- internal helpers ---------------------------------------------------

    def _ok(self, record: Record,
            retain_sets: frozenset[str] = frozenset()) -> Record:
        self.status = STATUS_OK
        self.currency.note(self.db.schema, record.type_name, record.rid,
                           retain_sets)
        return record

    def _miss(self, status: str) -> None:
        self.status = status
        return None

    def current_record(self) -> Record | None:
        """The record identified by the current of run-unit."""
        position = self.currency.run_unit
        if position is None:
            return None
        return self.db.store(position.record_name).peek(position.rid)

    def current_matches(self, record_name: str) -> bool:
        """Is the current of run-unit an instance of ``record_name``?
        (Overridden by emulation layers that rename record types.)"""
        record = self.current_record()
        return record is not None and record.type_name == record_name

    def _set_position(self, set_name: str) -> tuple[SetType, int | None]:
        """Resolve the current of set into (set type, owner rid)."""
        set_type = self.db.schema.set_type(set_name)
        if set_type.system_owned:
            return set_type, SYSTEM_OWNER_RID
        position = self.currency.of_set(set_name)
        if position is None:
            return set_type, None
        if position.record_name == set_type.owner:
            return set_type, position.rid
        # Current of set is a member: its occurrence is its owner's.
        owner_rid = self.db.set_store(set_name).owner(position.rid)
        return set_type, owner_rid

    # -- FIND verbs ----------------------------------------------------------

    def find_any(self, record_name: str,
                 **field_values: Any) -> Record | None:
        """FIND ANY record USING its CALC key (values from the UWA,
        overridable by keyword arguments)."""
        self.db.metrics.dml_calls += 1
        record_type = self.db.schema.record(record_name)
        # Explicit values identify the record on their own; the UWA is
        # consulted only for the MOVE ... FIND ANY idiom (no arguments).
        values = dict(field_values) if field_values \
            else dict(self.uwa[record_name])
        calc_supplied = record_type.calc_keys and all(
            values.get(k) is not None for k in record_type.calc_keys
        )
        if calc_supplied:
            key = tuple(values.get(k) for k in record_type.calc_keys)
            index = self.db.calc_index(record_name)
            rids = index.lookup(key)
            for rid in rids:
                record = self.db.store(record_name).fetch(rid)
                if all(self.db.read_field(record, k) == v
                       for k, v in values.items()):
                    return self._ok(record)
            return self._miss(STATUS_NOT_FOUND)
        # No usable CALC key: exhaustive scan on the supplied values.
        # read_field resolves VIRTUAL fields, so locates survive
        # virtualization/extraction restructurings.
        for record in self.db.store(record_name).scan():
            if all(self.db.read_field(record, k) == v
                   for k, v in values.items()):
                return self._ok(record)
        return self._miss(STATUS_NOT_FOUND)

    def find_first(self, record_name: str, set_name: str) -> Record | None:
        """FIND FIRST record WITHIN set."""
        self.db.metrics.dml_calls += 1
        set_type, owner_rid = self._set_position(set_name)
        if owner_rid is None:
            return self._miss(STATUS_NO_CURRENCY)
        if set_type.member != record_name:
            raise CurrencyError(
                f"{record_name} is not the member of set {set_name}"
            )
        self.db.metrics.set_traversals += 1
        first_rid = self.db.set_store(set_name).first(owner_rid)
        if first_rid is None:
            return self._miss(STATUS_EMPTY_SET)
        return self._ok(self.db.store(record_name).fetch(first_rid))

    def find_last(self, record_name: str, set_name: str) -> Record | None:
        """FIND LAST record WITHIN set."""
        self.db.metrics.dml_calls += 1
        set_type, owner_rid = self._set_position(set_name)
        if owner_rid is None:
            return self._miss(STATUS_NO_CURRENCY)
        self.db.metrics.set_traversals += 1
        last_rid = self.db.set_store(set_name).last(owner_rid)
        if last_rid is None:
            return self._miss(STATUS_EMPTY_SET)
        return self._ok(self.db.store(record_name).fetch(last_rid))

    def find_next(self, record_name: str, set_name: str) -> Record | None:
        """FIND NEXT record WITHIN set (from the current of set)."""
        self.db.metrics.dml_calls += 1
        set_type = self.db.schema.set_type(set_name)
        position = self.currency.of_set(set_name)
        if position is None:
            return self._miss(STATUS_NO_CURRENCY)
        if position.record_name == set_type.owner or (
                set_type.system_owned
                and position.record_name != set_type.member):
            # Positioned on the owner: NEXT means FIRST.
            return self.find_first(record_name, set_name)
        self.db.metrics.set_traversals += 1
        next_rid = self.db.set_store(set_name).next_after(position.rid)
        if next_rid is None:
            return self._miss(STATUS_END_OF_SET)
        return self._ok(self.db.store(record_name).fetch(next_rid))

    def find_prior(self, record_name: str, set_name: str) -> Record | None:
        """FIND PRIOR record WITHIN set."""
        self.db.metrics.dml_calls += 1
        set_type = self.db.schema.set_type(set_name)
        position = self.currency.of_set(set_name)
        if position is None:
            return self._miss(STATUS_NO_CURRENCY)
        if position.record_name == set_type.owner:
            return self.find_last(record_name, set_name)
        self.db.metrics.set_traversals += 1
        prior_rid = self.db.set_store(set_name).prior_before(position.rid)
        if prior_rid is None:
            return self._miss(STATUS_END_OF_SET)
        return self._ok(self.db.store(record_name).fetch(prior_rid))

    def find_next_using(self, record_name: str, set_name: str,
                        *using_fields: str) -> Record | None:
        """FIND NEXT record WITHIN set USING fields.

        Scans forward from the current of set for the next member whose
        ``using_fields`` equal the UWA values (the Section 4.1 template:
        ``FIND NEXT EMP WITHIN ED USING YEAR-OF-SERVICE``).
        """
        self.db.metrics.dml_calls += 1
        wanted = {
            field_name: self.uwa[record_name].get(field_name)
            for field_name in using_fields
        }
        while True:
            record = self.find_next(record_name, set_name)
            if record is None:
                return None  # status already set by find_next
            # read_field: USING comparisons see VIRTUAL fields through
            # their sets, so keyed scans survive virtualization.
            if all(self.db.read_field(record, k) == v
                   for k, v in wanted.items()):
                return record

    def find_owner(self, set_name: str) -> Record | None:
        """FIND OWNER WITHIN set."""
        self.db.metrics.dml_calls += 1
        set_type = self.db.schema.set_type(set_name)
        if set_type.system_owned:
            return self._miss(STATUS_NOT_FOUND)
        position = self.currency.of_set(set_name)
        if position is None:
            return self._miss(STATUS_NO_CURRENCY)
        if position.record_name == set_type.owner:
            return self._ok(self.db.store(set_type.owner).fetch(position.rid))
        owner_rid = self.db.set_store(set_name).owner(position.rid)
        if owner_rid is None:
            return self._miss(STATUS_NOT_FOUND)
        self.db.metrics.set_traversals += 1
        return self._ok(self.db.store(set_type.owner).fetch(owner_rid))

    def find_current(self, record_name: str) -> Record | None:
        """FIND CURRENT OF record (re-establish run-unit currency)."""
        self.db.metrics.dml_calls += 1
        position = self.currency.of_record(record_name)
        if position is None:
            return self._miss(STATUS_NO_CURRENCY)
        record = self.db.store(record_name).peek(position.rid)
        if record is None:
            return self._miss(STATUS_NOT_FOUND)
        return self._ok(record)

    # -- GET ------------------------------------------------------------------

    def get(self) -> dict[str, Any] | None:
        """GET: read the current of run-unit into the UWA (virtual
        fields resolved through their sets), returning the values."""
        self.db.metrics.dml_calls += 1
        record = self.current_record()
        if record is None:
            return self._miss(STATUS_NO_CURRENCY)
        self.db.store(record.type_name).fetch(record.rid)  # count the read
        values = self.db.record_values(record)
        self.uwa[record.type_name].update(values)
        self.status = STATUS_OK
        return values

    # -- STORE -----------------------------------------------------------------

    def store(self, record_name: str,
              values: dict[str, Any] | None = None) -> Record:
        """STORE record.

        Values default to the UWA.  AUTOMATIC set membership is
        established per CODASYL set selection: by the value of a
        VIRTUAL field routed through the set when one is supplied,
        else by the current of set.  A MANDATORY AUTOMATIC set with no
        selectable owner fails the store -- the Section 3.1 guarantee
        ("if an attempt is made to insert a course offering for which
        there is ... no corresponding course ..., the insertion will
        fail").
        """
        self.db.metrics.dml_calls += 1
        record_type = self.db.schema.record(record_name)
        raw = dict(self.uwa[record_name]) if values is None else dict(values)
        # Virtual-field values route set selection, not storage.
        selections: dict[str, Any] = {}
        stored: dict[str, Any] = {}
        for name, value in raw.items():
            fld = record_type.field(name)
            if fld.is_virtual:
                selections[fld.virtual_via] = (fld.virtual_using, value)
            else:
                stored[name] = value

        plan: list[tuple[str, int]] = []
        for set_type in self.db.schema.sets_with_member(record_name):
            if set_type.insertion is not Insertion.AUTOMATIC:
                continue
            if set_type.system_owned:
                plan.append((set_type.name, SYSTEM_OWNER_RID))
                continue
            owner_rid = self._select_owner(set_type, selections)
            if owner_rid is None:
                if set_type.retention is Retention.MANDATORY:
                    raise ExistenceViolation(
                        f"STORE {record_name}: no owner selectable for "
                        f"MANDATORY AUTOMATIC set {set_type.name}"
                    )
                continue  # OPTIONAL: stored unconnected
            plan.append((set_type.name, owner_rid))

        record = self.db.insert_record(record_name, stored)
        for set_name, owner_rid in plan:
            self.db.connect(set_name, owner_rid, record.rid)
        return self._ok(record)

    def _select_owner(self, set_type: SetType,
                      selections: dict[str, Any]) -> int | None:
        if set_type.name in selections:
            using_field, value = selections[set_type.name]
            owners = self.db.select_owners_by_value(set_type, using_field,
                                                    value)
            if not owners:
                return None
            if len(owners) == 1:
                return owners[0].rid
            # Ambiguous by value (keys unique only per group, as with an
            # interposed record): disambiguate through the candidate
            # owners' own set currencies -- CODASYL SET SELECTION ...
            # THRU OWNER.
            for owner in owners:
                if self._consistent_with_currency(owner):
                    return owner.rid
            return owners[0].rid
        position = self.currency.of_set(set_type.name)
        if position is None:
            return None
        if position.record_name == set_type.owner:
            return position.rid
        return self.db.set_store(set_type.name).owner(position.rid)

    def _consistent_with_currency(self, candidate) -> bool:
        """Does this candidate owner sit in the currently-selected
        occurrence of every set it is itself a member of?"""
        for upper in self.db.schema.sets_with_member(candidate.type_name):
            if upper.system_owned:
                continue
            position = self.currency.of_set(upper.name)
            if position is None:
                continue
            if position.record_name == upper.owner:
                wanted_owner = position.rid
            else:
                wanted_owner = self.db.set_store(upper.name).owner(
                    position.rid
                )
            actual_owner = self.db.set_store(upper.name).owner(candidate.rid)
            if wanted_owner is not None and actual_owner != wanted_owner:
                return False
        return True

    # -- MODIFY / ERASE ----------------------------------------------------------

    def modify(self, updates: dict[str, Any]) -> Record | None:
        """MODIFY the current of run-unit."""
        self.db.metrics.dml_calls += 1
        record = self.current_record()
        if record is None:
            return self._miss(STATUS_NO_CURRENCY)
        updated = self.db.update_record(record.type_name, record.rid, updates)
        return self._ok(updated)

    def erase(self, all_members: bool = False) -> None:
        """ERASE the current of run-unit (optionally ALL MEMBERS)."""
        self.db.metrics.dml_calls += 1
        record = self.current_record()
        if record is None:
            self.status = STATUS_NO_CURRENCY
            return
        self.db.delete_record(record.type_name, record.rid,
                              all_members=all_members)
        self.currency.forget_record(record.type_name, record.rid)
        self.status = STATUS_OK

    # -- CONNECT / DISCONNECT ------------------------------------------------------

    def connect(self, set_name: str) -> None:
        """CONNECT the current of run-unit to the current occurrence of
        the set."""
        self.db.metrics.dml_calls += 1
        record = self.current_record()
        if record is None:
            self.status = STATUS_NO_CURRENCY
            return
        set_type, owner_rid = self._set_position(set_name)
        if owner_rid is None:
            # Fall back to the current of the owner *record type* (set
            # selection thru owner) -- the usual idiom when the member
            # was re-found after positioning the target owner.
            owner_position = self.currency.of_record(set_type.owner)
            if owner_position is not None:
                owner_rid = owner_position.rid
        if owner_rid is None:
            self.status = STATUS_NO_CURRENCY
            return
        self.db.connect(set_name, owner_rid, record.rid)
        self.status = STATUS_OK

    def reconnect(self, set_name: str, using_field: str, value: Any,
                  ensure_owner: bool = False) -> None:
        """Move the current of run-unit to the owner of ``set_name``
        whose ``using_field`` equals ``value``.

        This is the conversion-inserted sequence for programs that used
        to MODIFY a now-virtual member field (Su, Section 4.1: "the
        system will insert statements to traverse this relationship and
        continue to enforce the ... relationship").  With
        ``ensure_owner`` a missing owner is created first.
        """
        self.db.metrics.dml_calls += 1
        record = self.current_record()
        if record is None:
            self.status = STATUS_NO_CURRENCY
            return
        set_type = self.db.schema.set_type(set_name)
        owners = self.db.select_owners_by_value(set_type, using_field, value)
        owner_rid: int | None = None
        for owner in owners:
            if self._consistent_with_currency(owner):
                owner_rid = owner.rid
                break
        if owner_rid is None and owners:
            owner_rid = owners[0].rid
        if owner_rid is None:
            if not ensure_owner:
                self.status = STATUS_NOT_FOUND
                return
            saved = self.currency.run_unit
            created = self.store(set_type.owner, {using_field: value})
            owner_rid = created.rid
            self.currency.run_unit = saved
        self.db.disconnect(set_name, record.rid)
        self.db.connect(set_name, owner_rid, record.rid)
        self.status = STATUS_OK

    def disconnect(self, set_name: str) -> None:
        """DISCONNECT the current of run-unit from the set.

        Disconnecting a MANDATORY member leaves the database
        inconsistent; this is caught at the run-unit boundary (the
        paper's consistency contract), not here.
        """
        self.db.metrics.dml_calls += 1
        record = self.current_record()
        if record is None:
            self.status = STATUS_NO_CURRENCY
            return
        self.db.disconnect(set_name, record.rid)
        self.status = STATUS_OK
