"""DML emulation (the Honeywell "Task 609" design, Section 2.1.2).

The *source* program runs unchanged; an :class:`EmulatedDMLSession`
intercepts each DML call and re-expresses it against the restructured
database using a mapping description derived from the change catalog.
The paper's critique is visible in the metrics: every emulated call
pays mapping work (``emulation_mappings``), occurrences of restructured
sets must be materialized and re-sorted to the source order, and "it is
unlikely that new access strategies can be used".

Supported mappings: record/field/set renames, and interposed records
(an old set's occurrence is the concatenation of the lower-set
occurrences under the upper set, re-sorted by the old order keys).
Unlike Task 609 -- "retrieval only, no update allowed" -- updates are
supported by routing them through virtual-field set selection; the
difference is recorded in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.analyzer_db import ChangeCatalog
from repro.engine.ordering import orderable
from repro.engine.storage import Record
from repro.errors import DMLError
from repro.network.database import NetworkDatabase
from repro.network.dml import (
    DMLSession,
    STATUS_EMPTY_SET,
    STATUS_END_OF_SET,
    STATUS_NO_CURRENCY,
    STATUS_NOT_FOUND,
)
from repro.observe.registry import NamedCounters
from repro.programs.ast import Program
from repro.programs.interpreter import Interpreter, ProgramInputs
from repro.schema.diff import (
    FieldRenamed,
    RecordInterposed,
    RecordRenamed,
    SetOrderChanged,
    SetRenamed,
)
from repro.strategies.base import ConversionStrategy, StrategyRun


@dataclass(frozen=True)
class _InterposedSet:
    """Mapping description for one interposed set."""

    old_set: str
    upper_set: str
    lower_set: str
    new_record: str
    member: str
    old_order_keys: tuple[str, ...]


class EmulatedDMLSession(DMLSession):
    """A DML session that speaks the *source* schema against the
    *target* database."""

    def __init__(self, target_db: NetworkDatabase, catalog: ChangeCatalog,
                 cache_occurrences: bool = True):
        super().__init__(target_db)
        #: Per-verb call counts, visible registry-wide as
        #: ``emulation.<verb>``.
        self.verbs = NamedCounters("emulation")
        #: Ablation knob: without the cache, every FIND NEXT
        #: re-materializes the emulated occurrence -- the paper's
        #: "maintenance of run time descriptions and tables" is what
        #: keeps emulation merely linear instead of quadratic.
        self.cache_occurrences = cache_occurrences
        self._record_map: dict[str, str] = {}
        self._field_map: dict[tuple[str, str], str] = {}
        self._set_map: dict[str, str] = {}
        self._interposed: dict[str, _InterposedSet] = {}
        self._reordered: dict[str, tuple[str, ...]] = {}
        for change in catalog.changes:
            if isinstance(change, RecordRenamed):
                self._record_map[change.old_name] = change.new_name
            elif isinstance(change, FieldRenamed):
                self._field_map[(change.record, change.old_name)] = \
                    change.new_name
            elif isinstance(change, SetRenamed):
                self._set_map[change.old_name] = change.new_name
            elif isinstance(change, RecordInterposed):
                source_set = catalog.source_schema.set_type(change.old_set)
                self._interposed[change.old_set] = _InterposedSet(
                    change.old_set, change.upper_set, change.lower_set,
                    change.new_record, source_set.member,
                    source_set.order_keys,
                )
            elif isinstance(change, SetOrderChanged):
                # The source program must still see the OLD member
                # order: the emulator re-sorts each occurrence.
                self._reordered[change.set_name] = change.old_keys
        # GET presents *source* names: target record -> target field ->
        # source field, and target record -> source record.
        self._source_fields: dict[str, dict[str, str]] = {}
        for (record_name, old), new in self._field_map.items():
            self._source_fields.setdefault(self._rec(record_name), {})[new] = old
        self._source_records: dict[str, str] = {}
        for old, new in self._record_map.items():
            self._source_records.setdefault(new, old)
        # UWA keyed by *source* record names.
        source_records = catalog.source_schema.records
        self.uwa = {name: {} for name in source_records}
        self._source_schema = catalog.source_schema
        # Emulated occurrence caches: old set -> (owner rid, member rids,
        # position index).
        self._occurrences: dict[str, tuple[int, list[int], int]] = {}

    # -- name mapping -------------------------------------------------------

    def _rec(self, record_name: str) -> str:
        return self._record_map.get(record_name, record_name)

    def _fld(self, record_name: str, field_name: str) -> str:
        return self._field_map.get((record_name, field_name), field_name)

    def _set(self, set_name: str) -> str:
        return self._set_map.get(set_name, set_name)

    def _map_values(self, record_name: str,
                    values: dict[str, Any]) -> dict[str, Any]:
        return {
            self._fld(record_name, name): value
            for name, value in values.items()
        }

    def current_of(self, record_name: str) -> Record | None:
        record = self.current_record()
        if record is not None and record.type_name == self._rec(record_name):
            return record
        return None

    # -- emulated occurrence construction -------------------------------------

    def _materialize(self, mapping: _InterposedSet) -> tuple[int, list[int]]:
        """Build the old set's occurrence from the two-level target
        path under the current owner, re-sorted to the old order."""
        self.db.metrics.emulation_mappings += 1
        upper_type, owner_rid = self._set_position(mapping.upper_set)
        del upper_type
        if owner_rid is None:
            raise _NoCurrency()
        members: list[int] = []
        upper_store = self.db.set_store(mapping.upper_set)
        lower_store = self.db.set_store(mapping.lower_set)
        for group_rid in upper_store.members(owner_rid):
            self.db.metrics.set_traversals += 1
            for member_rid in lower_store.members(group_rid):
                self.db.metrics.set_traversals += 1
                members.append(member_rid)
        member_store = self.db.store(mapping.member)

        def order_key(rid: int) -> tuple:
            record = member_store.fetch(rid)
            return tuple(
                orderable(self.db.read_field(record, key))
                for key in mapping.old_order_keys
            )

        self.db.metrics.sort_operations += 1
        members.sort(key=order_key)
        return owner_rid, members

    def _materialize_reordered(self, set_name: str
                               ) -> tuple[int, list[int]]:
        """Re-sort a reordered set's occurrence back to the old keys."""
        self.db.metrics.emulation_mappings += 1
        target_set = self._set(set_name)
        set_type, owner_rid = self._set_position(target_set)
        if owner_rid is None:
            raise _NoCurrency()
        members = list(self.db.set_store(target_set).members(owner_rid))
        member_store = self.db.store(set_type.member)
        old_keys = self._reordered[set_name]

        def order_key(rid: int) -> tuple:
            record = member_store.fetch(rid)
            return tuple(
                orderable(self.db.read_field(record, key))
                for key in old_keys
            )

        self.db.metrics.sort_operations += 1
        members.sort(key=order_key)
        return owner_rid, members

    # -- cache invalidation -------------------------------------------------

    def _invalidate(self) -> None:
        """Conservative fallback: drop every cached occurrence."""
        self._occurrences.clear()

    def _member_target_type(self, set_name: str) -> str:
        mapping = self._interposed.get(set_name)
        if mapping is not None:
            return self._rec(mapping.member)
        return self.db.schema.set_type(self._set(set_name)).member

    def _owner_target_type(self, set_name: str) -> str:
        mapping = self._interposed.get(set_name)
        if mapping is not None:
            return self.db.schema.set_type(mapping.upper_set).owner
        return self.db.schema.set_type(self._set(set_name)).owner

    def _affected_types(self, set_name: str) -> set[str]:
        """Target record types whose creation can change a cached
        occurrence of this source set: its members, plus the interposed
        group record whose arrival splices new lower-set runs in."""
        types = {self._member_target_type(set_name)}
        mapping = self._interposed.get(set_name)
        if mapping is not None:
            types.add(mapping.new_record)
        return types

    def _order_keys(self, set_name: str) -> tuple[str, ...]:
        mapping = self._interposed.get(set_name)
        if mapping is not None:
            return mapping.old_order_keys
        return self._reordered.get(set_name, ())

    def _invalidate_for_store(self, target_name: str) -> None:
        """STORE of one record only disturbs cached occurrences whose
        member (or interposed group) type matches it."""
        for set_name in list(self._occurrences):
            if target_name in self._affected_types(set_name):
                del self._occurrences[set_name]

    def _invalidate_for_modify(self, target_name: str,
                               touched: set[str],
                               reconnected: bool) -> None:
        """MODIFY invalidates a cached occurrence only when the current
        record can appear in it AND the update can change membership (a
        virtual-field reconnection) or the emulated sort order (an old
        order key).  Updates to unrelated fields or unrelated record
        types leave FIND NEXT chains undisturbed."""
        for set_name in list(self._occurrences):
            if target_name not in self._affected_types(set_name):
                continue
            order_keys = self._order_keys(set_name)
            if reconnected or any(key in touched for key in order_keys):
                del self._occurrences[set_name]

    def _invalidate_for_erase(self, target_name: str, rid: int,
                              cascade: bool) -> None:
        """ERASE drops caches holding the erased record -- as a member,
        its owner, or (conservatively) an interposed group; a cascading
        erase clears everything."""
        if cascade:
            self._invalidate()
            return
        for set_name in list(self._occurrences):
            owner_rid, members, _position = self._occurrences[set_name]
            mapping = self._interposed.get(set_name)
            if target_name == self._member_target_type(set_name):
                if rid in members:
                    del self._occurrences[set_name]
            elif mapping is not None and target_name == mapping.new_record:
                del self._occurrences[set_name]
            elif target_name == self._owner_target_type(set_name) and \
                    rid == owner_rid:
                del self._occurrences[set_name]

    # -- intercepted verbs --------------------------------------------------------

    def find_any(self, record_name: str, **field_values: Any) -> Record | None:
        self.verbs.bump("find_any")
        raw = dict(field_values) or dict(self.uwa.get(record_name, {}))
        mapped = self._map_values(record_name, raw)
        target_name = self._rec(record_name)
        if target_name != record_name or mapped != raw:
            # Only count mapping work actually performed; an unmapped
            # record delegates straight to the native FIND ANY.
            self.db.metrics.emulation_mappings += 1
        return super().find_any(target_name, **mapped)

    def _emulated_set(self, set_name: str) -> bool:
        return set_name in self._interposed or set_name in self._reordered

    def _member_type(self, set_name: str) -> str:
        mapping = self._interposed.get(set_name)
        if mapping is not None:
            return mapping.member
        return self.db.schema.set_type(self._set(set_name)).member

    def _build_occurrence(self, set_name: str) -> tuple[int, list[int]]:
        mapping = self._interposed.get(set_name)
        if mapping is not None:
            return self._materialize(mapping)
        return self._materialize_reordered(set_name)

    def find_first(self, record_name: str, set_name: str) -> Record | None:
        self.verbs.bump("find_first")
        if not self._emulated_set(set_name):
            self.db.metrics.emulation_mappings += 1
            return super().find_first(self._rec(record_name),
                                      self._set(set_name))
        self.db.metrics.dml_calls += 1
        try:
            owner_rid, members = self._build_occurrence(set_name)
        except _NoCurrency:
            return self._miss(STATUS_NO_CURRENCY)
        self._occurrences[set_name] = (owner_rid, members, 0)
        if not members:
            return self._miss(STATUS_EMPTY_SET)
        member_type = self._member_type(set_name)
        return self._ok(self.db.store(member_type).fetch(members[0]))

    def find_next(self, record_name: str, set_name: str) -> Record | None:
        self.verbs.bump("find_next")
        if not self._emulated_set(set_name):
            self.db.metrics.emulation_mappings += 1
            return super().find_next(self._rec(record_name),
                                     self._set(set_name))
        self.db.metrics.dml_calls += 1
        cached = self._occurrences.get(set_name)
        if cached is None:
            # FIND NEXT from owner currency means FIRST.
            return self.find_first(record_name, set_name)
        owner_rid, members, position = cached
        if not self.cache_occurrences:
            # Re-derive the occurrence on every call (ablation): keep
            # only the position, rebuild the member list.
            try:
                owner_rid, members = self._build_occurrence(set_name)
            except _NoCurrency:
                return self._miss(STATUS_NO_CURRENCY)
        position += 1
        if position >= len(members):
            return self._miss(STATUS_END_OF_SET)
        self._occurrences[set_name] = (owner_rid, members, position)
        member_type = self._member_type(set_name)
        return self._ok(self.db.store(member_type).fetch(members[position]))

    def find_next_using(self, record_name: str, set_name: str,
                        *using_fields: str) -> Record | None:
        self.verbs.bump("find_next_using")
        if not self._emulated_set(set_name):
            self.db.metrics.emulation_mappings += 1
            return super().find_next_using(self._rec(record_name),
                                           self._set(set_name),
                                           *using_fields)
        wanted = {
            field_name: self.uwa[record_name].get(field_name)
            for field_name in using_fields
        }
        while True:
            record = self.find_next(record_name, set_name)
            if record is None:
                return None
            values = {
                name: self.db.read_field(record, self._fld(record_name, name))
                for name in wanted
            }
            if values == wanted:
                return record

    def find_owner(self, set_name: str) -> Record | None:
        self.verbs.bump("find_owner")
        mapping = self._interposed.get(set_name)
        if mapping is None:
            self.db.metrics.emulation_mappings += 1
            return super().find_owner(self._set(set_name))
        self.db.metrics.dml_calls += 1
        self.db.metrics.emulation_mappings += 1
        # Two hops: member -> interposed group -> old owner.
        position = self.currency.of_set(mapping.lower_set)
        if position is None:
            return self._miss(STATUS_NO_CURRENCY)
        group = self.db.owner_record(mapping.lower_set, position.rid) \
            if position.record_name == mapping.member else \
            self.db.store(mapping.new_record).peek(position.rid)
        if group is None:
            return self._miss(STATUS_NOT_FOUND)
        owner = self.db.owner_record(mapping.upper_set, group.rid)
        if owner is None:
            return self._miss(STATUS_NOT_FOUND)
        return self._ok(owner)

    def get(self, record: Record | None = None) -> dict[str, Any] | None:
        self.verbs.bump("get")
        if record is None:
            record = self.current_record()
        values = super().get(record)
        if values is None:
            return None
        # Present *source* field names to the program.
        reverse = self._source_fields.get(record.type_name, {})
        renamed = {
            reverse.get(name, name): value for name, value in values.items()
        }
        source_name = self._source_name(record.type_name)
        if source_name in self.uwa:
            self.uwa[source_name].update(renamed)
        self.status = "0000"
        return renamed

    def _source_name(self, target_record: str) -> str:
        return self._source_records.get(target_record, target_record)

    def store(self, record_name: str,
              values: dict[str, Any] | None = None) -> Record:
        self.verbs.bump("store")
        self.db.metrics.emulation_mappings += 1
        raw = dict(self.uwa[record_name]) if values is None else dict(values)
        mapped = self._map_values(record_name, raw)
        target_name = self._rec(record_name)
        self._invalidate_for_store(target_name)
        # Interposed sets: ensure the group record exists so the
        # virtual-field routing can connect the member.
        record_type = self.db.schema.record(target_name)
        for name, value in mapped.items():
            fld = record_type.field(name)
            if fld.is_virtual and value is not None:
                set_type = self.db.schema.set_type(fld.virtual_via)
                if set_type.owner not in {
                        m.new_record for m in self._interposed.values()}:
                    continue
                owner = self.db.select_owner_by_value(
                    set_type, fld.virtual_using, value
                )
                if owner is None:
                    inner = DMLSession(self.db)
                    inner.currency = self.currency
                    inner.store(set_type.owner, {fld.virtual_using: value})
        return super().store(target_name, mapped)

    def modify(self, updates: dict[str, Any]) -> Record | None:
        self.verbs.bump("modify")
        self.db.metrics.emulation_mappings += 1
        record = self.current_record()
        if record is None:
            return self._miss(STATUS_NO_CURRENCY)
        source_name = self._source_name(record.type_name)
        mapped = self._map_values(source_name, updates)
        record_type = self.db.schema.record(record.type_name)
        stored: dict[str, Any] = {}
        reconnections: list[tuple[Any, Any]] = []
        for name, value in mapped.items():
            fld = record_type.field(name)
            if fld.is_virtual:
                # A virtualized field update is a reconnection.
                reconnections.append((fld, value))
            else:
                stored[name] = value
        self._invalidate_for_modify(record.type_name,
                                    set(updates) | set(mapped),
                                    bool(reconnections))
        for fld, value in reconnections:
            self.reconnect(fld.virtual_via, fld.virtual_using, value,
                           ensure_owner=True)
        if stored:
            return super().modify(stored)
        return record

    def erase(self, all_members: bool = False) -> None:
        self.verbs.bump("erase")
        self.db.metrics.emulation_mappings += 1
        record = self.current_record()
        if record is not None:
            self._invalidate_for_erase(record.type_name, record.rid,
                                       all_members)
        super().erase(all_members=all_members)


class _NoCurrency(DMLError):
    pass


class EmulationStrategy(ConversionStrategy):
    """Runs unmodified source programs through the emulation layer."""

    name = "emulation"

    def __init__(self, target_db: NetworkDatabase, catalog: ChangeCatalog,
                 cache_occurrences: bool = True):
        self.target_db = target_db
        self.catalog = catalog
        self.cache_occurrences = cache_occurrences

    def run(self, program: Program,
            inputs: ProgramInputs | None = None) -> StrategyRun:
        session = EmulatedDMLSession(self.target_db, self.catalog,
                                     self.cache_occurrences)
        with self._measured(self.target_db.metrics) as scope:
            interpreter = Interpreter(self.target_db, inputs,
                                      session=session)
            trace = interpreter.run(program)
        return StrategyRun(self.name, program.name, trace, scope.delta)
