"""Hierarchical database: segment trees in hierarchical sequence."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.engine.metrics import Metrics
from repro.engine.savepoint import Savepoint, UndoLog, fingerprint
from repro.engine.storage import Record, RecordStore
from repro.errors import (
    IntegrityError,
    RecordNotFound,
    SchemaError,
)
from repro.engine.ordering import orderable
from repro.schema.constraints import Violation, check_all
from repro.schema.model import Schema, SetType


class HierarchicalDatabase:
    """Segments stored as a forest following the schema's set structure.

    The *hierarchical sequence* -- the total preorder over all segments
    that DL/I GET NEXT walks -- is: root occurrences in root-set order;
    under each segment, its child segment types in schema declaration
    order, each type's occurrences (twins) in twin order.
    """

    def __init__(self, schema: Schema, metrics: Metrics | None = None):
        schema.validate()
        if not schema.is_hierarchical():
            raise SchemaError(
                f"schema {schema.name} is not hierarchical "
                "(a record type has multiple parents or a cycle exists)"
            )
        self.schema = schema
        self.metrics = metrics if metrics is not None else Metrics()
        # One undo log behind every store, parent link and twin bucket.
        self._undo = UndoLog()
        self._undo.on_rollback(self._forget_preorder)
        self._stores: dict[str, RecordStore] = {
            name: RecordStore(name, self.metrics, self._undo)
            for name in schema.records
        }
        # member -> its (single) parent set type, if any
        self._parent_set: dict[str, SetType] = {}
        for set_type in schema.sets.values():
            if not set_type.system_owned:
                self._parent_set[set_type.member] = set_type
        self._parent_of: dict[tuple[str, int], tuple[str, int] | None] = {}
        # (parent name, parent rid, child type) -> ordered child rids
        self._children: dict[tuple[str, int, str], list[int]] = {}
        self._version = 0
        self._preorder_cache: list[tuple[str, int]] | None = None

    # -- structure queries ---------------------------------------------------

    def store(self, segment_name: str) -> RecordStore:
        self.schema.record(segment_name)
        return self._stores[segment_name]

    def root_types(self) -> list[str]:
        """Segment types with no parent, in schema declaration order."""
        return [
            name for name in self.schema.records
            if name not in self._parent_set
        ]

    def child_types(self, segment_name: str) -> list[str]:
        """Child segment types in declaration order (sibling order)."""
        return [
            set_type.member for set_type in self.schema.sets.values()
            if set_type.owner == segment_name
        ]

    def parent_type(self, segment_name: str) -> str | None:
        set_type = self._parent_set.get(segment_name)
        return set_type.owner if set_type is not None else None

    def level(self, segment_name: str) -> int:
        """1-based depth of a segment type in its tree."""
        depth = 1
        parent = self.parent_type(segment_name)
        while parent is not None:
            depth += 1
            parent = self.parent_type(parent)
        return depth

    # -- twin ordering ---------------------------------------------------------

    def _twin_key(self, segment_name: str, rid: int) -> tuple:
        set_type = self._parent_set.get(segment_name)
        keys: tuple[str, ...] = ()
        if set_type is not None:
            keys = set_type.order_keys
        else:
            for root_set in self.schema.system_sets():
                if root_set.member == segment_name:
                    keys = root_set.order_keys
                    break
        record = self._stores[segment_name].peek(rid)
        values = tuple(
            record.get(key) if record is not None else None for key in keys
        )
        return orderable(values)

    def _twin_position(self, siblings: list[int], segment_name: str,
                       rid: int) -> int:
        """Where ``rid`` goes among ``siblings``: after every twin whose
        key is not greater."""
        key = self._twin_key(segment_name, rid)
        position = 0
        while (position < len(siblings)
               and self._twin_key(segment_name, siblings[position]) <= key):
            position += 1
        return position

    @staticmethod
    def _bucket_key(segment_name: str,
                    parent: tuple[str, int] | None) -> tuple[str, int, str]:
        """The ``_children`` key of a segment's twin bucket."""
        bucket_parent = parent if parent is not None else ("", 0)
        return (bucket_parent[0], bucket_parent[1], segment_name)

    # -- mutation ----------------------------------------------------------------

    def insert_segment(self, segment_name: str, values: dict[str, Any],
                       parent: tuple[str, int] | None = None) -> Record:
        """ISRT: add a segment under a parent (None for roots)."""
        record_type = self.schema.record(segment_name)
        checked = record_type.validate_values(values)
        for field_name in record_type.stored_field_names():
            checked.setdefault(field_name, None)
        expected_parent = self.parent_type(segment_name)
        if expected_parent is None:
            if parent is not None:
                raise SchemaError(
                    f"segment {segment_name} is a root; no parent allowed"
                )
        else:
            if parent is None or parent[0] != expected_parent:
                raise SchemaError(
                    f"segment {segment_name} requires a parent of type "
                    f"{expected_parent}"
                )
            if self._stores[parent[0]].peek(parent[1]) is None:
                raise RecordNotFound(
                    f"parent {parent[0]} rid {parent[1]} does not exist"
                )
        record = self._stores[segment_name].insert(checked)
        bucket_key = self._bucket_key(segment_name, parent)
        bucket = self._children.get(bucket_key)
        created = bucket is None
        position = self._twin_position(bucket or [], segment_name,
                                       record.rid)
        if created:
            bucket = self._children[bucket_key] = []
        self._parent_of[(segment_name, record.rid)] = parent
        bucket.insert(position, record.rid)
        self._version += 1
        log = self._undo.entries
        if log is not None:
            log.append((self._unlink, (segment_name, record.rid),
                        bucket_key, created))
        return record

    def insert_segments(
        self, segment_name: str,
        entries: list[tuple[dict[str, Any], tuple[str, int] | None]],
    ) -> list[Record]:
        """Bulk ISRT: ``entries`` are (values, parent) pairs.

        Equivalent to inserting each entry in order, but every entry is
        validated before any is stored, and each sibling bucket is
        sorted once per batch instead of insertion-sorted per segment
        (O(k log k) instead of O(k^2) for k twins).
        """
        record_type = self.schema.record(segment_name)
        stored_fields = record_type.stored_field_names()
        expected_parent = self.parent_type(segment_name)
        checked_entries = []
        for values, parent in entries:
            checked = record_type.validate_values(values)
            for field_name in stored_fields:
                checked.setdefault(field_name, None)
            if expected_parent is None:
                if parent is not None:
                    raise SchemaError(
                        f"segment {segment_name} is a root; "
                        "no parent allowed"
                    )
            else:
                if parent is None or parent[0] != expected_parent:
                    raise SchemaError(
                        f"segment {segment_name} requires a parent of "
                        f"type {expected_parent}"
                    )
                if self._stores[parent[0]].peek(parent[1]) is None:
                    raise RecordNotFound(
                        f"parent {parent[0]} rid {parent[1]} does not exist"
                    )
            checked_entries.append((checked, parent))
        records = self._stores[segment_name].insert_many(
            [checked for checked, _parent in checked_entries]
        )
        log = self._undo.entries
        # Bucket key -> its twins before the batch (None: new bucket),
        # recorded only while a savepoint is open.
        previous: dict[tuple[str, int, str], list[int] | None] = {}
        touched: set[tuple[str, int, str]] = set()
        for record, (_checked, parent) in zip(records, checked_entries):
            key = self._bucket_key(segment_name, parent)
            if log is not None and key not in previous:
                bucket = self._children.get(key)
                previous[key] = None if bucket is None else list(bucket)
            self._parent_of[(segment_name, record.rid)] = parent
            self._children.setdefault(key, []).append(record.rid)
            touched.add(key)
        for key in touched:
            # Existing twins are already in twin order and new rids are
            # appended in arrival order, so one stable sort reproduces
            # the per-insert "after equal keys" placement.
            self._children[key].sort(
                key=lambda rid: self._twin_key(segment_name, rid)
            )
        if entries:
            self._version += 1
        if log is not None and records:
            log.append((self._unlink_many,
                        [(segment_name, record.rid) for record in records],
                        previous))
        return records

    def replace_segment(self, segment_name: str, rid: int,
                        updates: dict[str, Any]) -> Record:
        """REPL: update a segment's fields in place."""
        record_type = self.schema.record(segment_name)
        checked = record_type.validate_values(updates)
        record = self._stores[segment_name].update(rid, checked)
        # Twin order may depend on updated fields; re-sort siblings.
        bucket_key = self._bucket_key(
            segment_name, self._parent_of.get((segment_name, rid)))
        bucket = self._children.get(bucket_key, [])
        if rid in bucket:
            old_position = bucket.index(rid)
            del bucket[old_position]
            bucket.insert(self._twin_position(bucket, segment_name, rid),
                          rid)
            log = self._undo.entries
            if log is not None:
                log.append((self._unmove, bucket_key, rid, old_position))
        self._version += 1
        return record

    def delete_segment(self, segment_name: str, rid: int) -> int:
        """DLET: remove a segment and its whole subtree; returns the
        number of segments deleted.  (DL/I deletes dependents with the
        parent -- the very behaviour whose CODASYL analogue Section 3.1
        flags as an integrity hazard.)"""
        deleted = 0
        for child_type in self.child_types(segment_name):
            for child_rid in list(self.children(segment_name, rid, child_type)):
                deleted += self.delete_segment(child_type, child_rid)
        self._stores[segment_name].delete(rid)
        key = (segment_name, rid)
        parent = self._parent_of.pop(key)
        bucket_key = self._bucket_key(segment_name, parent)
        bucket = self._children[bucket_key]
        position = bucket.index(rid)
        del bucket[position]
        self._version += 1
        log = self._undo.entries
        if log is not None:
            log.append((self._relink, key, parent, bucket_key, position))
        return deleted + 1

    # -- navigation --------------------------------------------------------------

    def roots(self, root_type: str) -> list[int]:
        return list(self._children.get(("", 0, root_type), []))

    def children(self, parent_type: str, parent_rid: int,
                 child_type: str) -> list[int]:
        return list(self._children.get((parent_type, parent_rid, child_type), []))

    def parent_of(self, segment_name: str, rid: int) -> tuple[str, int] | None:
        return self._parent_of.get((segment_name, rid))

    def preorder(self) -> list[tuple[str, int]]:
        """The hierarchical sequence (cached until the next mutation)."""
        if self._preorder_cache is not None and \
                self._preorder_version == self._version:
            return self._preorder_cache
        sequence: list[tuple[str, int]] = []

        def visit(segment_name: str, rid: int) -> None:
            sequence.append((segment_name, rid))
            for child_type in self.child_types(segment_name):
                for child_rid in self.children(segment_name, rid, child_type):
                    visit(child_type, child_rid)

        for root_type in self.root_types():
            for root_rid in self.roots(root_type):
                visit(root_type, root_rid)
        self._preorder_cache = sequence
        self._preorder_version = self._version
        return sequence

    def fetch(self, segment_name: str, rid: int) -> Record:
        return self._stores[segment_name].fetch(rid)

    # -- DatabaseView protocol ------------------------------------------------------

    def instances(self, record_name: str) -> Iterator[Record]:
        yield from self.store(record_name).scan()

    def owner_record(self, set_name: str, member_rid: int) -> Record | None:
        set_type = self.schema.set_type(set_name)
        if set_type.system_owned:
            return None
        parent = self._parent_of.get((set_type.member, member_rid))
        if parent is None:
            return None
        self.metrics.set_traversals += 1
        return self._stores[parent[0]].fetch(parent[1])

    def member_records(self, set_name: str, owner_rid: int) -> Iterator[Record]:
        set_type = self.schema.set_type(set_name)
        if set_type.system_owned:
            yield from self.instances(set_type.member)
            return
        for rid in self.children(set_type.owner, owner_rid, set_type.member):
            self.metrics.set_traversals += 1
            yield self._stores[set_type.member].fetch(rid)

    def read_field(self, record: Record, field_name: str) -> Any:
        record_type = self.schema.record(record.type_name)
        fld = record_type.field(field_name)
        if not fld.is_virtual:
            return record.get(field_name)
        owner = self.owner_record(fld.virtual_via, record.rid)
        if owner is None:
            return None
        return self.read_field(owner, fld.virtual_using)

    # -- integrity --------------------------------------------------------------------

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
    def run_unit(self) -> Iterator["HierarchicalDatabase"]:
        yield self
        self.verify_consistent()

    def count(self, segment_name: str) -> int:
        return len(self.store(segment_name))

    # -- savepoints --------------------------------------------------------

    def savepoint(self) -> Savepoint:
        """Mark the undo log behind stores, parent links and twin
        buckets (the preorder cache is derived state and is dropped on
        rollback)."""
        return self._undo.savepoint("hierarchical-db", self)

    def rollback(self, savepoint: Savepoint) -> None:
        """Restore the exact state at :meth:`savepoint` and end it,
        with every savepoint taken after it."""
        self._undo.rollback(savepoint, "hierarchical-db", self)

    def release(self, savepoint: Savepoint) -> None:
        """End :meth:`savepoint` (and later ones), keeping the changes."""
        self._undo.release(savepoint, "hierarchical-db", self)

    def _unlink(self, key: tuple[str, int], bucket_key: tuple[str, int, str],
                created: bool) -> None:
        """Undo :meth:`insert_segment`'s links."""
        del self._parent_of[key]
        if created:
            del self._children[bucket_key]
        else:
            self._children[bucket_key].remove(key[1])

    def _unlink_many(self, keys: list[tuple[str, int]],
                     previous: dict[tuple[str, int, str], list[int] | None]
                     ) -> None:
        """Undo :meth:`insert_segments`' links."""
        for key in keys:
            del self._parent_of[key]
        for bucket_key, twins in previous.items():
            if twins is None:
                del self._children[bucket_key]
            else:
                self._children[bucket_key][:] = twins

    def _unmove(self, bucket_key: tuple[str, int, str], rid: int,
                old_position: int) -> None:
        """Undo :meth:`replace_segment`'s re-sort among twins."""
        bucket = self._children[bucket_key]
        bucket.remove(rid)
        bucket.insert(old_position, rid)

    def _relink(self, key: tuple[str, int], parent: tuple[str, int] | None,
                bucket_key: tuple[str, int, str], position: int) -> None:
        """Undo :meth:`delete_segment`'s unlinking."""
        self._parent_of[key] = parent
        self._children[bucket_key].insert(position, key[1])

    def _forget_preorder(self) -> None:
        """After a rollback: the cached hierarchical sequence is stale."""
        self._version += 1
        self._preorder_cache = None

    def state_fingerprint(self) -> str:
        return fingerprint((
            "hierarchical", self.schema.name,
            tuple(store.state_fingerprint_data()
                  for store in self._stores.values()),
            tuple(sorted(self._parent_of.items())),
            tuple(sorted(
                (key, tuple(rids))
                for key, rids in self._children.items() if rids
            )),
        ))

    _preorder_version = -1
