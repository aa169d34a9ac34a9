"""Record storage.

A :class:`RecordStore` holds the record instances of one record type.
Records get stable integer ids (never reused within a store), field
values are plain Python scalars, and iteration order is insertion order
-- deterministic, which the equivalence checker relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import RecordNotFound
from repro.engine.metrics import Metrics
from repro.engine.savepoint import Savepoint, UndoLog


@dataclass(frozen=True)
class Record:
    """An immutable view of one stored record.

    ``rid`` identifies the record within its store; ``type_name`` is the
    owning record type; ``values`` maps field name to value.  Updates go
    through :meth:`RecordStore.update`, which produces a new version --
    holders of stale ``Record`` objects simply see old values, mirroring
    the "record area" copy semantics of CODASYL run units.
    """

    rid: int
    type_name: str
    values: dict[str, Any]

    def get(self, field_name: str, default: Any = None) -> Any:
        return self.values.get(field_name, default)

    def __getitem__(self, field_name: str) -> Any:
        return self.values[field_name]

    def with_values(self, **updates: Any) -> "Record":
        """Return a copy with some field values replaced."""
        merged = dict(self.values)
        merged.update(updates)
        return Record(self.rid, self.type_name, merged)


class RecordStore:
    """Insertion-ordered storage for the instances of one record type."""

    def __init__(self, type_name: str, metrics: Metrics | None = None,
                 undo: UndoLog | None = None):
        self.type_name = type_name
        self.metrics = metrics if metrics is not None else Metrics()
        #: Ascending rid order, which is scan and fingerprint order
        #: (rids only grow, and an undone delete is re-sorted).
        self._records: dict[int, Record] = {}
        self._next_rid = 1
        # Bumped on structural change (insert/delete/clear) and on every
        # rollback; scans check it so they can iterate the live dict
        # without a defensive copy.
        self._generation = 0
        #: The undo log this store writes to: its database's, or its own
        #: when it stands alone.
        self._undo = undo if undo is not None else UndoLog()
        self._undo.on_rollback(self._settle)
        # Set when an undone delete re-added a rid out of order.
        self._unsorted = False

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, rid: int) -> bool:
        return rid in self._records

    def insert(self, values: dict[str, Any]) -> Record:
        """Store a new record and return it (with its assigned rid)."""
        rid = self._next_rid
        record = Record(rid, self.type_name, dict(values))
        self._records[rid] = record
        self._next_rid = rid + 1
        self._generation += 1
        self.metrics.records_written += 1
        log = self._undo.entries
        if log is not None:
            log.append((self._truncate, rid))
        return record

    def insert_many(self, rows: Iterable[dict[str, Any]]) -> list[Record]:
        """Bulk :meth:`insert`: one metrics update for the whole batch.

        Equivalent to inserting each row in order (same rids, same
        iteration order) but with the per-row bookkeeping amortized.
        """
        first = self._next_rid
        records = [
            Record(rid, self.type_name, dict(values))
            for rid, values in enumerate(rows, start=first)
        ]
        for record in records:
            self._records[record.rid] = record
        self._next_rid = first + len(records)
        self._generation += 1
        self.metrics.records_written += len(records)
        log = self._undo.entries
        if log is not None and records:
            log.append((self._truncate, first))
        return records

    def fetch(self, rid: int) -> Record:
        """Return the current version of the record with this rid."""
        try:
            record = self._records[rid]
        except KeyError:
            raise RecordNotFound(
                f"{self.type_name}: no record with rid {rid}"
            ) from None
        self.metrics.records_read += 1
        return record

    def peek(self, rid: int) -> Record | None:
        """Like :meth:`fetch` but uncounted and returning None if absent.

        Used by internal bookkeeping (set pointers, index maintenance)
        that should not inflate access-path-length measurements.
        """
        return self._records.get(rid)

    def update(self, rid: int, updates: dict[str, Any]) -> Record:
        """Replace some field values of an existing record."""
        current = self._records.get(rid)
        if current is None:
            raise RecordNotFound(f"{self.type_name}: no record with rid {rid}")
        new_record = current.with_values(**updates)
        self._records[rid] = new_record
        self.metrics.records_written += 1
        log = self._undo.entries
        if log is not None:
            log.append((self._restore, current))
        return new_record

    def delete(self, rid: int) -> Record:
        """Remove a record, returning its last version."""
        try:
            record = self._records.pop(rid)
        except KeyError:
            raise RecordNotFound(
                f"{self.type_name}: no record with rid {rid}"
            ) from None
        self._generation += 1
        self.metrics.records_deleted += 1
        log = self._undo.entries
        if log is not None:
            log.append((self._restore, record))
        return record

    def scan(self) -> Iterator[Record]:
        """Yield every record in insertion order (counted as reads).

        Iterates a generation-checked view of the live dict rather than
        copying every record reference into a list up front: the common
        consumers (FIND ANY, constraint checks) either consume the scan
        immediately or abandon the generator before mutating.  A store
        that *is* structurally mutated while a scan is being resumed
        fails loudly instead of serving a stale copy -- also at the
        end, since a rollback edits the dict in place and can leave the
        paused iterator nothing more to visit.
        """
        self.metrics.index_scans += 1
        generation = self._generation
        for record in self._records.values():
            if self._generation != generation:
                raise self._mutated_during_scan()
            self.metrics.records_read += 1
            yield record
        if self._generation != generation:
            raise self._mutated_during_scan()

    def _mutated_during_scan(self) -> RuntimeError:
        return RuntimeError(f"{self.type_name}: store mutated during scan")

    def all_records(self) -> list[Record]:
        """All live records in insertion order (uncounted bulk access).

        Intended for data translation and test assertions, not for DML
        paths, so it does not contribute to access-path metrics.
        """
        return list(self._records.values())

    def clear(self) -> None:
        """Drop every record (rids are still not reused afterwards)."""
        log = self._undo.entries
        if log is not None and self._records:
            log.append((self._records.update, dict(self._records)))
        self._records.clear()
        self._generation += 1

    def load(self, rows: Iterable[dict[str, Any]]) -> list[Record]:
        """Bulk-insert rows, returning the created records."""
        return self.insert_many(rows)

    # -- savepoints --------------------------------------------------------

    def savepoint(self) -> Savepoint:
        """Mark the store's undo log (a store inside a database shares
        the database's log)."""
        return self._undo.savepoint("record-store", self)

    def rollback(self, savepoint: Savepoint) -> None:
        """Undo every change since :meth:`savepoint` and end it, with
        every savepoint taken after it."""
        self._undo.rollback(savepoint, "record-store", self)

    def release(self, savepoint: Savepoint) -> None:
        """End :meth:`savepoint` (and later ones), keeping the changes."""
        self._undo.release(savepoint, "record-store", self)

    def _truncate(self, first_rid: int) -> None:
        """Undo the inserts from ``first_rid`` on (the newest rids)."""
        for rid in range(first_rid, self._next_rid):
            del self._records[rid]
        self._next_rid = first_rid

    def _restore(self, record: Record) -> None:
        """Undo an update or a delete: put this version back."""
        records = self._records
        if (record.rid not in records and records
                and record.rid < next(reversed(records))):
            self._unsorted = True
        records[record.rid] = record

    def _settle(self) -> None:
        """After a rollback: restore rid order and bump the generation,
        so a scan in flight across the rollback fails loudly."""
        if self._unsorted:
            ordered = sorted(self._records.items())
            self._records.clear()
            self._records.update(ordered)
            self._unsorted = False
        self._generation += 1

    def state_fingerprint_data(self) -> tuple:
        """Canonical content structure for byte-identity assertions."""
        return (
            self.type_name,
            self._next_rid,
            tuple(
                (rid, record.type_name, tuple(record.values.items()))
                for rid, record in self._records.items()
            ),
        )
