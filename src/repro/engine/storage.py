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
from repro.engine.savepoint import Savepoint, check_owner


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

    def __init__(self, type_name: str, metrics: Metrics | None = None):
        self.type_name = type_name
        self.metrics = metrics if metrics is not None else Metrics()
        self._records: dict[int, Record] = {}
        self._next_rid = 1
        # Bumped on structural change (insert/delete/clear); scans check
        # it so they can iterate the live dict without a defensive copy.
        self._generation = 0

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, rid: int) -> bool:
        return rid in self._records

    def insert(self, values: dict[str, Any]) -> Record:
        """Store a new record and return it (with its assigned rid)."""
        rid = self._next_rid
        self._next_rid += 1
        record = Record(rid, self.type_name, dict(values))
        self._records[rid] = record
        self._generation += 1
        self.metrics.records_written += 1
        return record

    def insert_many(self, rows: Iterable[dict[str, Any]]) -> list[Record]:
        """Bulk :meth:`insert`: one metrics update for the whole batch.

        Equivalent to inserting each row in order (same rids, same
        iteration order) but with the per-row bookkeeping amortized.
        """
        records = []
        rid = self._next_rid
        for values in rows:
            record = Record(rid, self.type_name, dict(values))
            self._records[rid] = record
            records.append(record)
            rid += 1
        self._next_rid = rid
        self._generation += 1
        self.metrics.records_written += len(records)
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
        return record

    def scan(self) -> Iterator[Record]:
        """Yield every record in insertion order (counted as reads).

        Iterates a generation-checked view of the live dict rather than
        copying every record reference into a list up front: the common
        consumers (FIND ANY, constraint checks) either consume the scan
        immediately or abandon the generator before mutating.  A store
        that *is* structurally mutated while a scan is being resumed
        fails loudly instead of serving a stale copy.
        """
        self.metrics.index_scans += 1
        generation = self._generation
        for record in self._records.values():
            if self._generation != generation:
                raise RuntimeError(
                    f"{self.type_name}: store mutated during scan"
                )
            self.metrics.records_read += 1
            yield record

    def all_records(self) -> list[Record]:
        """All live records in insertion order (uncounted bulk access).

        Intended for data translation and test assertions, not for DML
        paths, so it does not contribute to access-path metrics.
        """
        return list(self._records.values())

    def clear(self) -> None:
        """Drop every record (rids are still not reused afterwards)."""
        self._records.clear()
        self._generation += 1

    def load(self, rows: Iterable[dict[str, Any]]) -> list[Record]:
        """Bulk-insert rows, returning the created records."""
        return self.insert_many(rows)

    # -- savepoints --------------------------------------------------------

    def savepoint(self) -> Savepoint:
        """Capture the store's state.

        Record objects are immutable, so a shallow copy of the rid map
        shares every record with the live store -- O(len) pointer
        copies, no value copying (copy-on-write in effect: updates
        install *new* Record versions and never touch shared ones).
        """
        return Savepoint("record-store", id(self), payload=(
            dict(self._records), self._next_rid,
        ))

    def rollback(self, savepoint: Savepoint) -> None:
        """Restore the exact state captured by :meth:`savepoint`.

        The generation is bumped (not restored) so a scan that was in
        flight across the rollback fails loudly instead of resuming
        over replaced state.
        """
        check_owner(savepoint, "record-store", self)
        records, next_rid = savepoint.payload
        self._records = dict(records)
        self._next_rid = next_rid
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
