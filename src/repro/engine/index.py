"""Secondary indexes.

:class:`HashIndex` -- equality lookup, optionally unique -- backs
relational keys, CODASYL CALC keys, and foreign-key existence checks.
Keys may be single values or tuples of values (composite keys).
Key-ordered traversal (CODASYL sorted sets, hierarchical sibling
order) sorts with :func:`repro.engine.ordering.orderable` instead.
"""

from __future__ import annotations

from typing import Hashable

from repro.errors import DuplicateKey
from repro.engine.metrics import Metrics
from repro.engine.savepoint import UndoLog, key_position, reinsert


class HashIndex:
    """Equality index from key to a list of rids (insertion order).

    ``undo`` is the log of the database the index belongs to; while one
    of its savepoints is open, :meth:`insert` and :meth:`remove` log
    their inverses there.
    """

    def __init__(self, name: str, unique: bool = False,
                 metrics: Metrics | None = None,
                 undo: UndoLog | None = None):
        self.name = name
        self.unique = unique
        self.metrics = metrics if metrics is not None else Metrics()
        #: Key order is first-insertion order; bucket order is the
        #: order in which lookups return duplicates.
        self._entries: dict[Hashable, list[int]] = {}
        self._undo = undo if undo is not None else UndoLog()

    def __len__(self) -> int:
        return sum(len(rids) for rids in self._entries.values())

    def insert(self, key: Hashable, rid: int) -> None:
        bucket = self._entries.get(key)
        if bucket is None:
            self._entries[key] = [rid]
        elif self.unique:
            raise DuplicateKey(
                f"index {self.name}: duplicate key {key!r}"
            )
        else:
            bucket.append(rid)
        log = self._undo.entries
        if log is not None:
            log.append((self._uninsert, key))

    def remove(self, key: Hashable, rid: int) -> None:
        bucket = self._entries.get(key)
        if bucket is None or rid not in bucket:
            return
        log = self._undo.entries
        position = bucket.index(rid)
        emptied = None
        if len(bucket) == 1:
            if log is not None:
                emptied = key_position(self._entries, key)
            del self._entries[key]
        else:
            del bucket[position]
        if log is not None:
            log.append((self._unremove, key, rid, position, emptied))

    def _uninsert(self, key: Hashable) -> None:
        bucket = self._entries[key]
        bucket.pop()
        if not bucket:
            del self._entries[key]

    def _unremove(self, key: Hashable, rid: int, position: int,
                  emptied: int | None) -> None:
        if emptied is not None:
            reinsert(self._entries, emptied, key, [rid])
        else:
            self._entries[key].insert(position, rid)

    def lookup(self, key: Hashable) -> list[int]:
        """Rids with exactly this key, in insertion order."""
        self.metrics.index_probes += 1
        return list(self._entries.get(key, []))

    def contains(self, key: Hashable) -> bool:
        self.metrics.index_probes += 1
        return bool(self._entries.get(key))

    def keys(self) -> list[Hashable]:
        return list(self._entries)
