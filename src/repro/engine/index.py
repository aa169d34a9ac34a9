"""Secondary indexes.

Two index flavours cover everything the data models need:

* :class:`HashIndex` -- equality lookup, optionally unique.  Backs
  relational keys, CODASYL CALC keys, and foreign-key existence checks.
* :class:`SortedIndex` -- key-ordered traversal.  Backs CODASYL sorted
  set occurrences and hierarchical sibling order.

Keys may be single values or tuples of values (composite keys).  ``None``
inside a key is allowed and sorts before every non-None value of any
type, so indexes tolerate the "null instructor" records of Section 3.1.
"""

from __future__ import annotations

import bisect
from typing import Any, Hashable, Iterator

from repro.errors import DuplicateKey
from repro.engine.metrics import Metrics
from repro.engine.ordering import orderable
from repro.engine.savepoint import UndoLog, key_position, reinsert

#: Backwards-compatible private name; the public home of the function
#: is :func:`repro.engine.ordering.orderable`.
_orderable = orderable


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


class SortedIndex:
    """Key-ordered index supporting ordered iteration and range scans."""

    def __init__(self, name: str, unique: bool = False,
                 metrics: Metrics | None = None):
        self.name = name
        self.unique = unique
        self.metrics = metrics if metrics is not None else Metrics()
        # Parallel arrays: _order holds (orderable(key), seq) sort keys.
        self._order: list[tuple] = []
        self._items: list[tuple[Any, int]] = []  # (key, rid)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._items)

    def insert(self, key: Any, rid: int) -> None:
        if self.unique and self._key_present(key):
            raise DuplicateKey(f"index {self.name}: duplicate key {key!r}")
        self._seq += 1
        sort_key = (orderable(key), self._seq)
        pos = bisect.bisect_left(self._order, sort_key)
        self._order.insert(pos, sort_key)
        self._items.insert(pos, (key, rid))

    def _key_present(self, key: Any) -> bool:
        target = orderable(key)
        pos = bisect.bisect_left(self._order, (target,))
        return pos < len(self._order) and self._order[pos][0] == target

    def remove(self, key: Any, rid: int) -> None:
        target = orderable(key)
        pos = bisect.bisect_left(self._order, (target,))
        while pos < len(self._order) and self._order[pos][0] == target:
            if self._items[pos][1] == rid:
                del self._order[pos]
                del self._items[pos]
                return
            pos += 1

    def scan(self) -> Iterator[int]:
        """Yield rids in key order."""
        self.metrics.index_scans += 1
        for _key, rid in list(self._items):
            yield rid

    def scan_items(self) -> Iterator[tuple[Any, int]]:
        """Yield (key, rid) pairs in key order."""
        self.metrics.index_scans += 1
        yield from list(self._items)

    def lookup(self, key: Any) -> list[int]:
        """Rids whose key equals ``key``, in key order."""
        self.metrics.index_probes += 1
        target = orderable(key)
        pos = bisect.bisect_left(self._order, (target,))
        out = []
        while pos < len(self._order) and self._order[pos][0] == target:
            out.append(self._items[pos][1])
            pos += 1
        return out

    def range(self, low: Any = None, high: Any = None) -> Iterator[int]:
        """Yield rids with low <= key <= high (either bound optional)."""
        self.metrics.index_scans += 1
        low_key = orderable(low) if low is not None else None
        high_key = orderable(high) if high is not None else None
        for key, rid in list(self._items):
            ordered = orderable(key)
            if low_key is not None and ordered < low_key:
                continue
            if high_key is not None and ordered > high_key:
                break
            yield rid

    def first(self) -> int | None:
        """Rid with the smallest key, or None when empty."""
        self.metrics.index_probes += 1
        return self._items[0][1] if self._items else None

    def position(self, rid: int) -> int | None:
        """Zero-based position of a rid in key order, or None."""
        for pos, (_key, item_rid) in enumerate(self._items):
            if item_rid == rid:
                return pos
        return None
