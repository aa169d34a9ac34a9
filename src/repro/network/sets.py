"""Owner-coupled set occurrences.

A :class:`SetStore` maintains the occurrences of one set type: which
owner each member is connected to, and the member order within each
occurrence (sorted by the set's order keys, else chained in insertion
order).  SYSTEM-owned sets have a single occurrence identified by owner
rid 0.
"""

from __future__ import annotations

from repro.engine.ordering import orderable
from repro.engine.savepoint import UndoLog, key_position, reinsert
from repro.engine.storage import Record, RecordStore
from repro.errors import IntegrityError, UniquenessViolation
from repro.schema.model import SetType

#: Owner rid of the single occurrence of a SYSTEM-owned set.
SYSTEM_OWNER_RID = 0


class SetStore:
    """Occurrences of one set type."""

    def __init__(self, set_type: SetType, member_store: RecordStore,
                 undo: UndoLog):
        self.set_type = set_type
        #: The member record type's store, where order keys are read.
        self._member_store = member_store
        self._owner_of: dict[int, int] = {}          # member rid -> owner rid
        # owner rid -> member rids; key order (occurrence creation) is
        # what owners() returns, and no occurrence is ever empty.
        self._members: dict[int, list[int]] = {}
        self._seq: dict[int, int] = {}               # member rid -> arrival seq
        self._next_seq = 0
        #: The database's undo log (see :mod:`repro.engine.savepoint`).
        self._undo = undo
        #: Position of the member the last navigation returned.  Only a
        #: hint: it is used where the occurrence still holds the member
        #: there, since a rollback rewrites occurrences in place.
        self._last_position = 0

    # -- internals ------------------------------------------------------

    def _order_key(self, member_rid: int) -> tuple:
        """Sort key of a member: order-key field values, then arrival."""
        return (orderable(self._key_values(member_rid)),
                self._seq.get(member_rid, 0))

    def _key_values(self, member_rid: int) -> tuple:
        return self._values_of(self._member_store.peek(member_rid))

    def _values_of(self, record: Record | None) -> tuple:
        """A member record's order-key field values."""
        if record is None:
            return (None,) * len(self.set_type.order_keys)
        return tuple(map(record.values.get, self.set_type.order_keys))

    def _position(self, occurrence: list[int], member_rid: int) -> int:
        """Where ``member_rid`` sits in ``occurrence``: O(1) when the
        last navigation left it there (a scan's next step), else found
        by search."""
        position = self._last_position
        if position < len(occurrence) and occurrence[position] == member_rid:
            return position
        return occurrence.index(member_rid)

    # -- mutation ---------------------------------------------------------

    def connect(self, owner_rid: int, member_rid: int) -> None:
        """Insert a member into an owner's occurrence, in set order."""
        if member_rid in self._owner_of:
            raise IntegrityError(
                f"set {self.set_type.name}: member rid {member_rid} "
                "is already connected"
            )
        occurrence = self._members.get(owner_rid)
        if (occurrence and self.set_type.order_keys
                and not self.set_type.allow_duplicates):
            new_key = self._key_values(member_rid)
            for existing in occurrence:
                if self._key_values(existing) == new_key:
                    raise UniquenessViolation(
                        f"set {self.set_type.name}: duplicate set key "
                        f"{new_key!r} within occurrence of owner "
                        f"{owner_rid}"
                    )
        if occurrence is None:
            occurrence = self._members[owner_rid] = []
        self._next_seq += 1
        self._seq[member_rid] = self._next_seq
        self._owner_of[member_rid] = owner_rid
        if self.set_type.order_keys:
            key = self._order_key(member_rid)
            position = 0
            while (position < len(occurrence)
                   and self._order_key(occurrence[position]) <= key):
                position += 1
            occurrence.insert(position, member_rid)
        else:
            occurrence.append(member_rid)
        log = self._undo.entries
        if log is not None:
            log.append((self._unconnect, member_rid))

    def connect_many(self, owner_rid: int, member_rids: list[int]) -> None:
        """Bulk :meth:`connect` into one owner's occurrence.

        Equivalent to connecting each member in order (same final set
        order: order-key values, then arrival sequence) but the
        occurrence is sorted once and the duplicate-key check uses a
        hash set instead of a per-member scan.  Every check runs before
        the first change, so a refused call changes nothing.
        """
        if not member_rids:
            return
        arriving: set[int] = set()
        for member_rid in member_rids:
            if member_rid in self._owner_of or member_rid in arriving:
                raise IntegrityError(
                    f"set {self.set_type.name}: member rid {member_rid} "
                    "is already connected"
                )
            arriving.add(member_rid)
        occurrence = self._members.get(owner_rid)
        ordered = bool(self.set_type.order_keys)
        if ordered:
            # Every member's order-key values, read once for both the
            # duplicate check and the sort: the occurrence's members,
            # then the arriving ones.
            peek = self._member_store.peek
            keys = [self._values_of(peek(rid)) for rid in occurrence or ()]
            existing = len(keys)
            keys.extend(self._values_of(peek(rid)) for rid in member_rids)
            if not self.set_type.allow_duplicates:
                seen = set(keys[:existing])
                for new_key in keys[existing:]:
                    if new_key in seen:
                        raise UniquenessViolation(
                            f"set {self.set_type.name}: duplicate set key "
                            f"{new_key!r} within occurrence of owner "
                            f"{owner_rid}"
                        )
                    seen.add(new_key)
        log = self._undo.entries
        previous = None
        if occurrence is None:
            occurrence = self._members[owner_rid] = []
        elif log is not None:
            previous = list(occurrence)
        for member_rid in member_rids:
            self._next_seq += 1
            self._seq[member_rid] = self._next_seq
            self._owner_of[member_rid] = owner_rid
        occurrence.extend(member_rids)
        if ordered:
            # The sort key ends in the arrival sequence, so one sort
            # reproduces the incremental insert-after-equals order.
            keyed = sorted(zip(map(orderable, keys),
                               map(self._seq.__getitem__, occurrence),
                               occurrence))
            occurrence[:] = [member_rid for *_key, member_rid in keyed]
        if log is not None:
            log.append((self._unconnect_many, owner_rid, tuple(member_rids),
                        previous))

    def disconnect(self, member_rid: int) -> int | None:
        """Remove a member from its occurrence; return its old owner."""
        owner_rid = self._owner_of.pop(member_rid, None)
        if owner_rid is None:
            return None
        seq = self._seq.pop(member_rid)
        occurrence = self._members[owner_rid]
        position = self._position(occurrence, member_rid)
        log = self._undo.entries
        emptied = None
        if len(occurrence) == 1:
            if log is not None:
                emptied = key_position(self._members, owner_rid)
            del self._members[owner_rid]
        else:
            del occurrence[position]
        if log is not None:
            log.append((self._undisconnect, owner_rid, member_rid, seq,
                        position, emptied))
        return owner_rid

    def reposition(self, member_rid: int) -> None:
        """Re-sort a member after its order-key fields were modified."""
        if not self.set_type.order_keys:
            return
        owner_rid = self._owner_of.get(member_rid)
        if owner_rid is None:
            return
        occurrence = self._members[owner_rid]
        old_position = occurrence.index(member_rid)
        del occurrence[old_position]
        key = self._order_key(member_rid)
        position = 0
        while (position < len(occurrence)
               and self._order_key(occurrence[position]) <= key):
            position += 1
        occurrence.insert(position, member_rid)
        log = self._undo.entries
        if log is not None:
            log.append((self._unreposition, owner_rid, member_rid,
                        old_position))

    # -- undo (entries of the database's log) ----------------------------

    def _unconnect(self, member_rid: int) -> None:
        owner_rid = self._owner_of.pop(member_rid)
        occurrence = self._members[owner_rid]
        occurrence.remove(member_rid)
        if not occurrence:
            # The connect created this occurrence, as the newest key.
            del self._members[owner_rid]
        del self._seq[member_rid]
        self._next_seq -= 1

    def _unconnect_many(self, owner_rid: int, member_rids: tuple[int, ...],
                        previous: list[int] | None) -> None:
        for member_rid in member_rids:
            del self._owner_of[member_rid]
            del self._seq[member_rid]
        self._next_seq -= len(member_rids)
        if previous is None:
            del self._members[owner_rid]
        else:
            self._members[owner_rid][:] = previous

    def _undisconnect(self, owner_rid: int, member_rid: int, seq: int,
                      position: int, emptied: int | None) -> None:
        if emptied is not None:
            reinsert(self._members, emptied, owner_rid, [member_rid])
        else:
            self._members[owner_rid].insert(position, member_rid)
        self._owner_of[member_rid] = owner_rid
        self._seq[member_rid] = seq

    def _unreposition(self, owner_rid: int, member_rid: int,
                      old_position: int) -> None:
        occurrence = self._members[owner_rid]
        occurrence.remove(member_rid)
        occurrence.insert(old_position, member_rid)

    # -- queries ---------------------------------------------------------

    def owner(self, member_rid: int) -> int | None:
        return self._owner_of.get(member_rid)

    def is_connected(self, member_rid: int) -> bool:
        return member_rid in self._owner_of

    def members(self, owner_rid: int) -> list[int]:
        """Member rids of one occurrence, in set order (a copy)."""
        return list(self._members.get(owner_rid, []))

    def first(self, owner_rid: int) -> int | None:
        occurrence = self._members.get(owner_rid)
        if not occurrence:
            return None
        self._last_position = 0
        return occurrence[0]

    def last(self, owner_rid: int) -> int | None:
        occurrence = self._members.get(owner_rid)
        if not occurrence:
            return None
        self._last_position = len(occurrence) - 1
        return occurrence[-1]

    def next_after(self, member_rid: int) -> int | None:
        """The member after ``member_rid`` in its occurrence, if any."""
        owner_rid = self._owner_of.get(member_rid)
        if owner_rid is None:
            return None
        occurrence = self._members.get(owner_rid, [])
        position = self._position(occurrence, member_rid) + 1
        if position < len(occurrence):
            self._last_position = position
            return occurrence[position]
        return None

    def prior_before(self, member_rid: int) -> int | None:
        owner_rid = self._owner_of.get(member_rid)
        if owner_rid is None:
            return None
        occurrence = self._members.get(owner_rid, [])
        position = self._position(occurrence, member_rid) - 1
        if position >= 0:
            self._last_position = position
            return occurrence[position]
        return None

    def owners(self) -> list[int]:
        """Owner rids that currently have a non-empty occurrence."""
        return list(self._members)

    def state_fingerprint_data(self) -> tuple:
        return (
            self.set_type.name,
            self._next_seq,
            tuple(
                (owner, tuple(members))
                for owner, members in self._members.items()
            ),
            tuple(sorted(self._owner_of.items())),
            tuple(sorted(self._seq.items())),
        )
