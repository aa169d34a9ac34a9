"""Owner-coupled set occurrences.

A :class:`SetStore` maintains the occurrences of one set type: which
owner each member is connected to, and the member order within each
occurrence (sorted by the set's order keys, else chained in insertion
order).  SYSTEM-owned sets have a single occurrence identified by owner
rid 0.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.ordering import orderable
from repro.engine.savepoint import Savepoint, check_owner
from repro.errors import IntegrityError, UniquenessViolation
from repro.schema.model import SetType

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.database import NetworkDatabase

#: Owner rid of the single occurrence of a SYSTEM-owned set.
SYSTEM_OWNER_RID = 0


class SetStore:
    """Occurrences of one set type."""

    def __init__(self, set_type: SetType, db: "NetworkDatabase"):
        self.set_type = set_type
        self._db = db
        self._owner_of: dict[int, int] = {}          # member rid -> owner rid
        self._members: dict[int, list[int]] = {}     # owner rid -> member rids
        self._seq: dict[int, int] = {}               # member rid -> arrival seq
        self._next_seq = 0

    # -- internals ------------------------------------------------------

    def _order_key(self, member_rid: int) -> tuple:
        """Sort key of a member: order-key field values, then arrival."""
        record = self._db.store(self.set_type.member).peek(member_rid)
        values = tuple(
            record.get(key) if record is not None else None
            for key in self.set_type.order_keys
        )
        return (orderable(values), self._seq.get(member_rid, 0))

    def _key_values(self, member_rid: int) -> tuple:
        record = self._db.store(self.set_type.member).peek(member_rid)
        return tuple(
            record.get(key) if record is not None else None
            for key in self.set_type.order_keys
        )

    # -- mutation ---------------------------------------------------------

    def connect(self, owner_rid: int, member_rid: int) -> None:
        """Insert a member into an owner's occurrence, in set order."""
        if member_rid in self._owner_of:
            raise IntegrityError(
                f"set {self.set_type.name}: member rid {member_rid} "
                "is already connected"
            )
        occurrence = self._members.setdefault(owner_rid, [])
        if self.set_type.order_keys and not self.set_type.allow_duplicates:
            new_key = self._key_values(member_rid)
            for existing in occurrence:
                if self._key_values(existing) == new_key:
                    raise UniquenessViolation(
                        f"set {self.set_type.name}: duplicate set key "
                        f"{new_key!r} within occurrence of owner "
                        f"{owner_rid}"
                    )
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

    def connect_many(self, owner_rid: int, member_rids: list[int]) -> None:
        """Bulk :meth:`connect` into one owner's occurrence.

        Equivalent to connecting each member in order (same final set
        order: order-key values, then arrival sequence) but the
        occurrence is sorted once and the duplicate-key check uses a
        hash set instead of a per-member scan.
        """
        if not member_rids:
            return
        for member_rid in member_rids:
            if member_rid in self._owner_of:
                raise IntegrityError(
                    f"set {self.set_type.name}: member rid {member_rid} "
                    "is already connected"
                )
        occurrence = self._members.setdefault(owner_rid, [])
        if self.set_type.order_keys and not self.set_type.allow_duplicates:
            seen = {self._key_values(existing) for existing in occurrence}
            for member_rid in member_rids:
                new_key = self._key_values(member_rid)
                if new_key in seen:
                    raise UniquenessViolation(
                        f"set {self.set_type.name}: duplicate set key "
                        f"{new_key!r} within occurrence of owner "
                        f"{owner_rid}"
                    )
                seen.add(new_key)
        for member_rid in member_rids:
            self._next_seq += 1
            self._seq[member_rid] = self._next_seq
            self._owner_of[member_rid] = owner_rid
        occurrence.extend(member_rids)
        if self.set_type.order_keys:
            # _order_key ends in the arrival sequence, so one sort
            # reproduces the incremental insert-after-equals order.
            occurrence.sort(key=self._order_key)

    def disconnect(self, member_rid: int) -> int | None:
        """Remove a member from its occurrence; return its old owner."""
        owner_rid = self._owner_of.pop(member_rid, None)
        if owner_rid is None:
            return None
        occurrence = self._members.get(owner_rid, [])
        if member_rid in occurrence:
            occurrence.remove(member_rid)
            if not occurrence:
                del self._members[owner_rid]
        self._seq.pop(member_rid, None)
        return owner_rid

    def reposition(self, member_rid: int) -> None:
        """Re-sort a member after its order-key fields were modified."""
        if not self.set_type.order_keys:
            return
        owner_rid = self._owner_of.get(member_rid)
        if owner_rid is None:
            return
        occurrence = self._members[owner_rid]
        occurrence.remove(member_rid)
        key = self._order_key(member_rid)
        position = 0
        while (position < len(occurrence)
               and self._order_key(occurrence[position]) <= key):
            position += 1
        occurrence.insert(position, member_rid)

    # -- queries ---------------------------------------------------------

    def owner(self, member_rid: int) -> int | None:
        return self._owner_of.get(member_rid)

    def is_connected(self, member_rid: int) -> bool:
        return member_rid in self._owner_of

    def members(self, owner_rid: int) -> list[int]:
        """Member rids of one occurrence, in set order (a copy)."""
        return list(self._members.get(owner_rid, []))

    def first(self, owner_rid: int) -> int | None:
        occurrence = self._members.get(owner_rid, [])
        return occurrence[0] if occurrence else None

    def last(self, owner_rid: int) -> int | None:
        occurrence = self._members.get(owner_rid, [])
        return occurrence[-1] if occurrence else None

    def next_after(self, member_rid: int) -> int | None:
        """The member after ``member_rid`` in its occurrence, if any."""
        owner_rid = self._owner_of.get(member_rid)
        if owner_rid is None:
            return None
        occurrence = self._members.get(owner_rid, [])
        index = occurrence.index(member_rid)
        if index + 1 < len(occurrence):
            return occurrence[index + 1]
        return None

    def prior_before(self, member_rid: int) -> int | None:
        owner_rid = self._owner_of.get(member_rid)
        if owner_rid is None:
            return None
        occurrence = self._members.get(owner_rid, [])
        index = occurrence.index(member_rid)
        if index > 0:
            return occurrence[index - 1]
        return None

    def owners(self) -> list[int]:
        """Owner rids that currently have a non-empty occurrence."""
        return list(self._members)

    # -- savepoints -------------------------------------------------------

    def savepoint(self) -> Savepoint:
        """Capture occurrence membership and order (lists copied)."""
        return Savepoint("set-store", id(self), payload=(
            dict(self._owner_of),
            {owner: list(members)
             for owner, members in self._members.items()},
            dict(self._seq),
            self._next_seq,
        ))

    def rollback(self, savepoint: Savepoint) -> None:
        check_owner(savepoint, "set-store", self)
        owner_of, members, seq, next_seq = savepoint.payload
        self._owner_of = dict(owner_of)
        self._members = {
            owner: list(member_rids)
            for owner, member_rids in members.items()
        }
        self._seq = dict(seq)
        self._next_seq = next_seq

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
