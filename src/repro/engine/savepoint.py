"""Savepoints: one undo log per database.

The conversion pipeline routinely runs *candidate* work against a live
database -- a probe execution validating a strategy, an emulated verb
sequence, a restructuring dry run -- and any of it can fail part-way
through, leaving the instance half-mutated.  Section 1.1's consistency
contract ("every database program takes the database from one
consistent state to another") has nothing to say about a program that
*crashes*; savepoints supply the missing half: a failed run restores
the exact pre-call state instead of corrupting the instance.

Design:

* each database owns one :class:`UndoLog`, shared by every structure
  inside it: record stores, set stores, CALC and relational hash
  indexes, relation rows, hierarchical parent links and twin buckets;
* while at least one savepoint is open, every primitive mutation
  appends its inverse to the log.  With none open
  :attr:`UndoLog.entries` is ``None`` and nothing is logged, so
  loading and translation pay nothing.  A mutator computes everything
  that can raise before its first change, or logs each change as it
  makes it, so a refused call never leaves a change the log missed;
* :meth:`UndoLog.savepoint` only marks the log, and
  :meth:`UndoLog.rollback` undoes the entries above the mark, newest
  first: both cost O(writes since the mark), not O(database).  An
  inverse restores order as well as content -- a re-inserted key goes
  back to its old place in every iteration order a caller can see;
* a rollback ends its savepoint and every savepoint taken after it;
  :meth:`UndoLog.release` ends them without undoing anything.  Ending
  the last open savepoint empties the log and turns logging off.  An
  ended token, or one issued by another object, raises
  :class:`~repro.errors.SavepointMismatch`;
* after every rollback the log runs its settle hooks: each record store
  bumps its generation, so an in-flight generation-checked scan fails
  loudly instead of resuming over restored state, and derived caches
  (the hierarchical preorder, the relational position maps) are
  dropped.  The log holds its hooks weakly, so a dropped database is
  freed at once, not by the cyclic collector.

Metrics are never restored: a rolled-back probe still did the work it
did.
"""

from __future__ import annotations

import hashlib
import pickle
import weakref
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Any, Callable, Hashable

from repro.errors import SavepointMismatch

_SERIAL = count(1)


@dataclass(frozen=True)
class Savepoint:
    """An opaque mark in one object's undo log.

    ``owner_id`` pins the token to the instance that issued it;
    ``mark`` is the length of the log when it was taken.
    """

    kind: str
    owner_id: int
    mark: int
    serial: int = field(default_factory=lambda: next(_SERIAL))


def check_owner(savepoint: Savepoint, kind: str, owner: object) -> None:
    """Refuse a savepoint issued by a different object (or kind)."""
    if savepoint.kind != kind or savepoint.owner_id != id(owner):
        raise SavepointMismatch(
            f"savepoint {savepoint.kind}#{savepoint.serial} does not "
            f"belong to this {kind}"
        )


class UndoLog:
    """The inverses of one database's mutations since its oldest open
    savepoint.

    An entry is a tuple ``(undo, *args)``; rolling it back calls
    ``undo(*args)``.  Entries name the structure they change (a store,
    an index, a relation) and look its containers up when undone, so
    an undo never writes into a container a later change replaced.
    """

    def __init__(self) -> None:
        #: Inverse operations, oldest first; ``None`` while no savepoint
        #: is open, which tells every mutator not to log.
        self.entries: list[tuple] | None = None
        self._open: list[Savepoint] = []
        self._settle: list[weakref.WeakMethod] = []

    def on_rollback(self, hook: Callable[[], None]) -> None:
        """Call ``hook``, a bound method, after every rollback, once the
        undo is done.  It is held weakly: the structure it belongs to
        holds this log, and a strong reference back would make every
        database a cycle that only the cyclic collector can free."""
        self._settle.append(weakref.WeakMethod(hook))

    def __getstate__(self) -> dict[str, Any]:
        # A weak reference does not pickle; the bound method does.
        state = dict(self.__dict__)
        state["_settle"] = [hook() for hook in self._settle]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._settle = [weakref.WeakMethod(hook)
                        for hook in self._settle if hook is not None]

    def savepoint(self, kind: str, owner: object) -> Savepoint:
        """Mark the log; from now until the savepoint ends, mutations
        are logged."""
        if self.entries is None:
            self.entries = []
        savepoint = Savepoint(kind, id(owner), len(self.entries))
        self._open.append(savepoint)
        return savepoint

    def rollback(self, savepoint: Savepoint, kind: str,
                 owner: object) -> None:
        """Undo every mutation since ``savepoint``, newest first, then
        end it and every savepoint taken after it."""
        depth = self._depth(savepoint, kind, owner)
        entries = self.entries
        while len(entries) > savepoint.mark:
            undo, *args = entries.pop()
            undo(*args)
        self._end(depth)
        for hook in self._settle:
            settle = hook()
            if settle is not None:
                settle()

    def release(self, savepoint: Savepoint, kind: str,
                owner: object) -> None:
        """End ``savepoint`` and every savepoint taken after it, keeping
        their changes."""
        self._end(self._depth(savepoint, kind, owner))

    def _depth(self, savepoint: Savepoint, kind: str, owner: object) -> int:
        check_owner(savepoint, kind, owner)
        for depth, open_savepoint in enumerate(self._open):
            if open_savepoint.serial == savepoint.serial:
                return depth
        raise SavepointMismatch(
            f"savepoint {savepoint.kind}#{savepoint.serial} has ended "
            "(rolled back or released)"
        )

    def _end(self, depth: int) -> None:
        del self._open[depth:]
        if not self._open:
            self.entries = None


def key_position(mapping: dict, key: Hashable) -> int:
    """The place of ``key`` in ``mapping``'s iteration order."""
    return list(mapping).index(key)


def reinsert(mapping: dict, position: int, key: Hashable,
             value: Any) -> None:
    """Put ``key`` back at ``position`` of ``mapping``'s iteration order
    (undoing its deletion from there), in place."""
    tail = list(islice(mapping.items(), position, None))
    for tail_key, _value in tail:
        del mapping[tail_key]
    mapping[key] = value
    mapping.update(tail)


def fingerprint(state: Any) -> str:
    """A stable content digest of a canonical state structure.

    The rollback tests assert *byte* identity: the pre-fault and
    post-rollback states must pickle to the same bytes.  Callers build
    the state from deterministic containers (dicts in insertion order,
    lists, scalars) so the pickle stream is reproducible.
    """
    payload = pickle.dumps(state, protocol=4)
    return hashlib.sha256(payload).hexdigest()
