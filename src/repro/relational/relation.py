"""Relations: named, typed collections of tuples.

A :class:`Relation` is a materialized table -- either a base relation
living in a :class:`RelationalDatabase` or an intermediate result of
the algebra.  Rows are plain dicts; column order is declared and
preserved through operations so printed results are deterministic.

Base relations may carry maintained :class:`~repro.engine.index.HashIndex`
secondary indexes over column tuples (primary keys, foreign keys,
declared unique keys).  Indexes are kept consistent through
:meth:`append`/:meth:`extend`/:meth:`remove_where`/:meth:`update_where`
and consulted by the equality fast paths (:meth:`lookup_rows` and the
``equal=`` forms of the mutating verbs); ``use_indexes=False`` restores
the seed's linear-scan behaviour everywhere.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.engine.index import HashIndex
from repro.engine.metrics import Metrics
from repro.engine.savepoint import UndoLog
from repro.errors import QueryError


class Relation:
    """An ordered collection of rows over a fixed column list."""

    def __init__(self, name: str, columns: Iterable[str],
                 rows: Iterable[dict[str, Any]] = (),
                 metrics: Metrics | None = None,
                 use_indexes: bool = True,
                 undo: UndoLog | None = None):
        self.name = name
        self.columns = list(columns)
        self.metrics = metrics if metrics is not None else Metrics()
        self.use_indexes = use_indexes
        #: The database's undo log; a relation outside a database (an
        #: algebra result) gets one that no savepoint ever opens.
        self._undo = undo if undo is not None else UndoLog()
        if undo is not None:
            undo.on_rollback(self._forget_positions)
        self._rows: list[dict[str, Any]] = []
        #: Stable internal row ids, parallel to ``_rows`` (indexes
        #: reference rows by these so deletions cannot dangle).
        self._rids: list[int] = []
        self._row_by_rid: dict[int, dict[str, Any]] = {}
        self._next_rid = 1
        self._indexes: dict[tuple[str, ...], HashIndex] = {}
        # Lazy rid -> 0-based position map (positions shift on delete).
        self._pos_by_rid: dict[int, int] | None = None
        for row in rows:
            self.append(row)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        for row in self._rows:
            self.metrics.records_read += 1
            yield row

    # -- secondary indexes --------------------------------------------------

    def add_index(self, columns: Iterable[str]) -> HashIndex:
        """Declare (and build) a maintained index over a column tuple.

        Idempotent; returns the index.  With ``use_indexes=False`` the
        declaration is remembered as a no-op and lookups scan instead.
        """
        key_columns = tuple(columns)
        for column in key_columns:
            if column not in self.columns:
                raise QueryError(
                    f"relation {self.name}: no column {column}"
                )
        existing = self._indexes.get(key_columns)
        if existing is not None:
            return existing
        index = HashIndex(f"{self.name}({','.join(key_columns)})",
                          metrics=self.metrics, undo=self._undo)
        for rid, row in zip(self._rids, self._rows):
            index.insert(tuple(row[c] for c in key_columns), rid)
        self._indexes[key_columns] = index
        return index

    def _index_insert(self, rid: int, row: dict[str, Any]) -> None:
        for key_columns, index in self._indexes.items():
            index.insert(tuple(row[c] for c in key_columns), rid)

    def _index_remove(self, rid: int, row: dict[str, Any]) -> None:
        for key_columns, index in self._indexes.items():
            index.remove(tuple(row[c] for c in key_columns), rid)

    def lookup_rows(self, equal: dict[str, Any]
                    ) -> list[dict[str, Any]] | None:
        """Rows matching every ``column = value`` pair via the best
        covering index, in row order -- or None when no index covers a
        subset of the pairs (or indexes are disabled).

        The caller must still apply any residual predicate: the chosen
        index may cover only a subset of the equality conjuncts.
        """
        index_key = self._best_index(equal)
        if index_key is None:
            return None
        rids = self._index_rids(index_key, equal)
        rows = [self._row_by_rid[rid] for rid in rids]
        self.metrics.records_read += len(rows)
        residual = [c for c in equal if c not in index_key]
        if residual:
            rows = [row for row in rows
                    if all(row[c] == equal[c] for c in residual)]
        return rows

    def lookup_positions(self, equal: dict[str, Any]
                         ) -> list[tuple[int, dict[str, Any]]] | None:
        """Like :meth:`lookup_rows` but pairing each row with its
        1-based row position (the DatabaseView rid), in row order."""
        index_key = self._best_index(equal)
        if index_key is None:
            return None
        rids = self._index_rids(index_key, equal)
        if self._pos_by_rid is None:
            self._pos_by_rid = {
                rid: pos for pos, rid in enumerate(self._rids)
            }
        out = []
        residual = [c for c in equal if c not in index_key]
        for rid in rids:
            row = self._row_by_rid[rid]
            self.metrics.records_read += 1
            if all(row[c] == equal[c] for c in residual):
                out.append((self._pos_by_rid[rid] + 1, row))
        return out

    def _index_rids(self, index_key: tuple[str, ...],
                    equal: dict[str, Any]) -> list[int]:
        """The rids under one index key, in row order: a bucket holds
        them in the order they entered it, and an update can move a
        row into a bucket after later rows, but rids ascend with row
        position and rows never move."""
        self.metrics.index_hits += 1
        return sorted(self._indexes[index_key].lookup(
            tuple(equal[c] for c in index_key)
        ))

    def _best_index(self, equal: dict[str, Any]) -> tuple[str, ...] | None:
        """The widest maintained index whose columns all appear in the
        equality conjuncts."""
        if not self.use_indexes or not equal:
            return None
        best: tuple[str, ...] | None = None
        for key_columns in self._indexes:
            if all(column in equal for column in key_columns):
                if best is None or len(key_columns) > len(best):
                    best = key_columns
        return best

    # -- mutation ----------------------------------------------------------

    def append(self, row: dict[str, Any]) -> dict[str, Any]:
        """Add a row (missing columns become None; extras rejected)."""
        unknown = set(row) - set(self.columns)
        if unknown:
            raise QueryError(
                f"relation {self.name}: unknown columns {sorted(unknown)}"
            )
        complete = {col: row.get(col) for col in self.columns}
        rid = self._next_rid
        self._next_rid += 1
        self._rows.append(complete)
        self._rids.append(rid)
        self._row_by_rid[rid] = complete
        if self._pos_by_rid is not None:
            self._pos_by_rid[rid] = len(self._rows) - 1
        log = self._undo.entries
        if log is not None:
            log.append((self._unappend, 1))
        self._index_insert(rid, complete)
        self.metrics.records_written += 1
        return complete

    def extend(self, rows: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
        """Bulk :meth:`append`: same validation per row, one metrics
        update for the whole batch."""
        known = set(self.columns)
        completed = []
        for row in rows:
            unknown = set(row) - known
            if unknown:
                raise QueryError(
                    f"relation {self.name}: unknown columns "
                    f"{sorted(unknown)}"
                )
            completed.append({col: row.get(col) for col in self.columns})
        first = rid = self._next_rid
        for complete in completed:
            self._rows.append(complete)
            self._rids.append(rid)
            self._row_by_rid[rid] = complete
            if self._pos_by_rid is not None:
                self._pos_by_rid[rid] = len(self._rows) - 1
            rid += 1
        self._next_rid = rid
        log = self._undo.entries
        if log is not None and completed:
            log.append((self._unappend, len(completed)))
        for rid, complete in enumerate(completed, start=first):
            self._index_insert(rid, complete)
        self.metrics.records_written += len(completed)
        return completed

    def rows(self) -> list[dict[str, Any]]:
        """All rows (uncounted bulk access for assertions/translation)."""
        return [dict(row) for row in self._rows]

    def remove_where(self, predicate: Callable[[dict[str, Any]], bool],
                     equal: dict[str, Any] | None = None) -> int:
        """Delete matching rows, returning the count removed.

        ``equal`` optionally names equality conjuncts already implied by
        the predicate; when an index covers them, only the candidate
        rows are tested instead of the whole relation.
        """
        doomed = self._candidate_rids(predicate, equal)
        if not doomed:
            return 0
        kept_rows, kept_rids = [], []
        for rid, row in zip(self._rids, self._rows):
            if rid not in doomed:
                kept_rows.append(row)
                kept_rids.append(rid)
        removed = {rid: self._row_by_rid.pop(rid) for rid in doomed}
        log = self._undo.entries
        if log is not None:
            # The old lists are replaced, never mutated, so they are
            # the undo's copy of the row order.
            log.append((self._unremove, self._rows, self._rids, removed))
        self._rows = kept_rows
        self._rids = kept_rids
        self._pos_by_rid = None
        for rid, row in removed.items():
            self._index_remove(rid, row)
            self.metrics.records_deleted += 1
        return len(doomed)

    def update_where(self, predicate: Callable[[dict[str, Any]], bool],
                     updates: dict[str, Any],
                     equal: dict[str, Any] | None = None) -> int:
        """Update matching rows in place, returning the count changed."""
        unknown = set(updates) - set(self.columns)
        if unknown:
            raise QueryError(
                f"relation {self.name}: unknown columns {sorted(unknown)}"
            )
        touched = [
            key_columns for key_columns in self._indexes
            if any(column in updates for column in key_columns)
        ]
        changed = self._candidate_rids(predicate, equal)
        log = self._undo.entries
        for rid in changed:
            row = self._row_by_rid[rid]
            for key_columns in touched:
                self._indexes[key_columns].remove(
                    tuple(row[c] for c in key_columns), rid)
            if log is not None:
                log.append((self._unupdate, rid,
                            {column: row[column] for column in updates}))
            row.update(updates)
            for key_columns in touched:
                self._indexes[key_columns].insert(
                    tuple(row[c] for c in key_columns), rid)
            self.metrics.records_written += 1
        return len(changed)

    def _candidate_rids(self, predicate: Callable[[dict[str, Any]], bool],
                        equal: dict[str, Any] | None) -> set[int]:
        """Rids of rows satisfying the predicate, via the narrowest
        available equality index else a counted full scan."""
        index_key = self._best_index(equal or {})
        if index_key is not None:
            self.metrics.index_hits += 1
            rids = self._indexes[index_key].lookup(
                tuple(equal[c] for c in index_key)
            )
            matched = set()
            for rid in rids:
                self.metrics.records_read += 1
                if predicate(self._row_by_rid[rid]):
                    matched.add(rid)
            return matched
        if equal:
            self.metrics.full_scans += 1
        matched = set()
        for rid, row in zip(self._rids, self._rows):
            self.metrics.records_read += 1
            if predicate(row):
                matched.add(rid)
        return matched

    def column_values(self, column: str) -> list[Any]:
        """The values of one column, in row order."""
        if column not in self.columns:
            raise QueryError(
                f"relation {self.name}: no column {column}"
            )
        return [row[column] for row in self._rows]

    # -- undo (entries of the database's log) --------------------------

    def _unappend(self, count: int) -> None:
        """Undo the newest ``count`` appended rows."""
        keep = len(self._rows) - count
        for rid in self._rids[keep:]:
            del self._row_by_rid[rid]
        del self._rows[keep:]
        del self._rids[keep:]
        self._next_rid -= count

    def _unremove(self, rows: list[dict[str, Any]], rids: list[int],
                  removed: dict[int, dict[str, Any]]) -> None:
        self._rows = rows
        self._rids = rids
        self._row_by_rid.update(removed)

    def _unupdate(self, rid: int, old_values: dict[str, Any]) -> None:
        self._row_by_rid[rid].update(old_values)

    def _forget_positions(self) -> None:
        """After a rollback: row positions may have moved back."""
        self._pos_by_rid = None

    def state_fingerprint_data(self) -> tuple:
        return (
            self.name,
            tuple(self.columns),
            self._next_rid,
            tuple(
                (rid, tuple(row.items()))
                for rid, row in zip(self._rids, self._rows)
            ),
        )

    def derived(self, name: str, columns: Iterable[str]) -> "Relation":
        """An empty relation sharing this one's metrics (for algebra
        results, so intermediate materialization is measured)."""
        return Relation(name, columns, metrics=self.metrics,
                        use_indexes=self.use_indexes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Relation {self.name}({', '.join(self.columns)}) {len(self)} rows>"
