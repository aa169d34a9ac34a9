"""Model-neutral data snapshots and data translation.

A :class:`DataSnapshot` captures a database instance independent of the
data model: rows per record type (identified by a per-type position)
plus the set connections.  Restructuring operators transform snapshots;
loaders materialize them into any of the three engines.  This is the
reproduction's analogue of the data-translation systems the paper
builds on (EXPRESS and the Michigan translator, references 4 and 5).

Identity convention: a row is identified by ``(record_name, index)``
with index the 0-based position in the snapshot's row list.  Links are
``(owner_id | None, member_id)`` -- None for SYSTEM-owned sets.

Performance model: ``owner_of``/``members_of`` answer from lazily-built
per-set adjacency indexes (one O(links) build, then O(1) probes),
counted in :attr:`DataSnapshot.stats` so tests can assert access-path
complexity rather than wall-clock.  Replacing or removing a set's link
list through ``snapshot.links`` invalidates that set's indexes
automatically; code that mutates a link *list* in place must call
:meth:`DataSnapshot.invalidate_indexes`.  Operators derive snapshots
with :meth:`DataSnapshot.share` (structural sharing) and only pay to
copy the record types they actually mutate via
:meth:`DataSnapshot.rows_for_write`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.engine.metrics import Metrics
from repro.errors import RestructureError
from repro.observe.registry import get_registry
from repro.observe.tracing import span
from repro.hierarchical.database import HierarchicalDatabase
from repro.network.database import NetworkDatabase
from repro.network.sets import SYSTEM_OWNER_RID
from repro.relational.database import RelationalDatabase, fk_columns
from repro.schema.model import Schema

RowId = tuple[str, int]

LinkPair = tuple["RowId | None", RowId]


@dataclass
class SnapshotStats:
    """Access-path counters for one snapshot's link lookups.

    ``index_probes`` counts O(1) adjacency-index hits, ``link_scans``
    counts full linear scans of a link list (the pre-index path, kept
    for benchmarking via ``use_indexes=False``), ``index_builds``
    counts O(links) index constructions.
    """

    index_probes: int = 0
    link_scans: int = 0
    index_builds: int = 0

    def __post_init__(self) -> None:
        get_registry().register(self)

    def metrics_items(self) -> Iterable[tuple[str, int]]:
        """Yield ``(snapshot.<counter>, value)`` registry pairs."""
        yield "snapshot.index_probes", self.index_probes
        yield "snapshot.link_scans", self.link_scans
        yield "snapshot.index_builds", self.index_builds

    def snapshot(self) -> dict[str, int]:
        return {
            "index_probes": self.index_probes,
            "link_scans": self.link_scans,
            "index_builds": self.index_builds,
        }


class _LinkMap(dict):
    """``links`` mapping that invalidates adjacency indexes on change.

    Only entry-level mutation is observable (assignment, pop, del,
    update, clear); in-place mutation of a link *list* must be followed
    by :meth:`DataSnapshot.invalidate_indexes`.
    """

    def __init__(self, owner: "DataSnapshot", data=()):
        super().__init__(data)
        self._owner = owner

    def __setitem__(self, set_name, pairs):
        super().__setitem__(set_name, pairs)
        self._owner._on_links_changed(set_name)

    def __delitem__(self, set_name):
        super().__delitem__(set_name)
        self._owner._on_links_changed(set_name)

    def pop(self, set_name, *default):
        had = set_name in self
        value = super().pop(set_name, *default)
        if had:
            self._owner._on_links_changed(set_name)
        return value

    def setdefault(self, set_name, default=None):
        if set_name not in self:
            self[set_name] = default
        return super().__getitem__(set_name)

    def update(self, *args, **kwargs):
        incoming = dict(*args, **kwargs)
        for set_name, pairs in incoming.items():
            self[set_name] = pairs

    def clear(self):
        names = list(self)
        super().clear()
        for set_name in names:
            self._owner._on_links_changed(set_name)


@dataclass
class DataSnapshot:
    """A database instance, detached from any engine.

    ``rows[record]`` holds stored-field dicts; ``links[set]`` holds
    (owner RowId or None, member RowId) pairs in set order.
    """

    rows: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    links: dict[str, list[LinkPair]] = field(default_factory=dict)
    #: When False, owner_of/members_of fall back to the linear scan the
    #: seed used -- kept as the reference the index is measured against.
    use_indexes: bool = field(default=True, compare=False)
    stats: SnapshotStats = field(default_factory=SnapshotStats,
                                 compare=False, repr=False)

    def __post_init__(self) -> None:
        # Per-set adjacency indexes, built lazily and dropped whenever
        # the set's link list is replaced (see _LinkMap).
        self._owner_index: dict[str, dict[RowId, RowId | None]] = {}
        self._members_index: dict[str, dict[RowId | None, list[RowId]]] = {}
        # Record types / sets whose lists are borrowed from another
        # snapshot (structural sharing); they are copied on first write.
        self._borrowed_rows: set[str] = set()
        self._borrowed_links: set[str] = set()
        if not isinstance(self.links, _LinkMap):
            self.links = _LinkMap(self, self.links)

    # -- copying ---------------------------------------------------------

    def copy(self) -> "DataSnapshot":
        """A fully independent deep copy."""
        return DataSnapshot(
            {name: [dict(row) for row in rows]
             for name, rows in self.rows.items()},
            {name: list(pairs) for name, pairs in self.links.items()},
            use_indexes=self.use_indexes,
        )

    def share(self) -> "DataSnapshot":
        """A structurally-shared copy (O(record types + set types)).

        Row lists and link lists are borrowed from this snapshot; the
        derived snapshot copies a record type's rows only when
        :meth:`rows_for_write` / :meth:`links_for_write` is called for
        it, so an operator chain pays per type it touches instead of
        deep-copying the whole instance per operator.
        """
        out = DataSnapshot(dict(self.rows), dict(self.links),
                           use_indexes=self.use_indexes)
        out._borrowed_rows = set(self.rows)
        out._borrowed_links = set(self.links)
        return out

    def rows_for_write(self, record_name: str) -> list[dict[str, Any]]:
        """The row list of a record type, safe to mutate in place."""
        rows = self.rows.get(record_name)
        if rows is None:
            return []
        if record_name in self._borrowed_rows:
            rows = [dict(row) for row in rows]
            self.rows[record_name] = rows
            self._borrowed_rows.discard(record_name)
        return rows

    def links_for_write(self, set_name: str) -> list[LinkPair]:
        """The link list of a set, safe to mutate in place."""
        pairs = self.links.get(set_name)
        if pairs is None:
            return []
        if set_name in self._borrowed_links:
            pairs = list(pairs)
            self.links[set_name] = pairs
        else:
            self.invalidate_indexes(set_name)
        return pairs

    def row_for_write(self, row_id: RowId) -> dict[str, Any]:
        """Like :meth:`row` but guaranteed safe to mutate."""
        record_name, index = row_id
        return self.rows_for_write(record_name)[index]

    def rename_rows_key(self, old: str, new: str) -> None:
        """Move a record type's rows under a new name (borrow-aware)."""
        if old not in self.rows:
            return
        self.rows[new] = self.rows.pop(old)
        if old in self._borrowed_rows:
            self._borrowed_rows.discard(old)
            self._borrowed_rows.add(new)

    def rename_links_key(self, old: str, new: str) -> None:
        """Move a set's links under a new name (borrow-aware)."""
        if old not in self.links:
            return
        borrowed = old in self._borrowed_links
        self.links[new] = self.links.pop(old)
        if borrowed:
            self._borrowed_links.add(new)

    # -- reads -----------------------------------------------------------

    def row(self, row_id: RowId) -> dict[str, Any]:
        record_name, index = row_id
        return self.rows[record_name][index]

    def owner_of(self, set_name: str, member_id: RowId) -> RowId | None:
        if not self.use_indexes:
            self.stats.link_scans += 1
            for owner_id, linked_member in self.links.get(set_name, ()):
                if linked_member == member_id:
                    return owner_id
            return None
        self.stats.index_probes += 1
        return self._owner_map(set_name).get(member_id)

    def members_of(self, set_name: str, owner_id: RowId | None) -> list[RowId]:
        if not self.use_indexes:
            self.stats.link_scans += 1
            return [
                member_id
                for linked_owner, member_id in self.links.get(set_name, ())
                if linked_owner == owner_id
            ]
        self.stats.index_probes += 1
        return list(self._members_map(set_name).get(owner_id, ()))

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self.rows.values())

    # -- adjacency indexes ------------------------------------------------

    def invalidate_indexes(self, set_name: str | None = None) -> None:
        """Drop cached adjacency indexes (all sets when name is None).

        Required after mutating a link *list* in place; replacing the
        list through ``snapshot.links[name] = ...`` (or pop/del)
        invalidates automatically.
        """
        if set_name is None:
            self._owner_index.clear()
            self._members_index.clear()
        else:
            self._owner_index.pop(set_name, None)
            self._members_index.pop(set_name, None)

    def _on_links_changed(self, set_name: str) -> None:
        self.invalidate_indexes(set_name)
        self._borrowed_links.discard(set_name)

    def _owner_map(self, set_name: str) -> dict[RowId, RowId | None]:
        index = self._owner_index.get(set_name)
        if index is None:
            self.stats.index_builds += 1
            index = {}
            for owner_id, member_id in self.links.get(set_name, ()):
                # setdefault preserves first-match semantics should a
                # member appear in several pairs.
                index.setdefault(member_id, owner_id)
            self._owner_index[set_name] = index
        return index

    def _members_map(self, set_name: str) -> dict[RowId | None, list[RowId]]:
        index = self._members_index.get(set_name)
        if index is None:
            self.stats.index_builds += 1
            index = {}
            for owner_id, member_id in self.links.get(set_name, ()):
                index.setdefault(owner_id, []).append(member_id)
            self._members_index[set_name] = index
        return index


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def extract_snapshot(db) -> DataSnapshot:
    """Snapshot any of the three database types."""
    if isinstance(db, NetworkDatabase):
        return _extract_network(db)
    if isinstance(db, RelationalDatabase):
        return _extract_relational(db)
    if isinstance(db, HierarchicalDatabase):
        return _extract_hierarchical(db)
    raise RestructureError(
        f"cannot snapshot database of type {type(db).__name__}"
    )


def _extract_network(db: NetworkDatabase) -> DataSnapshot:
    snapshot = DataSnapshot()
    rid_to_id: dict[tuple[str, int], RowId] = {}
    for record_name in db.schema.records:
        stored = db.schema.record(record_name).stored_field_names()
        rows = []
        for index, record in enumerate(db.store(record_name).all_records()):
            rows.append({name: record.get(name) for name in stored})
            rid_to_id[(record_name, record.rid)] = (record_name, index)
        snapshot.rows[record_name] = rows
    for set_name, set_type in db.schema.sets.items():
        pairs: list[LinkPair] = []
        set_store = db.set_store(set_name)
        owner_rids = ([SYSTEM_OWNER_RID] if set_type.system_owned
                      else set_store.owners())
        for owner_rid in owner_rids:
            owner_id = (None if set_type.system_owned
                        else rid_to_id[(set_type.owner, owner_rid)])
            for member_rid in set_store.members(owner_rid):
                member_id = rid_to_id[(set_type.member, member_rid)]
                pairs.append((owner_id, member_id))
        snapshot.links[set_name] = pairs
    return snapshot


def _extract_relational(db: RelationalDatabase) -> DataSnapshot:
    snapshot = DataSnapshot()
    for record_name in db.schema.records:
        stored = db.schema.record(record_name).stored_field_names()
        snapshot.rows[record_name] = [
            {name: row.get(name) for name in stored}
            for row in db.relation(record_name).rows()
        ]
    for set_name, set_type in db.schema.sets.items():
        pairs: list[LinkPair] = []
        if set_type.system_owned:
            for index in range(len(snapshot.rows[set_type.member])):
                pairs.append((None, (set_type.member, index)))
        else:
            columns = fk_columns(db.schema, set_type)
            owner_rows = db.relation(set_type.owner).rows()
            owner_by_key = {
                tuple(row.get(c) for c in columns): index
                for index, row in enumerate(owner_rows)
            }
            member_rows = db.relation(set_type.member).rows()
            for index, row in enumerate(member_rows):
                key = tuple(row.get(c) for c in columns)
                if any(part is None for part in key):
                    continue
                owner_index = owner_by_key.get(key)
                if owner_index is None:
                    continue
                pairs.append((
                    (set_type.owner, owner_index),
                    (set_type.member, index),
                ))
        snapshot.links[set_name] = pairs
    return snapshot


def _extract_hierarchical(db: HierarchicalDatabase) -> DataSnapshot:
    snapshot = DataSnapshot()
    rid_to_id: dict[tuple[str, int], RowId] = {}
    for record_name in db.schema.records:
        stored = db.schema.record(record_name).stored_field_names()
        rows = []
        for index, record in enumerate(db.store(record_name).all_records()):
            rows.append({name: record.get(name) for name in stored})
            rid_to_id[(record_name, record.rid)] = (record_name, index)
        snapshot.rows[record_name] = rows
    for set_name, set_type in db.schema.sets.items():
        pairs: list[LinkPair] = []
        if set_type.system_owned:
            for rid in db.roots(set_type.member):
                pairs.append((None, rid_to_id[(set_type.member, rid)]))
        else:
            for record in db.store(set_type.owner).all_records():
                for child_rid in db.children(set_type.owner, record.rid,
                                             set_type.member):
                    pairs.append((
                        rid_to_id[(set_type.owner, record.rid)],
                        rid_to_id[(set_type.member, child_rid)],
                    ))
        snapshot.links[set_name] = pairs
    return snapshot


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def load_network(schema: Schema, snapshot: DataSnapshot,
                 metrics: Metrics | None = None) -> NetworkDatabase:
    """Materialize a snapshot as a network database (bulk path)."""
    db = NetworkDatabase(schema, metrics)
    id_to_rid: dict[RowId, int] = {}
    for record_name in schema.records:
        records = db.insert_records(
            record_name, snapshot.rows.get(record_name, [])
        )
        for index, record in enumerate(records):
            id_to_rid[(record_name, index)] = record.rid
    for set_name in schema.sets:
        # Group members per owner so each occurrence is ordered once.
        by_owner: dict[int, list[int]] = {}
        for owner_id, member_id in snapshot.links.get(set_name, []):
            owner_rid = (SYSTEM_OWNER_RID if owner_id is None
                         else id_to_rid[owner_id])
            by_owner.setdefault(owner_rid, []).append(id_to_rid[member_id])
        for owner_rid, member_rids in by_owner.items():
            db.connect_many(set_name, owner_rid, member_rids)
    return db


def load_relational(schema: Schema, snapshot: DataSnapshot,
                    metrics: Metrics | None = None,
                    use_indexes: bool = True) -> RelationalDatabase:
    """Materialize a snapshot as a relational database.

    Foreign-key columns are filled from the snapshot's links (owner
    CALC-key values copied into the member row, Figure 3.1a style).
    Weak-entity owners (composite foreign keys) require the owner's own
    FK columns to be filled first, so rows are completed in ownership
    order (owners before members).  ``use_indexes=False`` builds the
    database with secondary indexes disabled (the linear-scan baseline).
    """
    db = RelationalDatabase(schema, metrics, use_indexes=use_indexes)
    # Complete rows (stored fields + FK columns) per record type.
    complete: dict[str, list[dict[str, Any]]] = {
        name: [dict(row) for row in snapshot.rows.get(name, [])]
        for name in schema.records
    }

    depth_cache: dict[str, int] = {}

    def ownership_depth(record_name: str,
                        seen: frozenset[str] = frozenset()) -> int:
        return _depth(record_name, seen)[0]

    def _depth(record_name: str,
               seen: frozenset[str]) -> tuple[int, bool]:
        # The bool reports whether the value is context-free (no cycle
        # guard fired beneath) and therefore safe to memoize.
        if record_name in seen:
            return 0, False
        cached = depth_cache.get(record_name)
        if cached is not None:
            return cached, True
        depth = 0
        clean = True
        for set_type in schema.sets_with_member(record_name):
            if set_type.system_owned:
                continue
            sub, sub_clean = _depth(set_type.owner, seen | {record_name})
            clean = clean and sub_clean
            depth = max(depth, 1 + sub)
        if clean:
            depth_cache[record_name] = depth
        return depth, clean

    ordered = sorted(schema.records, key=ownership_depth)
    for record_name in ordered:
        for set_type in schema.sets_with_member(record_name):
            if set_type.system_owned:
                continue
            columns = fk_columns(schema, set_type)
            for owner_id, member_id in snapshot.links.get(
                    set_type.name, []):
                if owner_id is None or member_id[0] != record_name:
                    continue
                owner_row = complete[owner_id[0]][owner_id[1]]
                member_row = complete[record_name][member_id[1]]
                for column in columns:
                    member_row.setdefault(column, owner_row.get(column))
    for record_name in schema.records:
        db.insert_many(record_name, complete[record_name],
                       enforce_keys=False)
    return db


def load_hierarchical(schema: Schema, snapshot: DataSnapshot,
                      metrics: Metrics | None = None) -> HierarchicalDatabase:
    """Materialize a snapshot as a hierarchical database.

    Parents must be inserted before children; we insert record types in
    topological (root-first) order, one bulk ISRT per segment type.
    Parent lookups go through the snapshot's owner index: O(1) per row
    after one O(links) build per parent set.
    """
    db = HierarchicalDatabase(schema, metrics)
    id_to_rid: dict[RowId, int] = {}
    parent_sets = {
        set_type.member: set_type
        for set_type in schema.sets.values() if not set_type.system_owned
    }

    def depth(record_name: str) -> int:
        level = 0
        node = record_name
        while node in parent_sets:
            level += 1
            node = parent_sets[node].owner
        return level

    ordered = sorted(schema.records, key=depth)
    for record_name in ordered:
        set_type = parent_sets.get(record_name)
        entries: list[tuple[dict[str, Any], tuple[str, int] | None]] = []
        for index, row in enumerate(snapshot.rows.get(record_name, [])):
            parent: tuple[str, int] | None = None
            if set_type is not None:
                owner_id = snapshot.owner_of(set_type.name,
                                             (record_name, index))
                if owner_id is None:
                    raise RestructureError(
                        f"cannot load {record_name}[{index}] into a "
                        f"hierarchy: no parent link in {set_type.name}"
                    )
                parent = (owner_id[0], id_to_rid[owner_id])
            entries.append((row, parent))
        records = db.insert_segments(record_name, entries)
        for index, record in enumerate(records):
            id_to_rid[(record_name, index)] = record.rid
    return db


_LOADERS = {
    "network": load_network,
    "relational": load_relational,
    "hierarchical": load_hierarchical,
}


def restructure_database(db, operator, target_model: str = "network",
                         metrics: Metrics | None = None):
    """End-to-end data translation: snapshot the source, apply the
    operator's schema and data mappings, load into the target model.

    Returns ``(target_schema, target_db)``.
    """
    try:
        loader = _LOADERS[target_model]
    except KeyError:
        raise RestructureError(
            f"unknown target model {target_model!r}"
        ) from None
    source_schema = db.schema
    target_schema = operator.apply_schema(source_schema)
    with span("restructure.extract", model=type(db).__name__):
        snapshot = extract_snapshot(db)
    with span("restructure.translate"), \
            span(f"operator.{type(operator).__name__}",
                 operator=operator.describe()):
        translated = operator.translate(snapshot, source_schema,
                                        target_schema)
    with span("restructure.load", model=target_model):
        loaded = loader(target_schema, translated, metrics)
    return target_schema, loaded
