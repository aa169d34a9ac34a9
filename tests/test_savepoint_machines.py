"""State machines for the engines' savepoint contract.

Each database keeps one undo log (:mod:`repro.engine.savepoint`).  One
rule-based machine per data model interleaves random mutations --
refused ones included -- with nested ``savepoint``, ``rollback`` and
``release``, and checks after every rollback that the database is
exactly what it was when the savepoint was taken:

* ``state_fingerprint()`` equals its value at the savepoint;
* network: the CALC buckets (key order and the order of duplicates),
  every set's ``owners()`` order and every store's scan order come
  back too, and a refused ``connect_many`` changes nothing at all;
* relational: a ``use_indexes=False`` twin takes the same operations,
  and indexed ``lookup_rows``/``lookup_positions`` agree with it;
* hierarchical: ``preorder()`` comes back.

A rollback ends its savepoint and every later one; a release ends them
without undoing anything; an ended token raises
:class:`~repro.errors.SavepointMismatch`; with no savepoint open the
log is off; and a scan in flight across a rollback fails loudly.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import (
    IntegrityError,
    MandatoryViolation,
    RecordNotFound,
    SavepointMismatch,
    SchemaError,
    UniquenessViolation,
)
from repro.hierarchical import HierarchicalDatabase
from repro.network import NetworkDatabase
from repro.network.sets import SYSTEM_OWNER_RID
from repro.relational import RelationalDatabase
from repro.relational.database import index_columns
from repro.schema import Schema
from repro.schema.constraints import UniqueKey
from repro.schema.model import Retention

KEYS = st.sampled_from(["A", "B", "C", "D"])
SMALL = st.integers(0, 5)

MACHINE_SETTINGS = settings(max_examples=150, stateful_step_count=40,
                            deadline=None)


class SavepointMachine(RuleBasedStateMachine):
    """Nested savepoints over ``self.databases``, all taken, rolled
    back and released together; subclasses add the mutations and say
    what :meth:`observe` compares."""

    def __init__(self):
        super().__init__()
        #: (tokens, observation) per open savepoint, oldest first.
        self.open = []
        #: (database, token) pairs a rollback or release has ended.
        self.ended = []

    def observe(self):
        raise NotImplementedError

    def stores(self):
        """Record stores whose in-flight scans a rollback must fail."""
        return []

    @rule()
    def savepoint(self):
        tokens = [db.savepoint() for db in self.databases]
        self.open.append((tokens, self.observe()))

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def rollback(self, data):
        depth = data.draw(st.integers(0, len(self.open) - 1), label="depth")
        tokens, observed = self.open[depth]
        scans = []
        for store in self.stores():
            if len(store) >= 2:
                scan = store.scan()
                next(scan)
                scans.append(scan)
        for db, token in zip(self.databases, tokens):
            db.rollback(token)
        assert self.observe() == observed
        for scan in scans:
            with pytest.raises(RuntimeError):
                next(scan)
        self._end(depth)

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def release(self, data):
        depth = data.draw(st.integers(0, len(self.open) - 1), label="depth")
        before = self.observe()
        for db, token in zip(self.databases, self.open[depth][0]):
            db.release(token)
        assert self.observe() == before
        self._end(depth)

    def _end(self, depth):
        for tokens, _observed in self.open[depth:]:
            self.ended.extend(zip(self.databases, tokens))
        del self.open[depth:]

    @precondition(lambda self: self.ended)
    @rule(data=st.data(), undo=st.booleans())
    def ended_token_refused(self, data, undo):
        db, token = data.draw(st.sampled_from(self.ended), label="ended")
        with pytest.raises(SavepointMismatch):
            if undo:
                db.rollback(token)
            else:
                db.release(token)

    @invariant()
    def logging_only_while_a_savepoint_is_open(self):
        for db in self.databases:
            assert (db._undo.entries is not None) == bool(self.open)


# -- network ------------------------------------------------------------


def network_schema() -> Schema:
    schema = Schema("SAVEPOINTS")
    schema.define_record("OWNER", {"KEY": "X(2)", "NAME": "9(2)"},
                         calc_keys=["KEY"])
    schema.define_record("ITEM", {"SEQ": "9(2)", "TAG": "X(2)"},
                         calc_keys=["TAG"])
    schema.define_set("ALL-OWNER", "SYSTEM", "OWNER", order_keys=["KEY"],
                      allow_duplicates=False)
    # TAGGED (OPTIONAL) comes first, so a refused ERASE of an OWNER
    # has an OPTIONAL occurrence it must not disconnect.
    schema.define_set("TAGGED", "OWNER", "ITEM")
    schema.define_set("HOLDS", "OWNER", "ITEM", order_keys=["SEQ"],
                      retention=Retention.MANDATORY, allow_duplicates=False)
    return schema


def has_owners_and_items(self):
    return len(self.db.store("OWNER")) and len(self.db.store("ITEM"))


def walk(start, step, size):
    """The members a scan visits from ``start`` until ``step`` says
    there is none, or one past ``size`` (a broken step can cycle)."""
    visited = []
    while start is not None and len(visited) <= size:
        visited.append(start)
        start = step(start)
    return visited


class NetworkMachine(SavepointMachine):
    """STORE, MODIFY, CONNECT, DISCONNECT, ERASE and ERASE ALL on a
    two-record CODASYL database with sorted, chained, MANDATORY and
    SYSTEM sets and CALC keys that repeat.

    Set navigation remembers where its last step left off, and a
    rollback rewrites occurrences in place: a scan stopped partway
    (:meth:`scan_partway`) is resumed after whatever the next rule did,
    and must still find its member's true neighbours."""

    #: Where the last partway scan stopped: (set name, member rid,
    #: scanning forwards).
    cursor = None

    @initialize(keys=st.lists(KEYS, min_size=1, max_size=4),
                items=st.lists(st.tuples(SMALL, KEYS), max_size=8))
    def load(self, keys, items):
        """A few owners, each holding and tagging a share of the items,
        then a first savepoint, so mutations start out logged."""
        self.db = NetworkDatabase(network_schema())
        self.databases = [self.db]
        owners = [self.new_owner(key, 0) for key in keys]
        for index, (seq, tag) in enumerate(items):
            item = self.db.insert_record("ITEM", {"SEQ": seq, "TAG": tag})
            for set_name in ("HOLDS", "TAGGED"):
                try:
                    self.db.connect(set_name, owners[index % len(owners)],
                                    item.rid)
                except UniquenessViolation:
                    pass
        self.savepoint()

    def observe(self):
        db = self.db
        calc = {}
        for name in db.schema.records:
            index = db.calc_index(name)
            calc[name] = [(key, index.lookup(key)) for key in index.keys()]
        return (
            db.state_fingerprint(),
            calc,
            {name: db.set_store(name).owners() for name in db.schema.sets},
            {name: [record.rid for record in db.store(name).all_records()]
             for name in db.schema.records},
        )

    def stores(self):
        return [self.db.store(name) for name in self.db.schema.records]

    def rid(self, data, record_name):
        rids = [record.rid
                for record in self.db.store(record_name).all_records()]
        return data.draw(st.sampled_from(rids), label=record_name)

    def new_owner(self, key, name):
        record = self.db.insert_record("OWNER", {"KEY": key, "NAME": name})
        try:
            self.db.connect("ALL-OWNER", SYSTEM_OWNER_RID, record.rid)
        except UniquenessViolation:
            pass  # refused: the SYSTEM set allows no duplicate KEY
        return record.rid

    @rule(key=KEYS, name=SMALL)
    def store_owner(self, key, name):
        self.new_owner(key, name)

    @rule(items=st.lists(st.tuples(SMALL, KEYS), min_size=1, max_size=3))
    def store_items(self, items):
        self.db.insert_records("ITEM", [{"SEQ": seq, "TAG": tag}
                                        for seq, tag in items])

    @precondition(has_owners_and_items)
    @rule(data=st.data(), set_name=st.sampled_from(["HOLDS", "TAGGED"]))
    def connect(self, data, set_name):
        owner, item = self.rid(data, "OWNER"), self.rid(data, "ITEM")
        try:
            self.db.connect(set_name, owner, item)
        except IntegrityError:
            pass  # refused: already connected, or a duplicate set key

    @precondition(has_owners_and_items)
    @rule(data=st.data(), set_name=st.sampled_from(["HOLDS", "TAGGED"]),
          size=st.integers(1, 3))
    def connect_many(self, data, set_name, size):
        owner = self.rid(data, "OWNER")
        items = [self.rid(data, "ITEM") for _ in range(size)]
        before = self.observe()
        try:
            self.db.connect_many(set_name, owner, items)
        except IntegrityError:
            assert self.observe() == before

    @precondition(lambda self: len(self.db.store("ITEM")))
    @rule(data=st.data(), set_name=st.sampled_from(["HOLDS", "TAGGED"]))
    def disconnect(self, data, set_name):
        self.db.disconnect(set_name, self.rid(data, "ITEM"))

    @precondition(lambda self: len(self.db.store("ITEM")))
    @rule(data=st.data(), seq=SMALL, tag=st.none() | KEYS)
    def modify_item(self, data, seq, tag):
        updates = {"SEQ": seq} if tag is None else {"TAG": tag}
        self.db.update_record("ITEM", self.rid(data, "ITEM"), updates)

    @precondition(lambda self: len(self.db.store("OWNER")))
    @rule(data=st.data(), key=KEYS)
    def modify_owner(self, data, key):
        self.db.update_record("OWNER", self.rid(data, "OWNER"),
                              {"KEY": key})

    @rule(data=st.data(),
          set_name=st.sampled_from(["ALL-OWNER", "TAGGED", "HOLDS"]),
          forward=st.booleans())
    def scan_partway(self, data, set_name, forward):
        store = self.db.set_store(set_name)
        owners = store.owners()
        if not owners:
            return
        owner = data.draw(st.sampled_from(owners), label="owner")
        members = store.members(owner)
        steps = data.draw(st.integers(0, len(members) - 1), label="steps")
        if forward:
            rid, step = store.first(owner), store.next_after
        else:
            rid, step = store.last(owner), store.prior_before
            members.reverse()
        for _ in range(steps):
            rid = step(rid)
        assert rid == members[steps]
        self.cursor = (set_name, rid, forward)

    @invariant()
    def navigation_walks_the_members(self):
        """Resumed from the cursor, a scan finds the member's current
        neighbours; and for every set and owner, first -> next_after
        and last -> prior_before walk ``members()`` forwards and
        backwards.  Then the scan is left at the cursor again."""
        db = getattr(self, "db", None)
        if db is None:
            return
        cursor = self.cursor
        if cursor is not None:
            set_name, rid, forward = cursor
            store = db.set_store(set_name)
            owner = store.owner(rid)
            if owner is None:
                self.cursor = cursor = None
            else:
                members = store.members(owner)
                at = members.index(rid)
                following = members[at + 1] if at + 1 < len(members) else None
                preceding = members[at - 1] if at else None
                if forward:
                    assert store.next_after(rid) == following
                else:
                    assert store.prior_before(rid) == preceding
        for set_name in db.schema.sets:
            store = db.set_store(set_name)
            for owner in store.owners():
                members = store.members(owner)
                size = len(members)
                assert walk(store.first(owner), store.next_after,
                            size) == members
                assert walk(store.last(owner), store.prior_before,
                            size) == members[::-1]
        if cursor is not None:
            # Scan to the cursor again, so the next rule meets the
            # position the scan left.
            set_name, rid, forward = cursor
            store = db.set_store(set_name)
            owner = store.owner(rid)
            members = store.members(owner)
            if forward:
                start, step = store.first(owner), store.next_after
            else:
                start, step = store.last(owner), store.prior_before
                members.reverse()
            for _ in range(members.index(rid)):
                start = step(start)
            assert start == rid

    @rule(data=st.data(), record_name=st.sampled_from(["OWNER", "ITEM"]),
          all_members=st.booleans())
    def erase(self, data, record_name, all_members):
        if not len(self.db.store(record_name)):
            with pytest.raises(RecordNotFound):
                self.db.delete_record(record_name, 99)
            return
        rid = self.rid(data, record_name)
        before = self.observe()
        try:
            self.db.delete_record(record_name, rid, all_members=all_members)
        except MandatoryViolation:
            # Refused (a non-empty MANDATORY occurrence): no change.
            assert self.observe() == before


NetworkMachine.TestCase.settings = MACHINE_SETTINGS
TestNetworkSavepoints = NetworkMachine.TestCase


# -- relational ---------------------------------------------------------


def relational_schema() -> Schema:
    schema = Schema("SAVEPOINTS-REL")
    schema.define_record("DEPT", {"DNO": "X(2)", "CITY": "9(2)"},
                         calc_keys=["DNO"])
    schema.define_record("EMP", {"ENO": "9(2)", "AGE": "9(2)"},
                         calc_keys=["ENO"])
    schema.define_set("ALL-DEPT", "SYSTEM", "DEPT")
    schema.define_set("STAFF", "DEPT", "EMP")
    schema.add_constraint(UniqueKey("EMP-ENO", "EMP", ("ENO",)))
    return schema


COLUMN_VALUES = {"DNO": KEYS, "CITY": SMALL, "ENO": SMALL, "AGE": SMALL}


def rows_of(relation_name):
    if relation_name == "DEPT":
        return st.fixed_dictionaries({"DNO": KEYS, "CITY": SMALL})
    return st.fixed_dictionaries({"ENO": SMALL, "AGE": SMALL, "DNO": KEYS})


class RelationalMachine(SavepointMachine):
    """INSERT (refused on a duplicate key), DELETE and UPDATE on an
    indexed relational database and its ``use_indexes=False`` twin."""

    @initialize(data=st.data())
    def load(self, data):
        schema = relational_schema()
        self.db = RelationalDatabase(schema)
        self.twin = RelationalDatabase(schema, use_indexes=False)
        self.databases = [self.db, self.twin]
        for name in ("DEPT", "EMP"):
            self.insert_many(data, name, data.draw(st.integers(0, 5)))
        self.savepoint()

    def observe(self):
        return self.db.state_fingerprint(), self.lookups()

    def lookups(self):
        """Every index key's ``lookup_rows`` and ``lookup_positions``."""
        out = []
        for name, relation in self.db.relations.items():
            for key_columns in index_columns(self.db.schema, name):
                for row in relation.rows() + [{}]:
                    equal = {column: row.get(column)
                             for column in key_columns}
                    out.append((name, tuple(equal.items()),
                                relation.lookup_rows(equal),
                                relation.lookup_positions(equal)))
        return out

    def both(self, verb, *args, **kwargs):
        """Apply one operation to both databases; both must refuse it
        alike."""
        outcomes = []
        for db in self.databases:
            try:
                outcomes.append(("ok", getattr(db, verb)(*args, **kwargs)))
            except UniquenessViolation as exc:
                outcomes.append(("refused", str(exc)))
        assert outcomes[0] == outcomes[1]

    @rule(data=st.data(), name=st.sampled_from(["DEPT", "EMP"]))
    def insert(self, data, name):
        self.both("insert", name, data.draw(rows_of(name), label="row"))

    @rule(data=st.data(), name=st.sampled_from(["DEPT", "EMP"]),
          size=st.integers(0, 3))
    def insert_many(self, data, name, size):
        rows = [data.draw(rows_of(name), label="row") for _ in range(size)]
        self.both("insert_many", name, rows)

    @rule(data=st.data(), name=st.sampled_from(["DEPT", "EMP"]),
          keyed=st.booleans())
    def delete(self, data, name, keyed):
        column = "DNO" if name == "DEPT" or keyed else "AGE"
        value = data.draw(COLUMN_VALUES[column], label="value")
        self.both("delete_where", name,
                  lambda row: row[column] == value,
                  equal={column: value} if keyed else None)

    @rule(data=st.data(), name=st.sampled_from(["DEPT", "EMP"]),
          keyed=st.booleans())
    def update(self, data, name, keyed):
        column = "DNO" if name == "DEPT" or keyed else "AGE"
        value = data.draw(COLUMN_VALUES[column], label="value")
        target = data.draw(st.sampled_from(
            ["DNO", "CITY"] if name == "DEPT" else ["ENO", "AGE", "DNO"]),
            label="target")
        updates = {target: data.draw(COLUMN_VALUES[target], label="new")}
        self.both("update_where", name,
                  lambda row: row[column] == value, updates,
                  equal={column: value} if keyed else None)

    @invariant()
    def twin_agrees(self):
        assert self.db.state_fingerprint() == self.twin.state_fingerprint()
        for name, equal, rows, positions in self.lookups():
            wanted = dict(equal)
            scanned = [
                (position, row) for position, row in enumerate(
                    self.twin.relation(name).rows(), start=1)
                if all(row[column] == value
                       for column, value in wanted.items())
            ]
            assert rows == [row for _position, row in positions]
            assert positions == scanned


RelationalMachine.TestCase.settings = MACHINE_SETTINGS
TestRelationalSavepoints = RelationalMachine.TestCase


# -- hierarchical -------------------------------------------------------


def hierarchical_schema() -> Schema:
    schema = Schema("SAVEPOINTS-HIER")
    schema.define_record("ROOT", {"R": "X(2)"})
    schema.define_record("KID", {"V": "9(2)"})
    schema.define_record("LEAF", {"L": "X(2)"})
    schema.define_set("ALL-ROOT", "SYSTEM", "ROOT", order_keys=["R"])
    schema.define_set("KIDS", "ROOT", "KID", order_keys=["V"])
    schema.define_set("LEAVES", "KID", "LEAF")
    return schema


PARENT_OF = {"KID": "ROOT", "LEAF": "KID"}


class HierarchicalMachine(SavepointMachine):
    """ISRT (one and bulk), REPL and DLET on a three-level tree with
    ordered and unordered twins; parents may be missing (refused)."""

    @initialize(data=st.data())
    def load(self, data):
        self.db = HierarchicalDatabase(hierarchical_schema())
        self.databases = [self.db]
        for name in ("ROOT", "KID", "LEAF"):
            self.insert_many(data, name, data.draw(st.integers(1, 4)))
        self.savepoint()

    def observe(self):
        return self.db.state_fingerprint(), list(self.db.preorder())

    def stores(self):
        return [self.db.store(name) for name in self.db.schema.records]

    def parent(self, data, segment_name):
        """A parent of the right type, or a missing one (rid 99)."""
        parent_type = PARENT_OF[segment_name]
        rids = [record.rid for record in
                self.db.store(parent_type).all_records()]
        return parent_type, data.draw(st.sampled_from(rids + [99]),
                                      label="parent")

    def values(self, data, segment_name):
        if segment_name == "ROOT":
            return {"R": data.draw(KEYS, label="R")}
        if segment_name == "KID":
            return {"V": data.draw(SMALL, label="V")}
        return {"L": data.draw(KEYS, label="L")}

    @rule(data=st.data(), name=st.sampled_from(["ROOT", "KID", "LEAF"]))
    def insert(self, data, name):
        parent = None if name == "ROOT" else self.parent(data, name)
        try:
            self.db.insert_segment(name, self.values(data, name), parent)
        except RecordNotFound:
            assert parent[1] == 99

    @rule(data=st.data(), name=st.sampled_from(["ROOT", "KID", "LEAF"]),
          size=st.integers(0, 3))
    def insert_many(self, data, name, size):
        entries = [
            (self.values(data, name),
             None if name == "ROOT" else self.parent(data, name))
            for _ in range(size)
        ]
        before = self.observe()
        try:
            self.db.insert_segments(name, entries)
        except RecordNotFound:
            assert self.observe() == before

    @precondition(lambda self: len(self.db.store("ROOT")))
    @rule(data=st.data())
    def refused_root_with_parent(self, data):
        rid = data.draw(st.sampled_from(
            [record.rid for record in self.db.store("ROOT").all_records()]))
        before = self.observe()
        with pytest.raises(SchemaError):
            self.db.insert_segment("ROOT", {"R": "A"}, ("ROOT", rid))
        assert self.observe() == before

    @rule(data=st.data(), name=st.sampled_from(["ROOT", "KID", "LEAF"]))
    def replace(self, data, name):
        rids = [record.rid for record in self.db.store(name).all_records()]
        if rids:
            self.db.replace_segment(name, data.draw(st.sampled_from(rids)),
                                    self.values(data, name))

    @rule(data=st.data(), name=st.sampled_from(["ROOT", "KID", "LEAF"]))
    def delete(self, data, name):
        rids = [record.rid for record in self.db.store(name).all_records()]
        rid = data.draw(st.sampled_from(rids + [99]), label="rid")
        try:
            self.db.delete_segment(name, rid)
        except RecordNotFound:
            assert rid == 99


HierarchicalMachine.TestCase.settings = MACHINE_SETTINGS
TestHierarchicalSavepoints = HierarchicalMachine.TestCase
