"""Unit tests for set occurrence stores and currency."""

import pytest

from repro.errors import IntegrityError, UniquenessViolation
from repro.network import DMLSession, NetworkDatabase
from repro.network.currency import CurrencyTable
from repro.network.sets import SYSTEM_OWNER_RID
from repro.schema import Schema


@pytest.fixture
def db():
    schema = Schema("T")
    schema.define_record("P", {"K": "X(2)"}, calc_keys=["K"])
    schema.define_record("C", {"V": "9(2)", "L": "X(4)"})
    schema.define_set("ALL-P", "SYSTEM", "P")
    schema.define_set("SORTED", "P", "C", order_keys=["V"],
                      allow_duplicates=False)
    schema.define_set("CHAINED", "P", "C")
    return NetworkDatabase(schema)


def _p(db, key):
    return db.insert_record("P", {"K": key})


def _c(db, v, label="x"):
    return db.insert_record("C", {"V": v, "L": label})


class TestSetStore:
    def test_sorted_insertion(self, db):
        parent = _p(db, "A")
        store = db.set_store("SORTED")
        for value in (5, 1, 3):
            child = _c(db, value)
            store.connect(parent.rid, child.rid)
        values = [db.store("C").peek(rid)["V"]
                  for rid in store.members(parent.rid)]
        assert values == [1, 3, 5]

    def test_chained_keeps_insertion_order(self, db):
        parent = _p(db, "A")
        store = db.set_store("CHAINED")
        rids = []
        for value in (5, 1, 3):
            child = _c(db, value)
            store.connect(parent.rid, child.rid)
            rids.append(child.rid)
        assert store.members(parent.rid) == rids

    def test_duplicate_key_rejected(self, db):
        parent = _p(db, "A")
        store = db.set_store("SORTED")
        store.connect(parent.rid, _c(db, 1).rid)
        with pytest.raises(UniquenessViolation):
            store.connect(parent.rid, _c(db, 1).rid)

    def test_refused_connect_many_leaves_no_empty_occurrence(self, db):
        """The duplicate-key check runs before the occurrence exists, so
        a refused bulk connect changes nothing."""
        _p(db, "A")
        parent = _p(db, "B")
        children = [_c(db, 5).rid, _c(db, 5).rid]
        store = db.set_store("SORTED")
        before = db.state_fingerprint()
        with pytest.raises(UniquenessViolation):
            store.connect_many(parent.rid, children)
        assert store.owners() == []
        assert store.members(parent.rid) == []
        assert db.state_fingerprint() == before

    def test_connect_many_refuses_a_repeated_member(self, db):
        parent = _p(db, "A")
        child = _c(db, 1)
        store = db.set_store("CHAINED")
        with pytest.raises(IntegrityError, match="already connected"):
            store.connect_many(parent.rid, [child.rid, child.rid])
        assert store.owners() == []

    def test_duplicate_keys_ok_in_other_occurrence(self, db):
        store = db.set_store("SORTED")
        store.connect(_p(db, "A").rid, _c(db, 1).rid)
        store.connect(_p(db, "B").rid, _c(db, 1).rid)  # no error

    def test_double_connect_rejected(self, db):
        parent = _p(db, "A")
        child = _c(db, 1)
        store = db.set_store("SORTED")
        store.connect(parent.rid, child.rid)
        with pytest.raises(IntegrityError):
            store.connect(parent.rid, child.rid)

    def test_disconnect_returns_owner(self, db):
        parent = _p(db, "A")
        child = _c(db, 1)
        store = db.set_store("SORTED")
        store.connect(parent.rid, child.rid)
        assert store.disconnect(child.rid) == parent.rid
        assert store.disconnect(child.rid) is None
        assert store.members(parent.rid) == []

    def test_next_and_prior(self, db):
        parent = _p(db, "A")
        store = db.set_store("SORTED")
        children = [_c(db, v) for v in (1, 2, 3)]
        for child in children:
            store.connect(parent.rid, child.rid)
        assert store.next_after(children[0].rid) == children[1].rid
        assert store.next_after(children[2].rid) is None
        assert store.prior_before(children[1].rid) == children[0].rid
        assert store.prior_before(children[0].rid) is None

    def test_a_scan_searches_its_occurrence_at_most_once(self, db):
        """Each step of a forward or backward scan finds its member
        where the previous step left it: O(1), not a search of the
        occurrence (which made a scan O(n**2))."""
        parent = _p(db, "A")
        store = db.set_store("CHAINED")
        children = [_c(db, v).rid for v in range(40)]
        store.connect_many(parent.rid, children)
        occurrence = store._members[parent.rid] = _SearchCounting(
            store._members[parent.rid])
        forwards = [store.first(parent.rid)]
        while (following := store.next_after(forwards[-1])) is not None:
            forwards.append(following)
        backwards = [store.last(parent.rid)]
        while (preceding := store.prior_before(backwards[-1])) is not None:
            backwards.append(preceding)
        assert forwards == children
        assert backwards == children[::-1]
        assert occurrence.searches == 0
        # From a member no scan left it at, navigation searches once.
        assert store.next_after(children[7]) == children[8]
        assert occurrence.searches == 1

    def test_navigation_after_a_rollback_rewrote_the_occurrence(self, db):
        """A rollback rewrites an occurrence in place, so the position
        the last scan step left is stale: navigation must notice."""
        parent = _p(db, "A")
        store = db.set_store("SORTED")
        kept = [_c(db, v).rid for v in (10, 20, 30, 40)]
        store.connect_many(parent.rid, kept)
        savepoint = db.savepoint()
        store.connect_many(parent.rid, [_c(db, v).rid for v in (1, 2)])
        rid = store.first(parent.rid)
        for _ in range(2):
            rid = store.next_after(rid)
        assert rid == kept[0]  # third of six: position 2
        db.rollback(savepoint)
        assert store.members(parent.rid) == kept  # kept[0] at position 0
        assert store.next_after(kept[0]) == kept[1]
        assert store.prior_before(kept[0]) is None
        assert store.disconnect(kept[0]) == parent.rid
        assert store.members(parent.rid) == kept[1:]

    def test_reposition_after_key_change(self, db):
        parent = _p(db, "A")
        store = db.set_store("SORTED")
        children = [_c(db, v) for v in (1, 2, 3)]
        for child in children:
            store.connect(parent.rid, child.rid)
        db.update_record("C", children[0].rid, {"V": 99})
        values = [db.store("C").peek(rid)["V"]
                  for rid in store.members(parent.rid)]
        assert values == [2, 3, 99]

    def test_owners_listing(self, db):
        a, b = _p(db, "A"), _p(db, "B")
        store = db.set_store("SORTED")
        store.connect(a.rid, _c(db, 1).rid)
        assert store.owners() == [a.rid]
        store.connect(b.rid, _c(db, 1).rid)
        assert set(store.owners()) == {a.rid, b.rid}

    def test_system_owner_rid(self, db):
        store = db.set_store("ALL-P")
        parent = _p(db, "A")
        store.connect(SYSTEM_OWNER_RID, parent.rid)
        assert store.members(SYSTEM_OWNER_RID) == [parent.rid]


class _SearchCounting(list):
    """An occurrence list that counts its linear searches."""

    searches = 0

    def index(self, *args):
        self.searches += 1
        return super().index(*args)


class TestCurrency:
    def test_a_database_notes_the_same_sets_as_its_schema(self, db):
        """The DML session passes its database, which looks up the sets
        each record type owns or belongs to instead of searching."""
        for record_name in ("P", "C"):
            by_schema, by_database = CurrencyTable(), CurrencyTable()
            by_schema.note(db.schema, record_name, 3,
                           retain_sets=frozenset({"SORTED"}))
            by_database.note(db, record_name, 3,
                             retain_sets=frozenset({"SORTED"}))
            assert by_database == by_schema
            assert list(by_database.sets) == list(by_schema.sets)
            assert db.sets_of(record_name) == tuple(
                db.schema.sets_of(record_name))

    def test_note_updates_all_indicators(self, db):
        table = CurrencyTable()
        table.note(db.schema, "C", 7)
        assert table.run_unit.rid == 7
        assert table.of_record("C").rid == 7
        assert table.of_set("SORTED").rid == 7
        assert table.of_set("CHAINED").rid == 7
        assert table.of_set("ALL-P") is None  # C not in ALL-P

    def test_retain_sets(self, db):
        table = CurrencyTable()
        table.note(db.schema, "C", 1)
        table.note(db.schema, "C", 2, retain_sets=frozenset({"SORTED"}))
        assert table.of_set("SORTED").rid == 1
        assert table.of_set("CHAINED").rid == 2

    def test_forget_record_clears_pointers(self, db):
        table = CurrencyTable()
        table.note(db.schema, "C", 1)
        table.forget_record("C", 1)
        assert table.run_unit is None
        assert table.of_record("C") is None
        assert table.of_set("SORTED") is None

    def test_clear(self, db):
        table = CurrencyTable()
        table.note(db.schema, "P", 1)
        table.clear()
        assert table.run_unit is None
        assert table.records == {}


class TestCurrencySideEffects:
    def test_find_updates_set_currency_of_participating_sets(self, small_db):
        session = DMLSession(small_db)
        session.find_any("OWNER", **{"KEY": "K1"})
        assert session.currency.of_set("OWNS").record_name == "OWNER"
        session.find_first("ITEM", "OWNS")
        assert session.currency.of_set("OWNS").record_name == "ITEM"

    def test_scanning_one_set_does_not_move_another_systems(self, small_db):
        session = DMLSession(small_db)
        session.find_any("OWNER", **{"KEY": "K1"})
        before = session.currency.of_set("ALL-OWNER")
        session.find_first("ITEM", "OWNS")
        # ITEM does not participate in ALL-OWNER: currency unchanged.
        assert session.currency.of_set("ALL-OWNER") == before
