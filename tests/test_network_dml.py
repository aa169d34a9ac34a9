"""Unit tests for the CODASYL DML session."""

import pytest

from repro.errors import CurrencyError, ExistenceViolation, MandatoryViolation
from repro.network import (
    DMLSession,
    NetworkDatabase,
    STATUS_END_OF_SET,
    STATUS_NO_CURRENCY,
    STATUS_NOT_FOUND,
    STATUS_OK,
)
from repro.schema import Insertion, Retention, Schema
from repro.workloads import company


@pytest.fixture
def session(small_db):
    return DMLSession(small_db)


class TestFindAny:
    def test_by_calc_key(self, session):
        record = session.find_any("OWNER", **{"KEY": "K1"})
        assert record["NAME"] == "OWNER-K1"
        assert session.status == STATUS_OK

    def test_miss_sets_status(self, session):
        assert session.find_any("OWNER", **{"KEY": "NOPE"}) is None
        assert session.status == STATUS_NOT_FOUND

    def test_by_non_calc_field_scans(self, session):
        record = session.find_any("OWNER", **{"NAME": "OWNER-K2"})
        assert record["KEY"] == "K2"

    def test_uses_uwa_values(self, session):
        session.move("K2", "OWNER", "KEY")
        record = session.find_any("OWNER")
        assert record["KEY"] == "K2"

    def test_calc_with_extra_filter(self, session):
        assert session.find_any("OWNER", **{"KEY": "K1",
                                            "NAME": "WRONG"}) is None
        assert session.status == STATUS_NOT_FOUND


class TestSetNavigation:
    def test_scan_in_sorted_order(self, session):
        session.find_any("OWNER", **{"KEY": "K1"})
        labels = []
        record = session.find_first("ITEM", "OWNS")
        while record is not None:
            labels.append(record["LABEL"])
            record = session.find_next("ITEM", "OWNS")
        assert labels == ["K1-1", "K1-2", "K1-3"]
        assert session.status == STATUS_END_OF_SET

    def test_find_next_from_owner_means_first(self, session):
        session.find_any("OWNER", **{"KEY": "K2"})
        record = session.find_next("ITEM", "OWNS")
        assert record["LABEL"] == "K2-1"

    def test_find_prior_and_last(self, session):
        session.find_any("OWNER", **{"KEY": "K1"})
        last = session.find_last("ITEM", "OWNS")
        assert last["LABEL"] == "K1-3"
        prior = session.find_prior("ITEM", "OWNS")
        assert prior["LABEL"] == "K1-2"

    def test_find_owner(self, session):
        session.find_any("OWNER", **{"KEY": "K2"})
        session.find_first("ITEM", "OWNS")
        owner = session.find_owner("OWNS")
        assert owner["KEY"] == "K2"

    def test_owner_of_system_set_not_found(self, session):
        session.find_any("OWNER", **{"KEY": "K1"})
        assert session.find_owner("ALL-OWNER") is None
        assert session.status == STATUS_NOT_FOUND

    def test_no_currency_status(self, session):
        assert session.find_first("ITEM", "OWNS") is None
        assert session.status == STATUS_NO_CURRENCY

    def test_find_next_using(self, session):
        session.find_any("OWNER", **{"KEY": "K1"})
        session.move(2, "ITEM", "SEQ")
        record = session.find_next_using("ITEM", "OWNS", "SEQ")
        assert record["LABEL"] == "K1-2"
        assert session.find_next_using("ITEM", "OWNS", "SEQ") is None
        assert session.status == STATUS_END_OF_SET

    def test_find_current_reestablishes(self, session):
        session.find_any("OWNER", **{"KEY": "K1"})
        session.find_first("ITEM", "OWNS")
        record = session.find_current("OWNER")
        assert record["KEY"] == "K1"
        assert session.currency.run_unit.record_name == "OWNER"


class TestNavigationNamesTheMember:
    """FIND FIRST, NEXT, PRIOR and LAST each name the set's member
    record type.  Another record type is refused with the same
    CurrencyError at the same point: once the set's currency is known,
    before any set traversal or record read."""

    @pytest.fixture
    def positioned(self):
        session = DMLSession(company.company_db(seed=1,
                                                employees_per_division=3))
        session.find_any("DIV", **{"DIV-NAME": "MACHINERY"})
        session.find_first("EMP", "DIV-EMP")
        return session

    @pytest.mark.parametrize("verb", ["find_first", "find_next",
                                      "find_prior", "find_last"])
    def test_a_record_type_that_is_not_the_member_is_refused(
            self, positioned, verb):
        metrics = positioned.db.metrics
        before = metrics.snapshot()
        current = positioned.currency.run_unit
        with pytest.raises(CurrencyError,
                           match="^DIV is not the member of set DIV-EMP$"):
            getattr(positioned, verb)("DIV", "DIV-EMP")
        after = metrics.snapshot()
        assert {name: after[name] - before[name] for name in after
                if after[name] != before[name]} == {"dml_calls": 1}
        assert positioned.currency.run_unit == current

    def test_a_valid_scan_keeps_its_trace_and_counts(self):
        """Forwards with GET, then backwards: the counts were pinned
        before NEXT, PRIOR and LAST checked the record type."""
        db = company.company_db(seed=1, employees_per_division=3)
        session = DMLSession(db)
        before = db.metrics.snapshot()
        session.find_any("DIV", **{"DIV-NAME": "MACHINERY"})
        forwards = []
        record = session.find_first("EMP", "DIV-EMP")
        while record is not None:
            forwards.append(session.get()["EMP-NAME"])
            record = session.find_next("EMP", "DIV-EMP")
        backwards = []
        record = session.find_last("EMP", "DIV-EMP")
        while record is not None:
            backwards.append(record["EMP-NAME"])
            record = session.find_prior("EMP", "DIV-EMP")
        after = db.metrics.snapshot()
        assert forwards == ["KING-0002", "ROBERTS-0001", "TURNER-0000"]
        assert backwards == forwards[::-1]
        assert session.status == STATUS_END_OF_SET
        assert {name: after[name] - before[name] for name in after
                if after[name] != before[name]} == {
            "records_read": 13, "index_probes": 1, "set_traversals": 11,
            "dml_calls": 12,
        }


class TestGetStoreModifyErase:
    def test_get_reads_current(self, session):
        session.find_any("OWNER", **{"KEY": "K1"})
        values = session.get()
        assert values["NAME"] == "OWNER-K1"

    def test_get_without_currency(self, small_db):
        session = DMLSession(small_db)
        assert session.get() is None
        assert session.status == STATUS_NO_CURRENCY

    def test_store_connects_via_currency(self, session):
        session.find_any("OWNER", **{"KEY": "K1"})
        record = session.store("ITEM", {"SEQ": 9, "LABEL": "NEW"})
        owner = session.db.owner_record("OWNS", record.rid)
        assert owner["KEY"] == "K1"

    def test_store_from_uwa(self, session):
        session.find_any("OWNER", **{"KEY": "K1"})
        session.move(8, "ITEM", "SEQ")
        session.move("UWA", "ITEM", "LABEL")
        record = session.store("ITEM")
        assert record["LABEL"] == "UWA"

    def test_modify_repositions_in_sorted_set(self, session):
        session.find_any("OWNER", **{"KEY": "K1"})
        record = session.find_first("ITEM", "OWNS")
        assert record["SEQ"] == 1
        session.modify({"SEQ": 99})
        session.find_any("OWNER", **{"KEY": "K1"})
        last = session.find_last("ITEM", "OWNS")
        assert last["SEQ"] == 99

    def test_erase_disconnects_and_deletes(self, session):
        session.find_any("OWNER", **{"KEY": "K1"})
        session.find_first("ITEM", "OWNS")
        session.erase()
        assert session.status == STATUS_OK
        session.find_any("OWNER", **{"KEY": "K1"})
        assert session.db.set_store("OWNS").members(
            session.currency.run_unit.rid
        ).__len__() == 2

    def test_erase_owner_with_optional_members_disconnects(self, session):
        session.find_any("OWNER", **{"KEY": "K1"})
        session.erase()
        assert session.status == STATUS_OK
        # items survive, unconnected
        assert session.db.count("ITEM") == 6

    def test_erase_all_members_cascades(self, session):
        session.find_any("OWNER", **{"KEY": "K1"})
        session.erase(all_members=True)
        assert session.db.count("ITEM") == 3

    def test_connect_disconnect(self, session):
        session.find_any("OWNER", **{"KEY": "K1"})
        item = session.find_first("ITEM", "OWNS")
        session.disconnect("OWNS")
        assert session.db.set_store("OWNS").owner(item.rid) is None
        # reconnect to K2's occurrence
        session.find_any("OWNER", **{"KEY": "K2"})
        session.find_current("ITEM")
        session.connect("OWNS")
        assert session.db.owner_record("OWNS", item.rid)["KEY"] == "K2"


class TestMandatoryMembership:
    @pytest.fixture
    def strict_db(self):
        schema = Schema("STRICT")
        schema.define_record("P", {"K": "X(2)"}, calc_keys=["K"])
        schema.define_record("C", {"V": "9(2)"})
        schema.define_set("ALL-P", "SYSTEM", "P")
        schema.define_set("PC", "P", "C",
                          insertion=Insertion.AUTOMATIC,
                          retention=Retention.MANDATORY)
        return NetworkDatabase(schema)

    def test_store_without_owner_fails(self, strict_db):
        session = DMLSession(strict_db)
        with pytest.raises(ExistenceViolation):
            session.store("C", {"V": 1})

    def test_store_with_currency_succeeds(self, strict_db):
        session = DMLSession(strict_db)
        session.store("P", {"K": "A"})
        record = session.store("C", {"V": 1})
        assert strict_db.owner_record("PC", record.rid)["K"] == "A"

    def test_erase_owner_with_mandatory_members_refused(self, strict_db):
        session = DMLSession(strict_db)
        session.store("P", {"K": "A"})
        session.store("C", {"V": 1})
        session.find_any("P", **{"K": "A"})
        with pytest.raises(MandatoryViolation):
            session.erase()

    def test_refused_erase_changes_nothing(self):
        """An OPTIONAL set earlier in schema order than the MANDATORY
        one that refuses the erase keeps its member."""
        schema = Schema("TAGGED")
        schema.define_record("O", {"K": "X(2)"})
        schema.define_record("M", {"V": "9(2)"})
        schema.define_set("TAGS", "O", "M")
        schema.define_set("HOLDS", "O", "M", retention=Retention.MANDATORY)
        db = NetworkDatabase(schema)
        owner = db.insert_record("O", {"K": "A"})
        tagged = db.insert_record("M", {"V": 1})
        held = db.insert_record("M", {"V": 2})
        db.connect("TAGS", owner.rid, tagged.rid)
        db.connect("HOLDS", owner.rid, held.rid)
        before = db.state_fingerprint()
        with pytest.raises(MandatoryViolation):
            db.delete_record("O", owner.rid)
        assert db.state_fingerprint() == before
        assert db.set_store("TAGS").members(owner.rid) == [tagged.rid]

    def test_erase_all_members_allows_cascade(self, strict_db):
        session = DMLSession(strict_db)
        session.store("P", {"K": "A"})
        session.store("C", {"V": 1})
        session.find_any("P", **{"K": "A"})
        session.erase(all_members=True)
        assert strict_db.count("C") == 0

    def test_disconnect_mandatory_caught_at_run_unit(self, strict_db):
        session = DMLSession(strict_db)
        session.store("P", {"K": "A"})
        session.store("C", {"V": 1})
        session.disconnect("PC")
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError):
            strict_db.verify_consistent()


class TestVirtualSelection:
    def test_store_routes_by_virtual_value(self, company_db):
        session = DMLSession(company_db)
        record = session.store("EMP", {
            "EMP-NAME": "ROUTED", "DEPT-NAME": "SALES", "AGE": 30,
            "DIV-NAME": "CHEMICAL",
        })
        owner = company_db.owner_record("DIV-EMP", record.rid)
        assert owner["DIV-NAME"] == "CHEMICAL"

    def test_get_resolves_virtual_field(self, company_db):
        session = DMLSession(company_db)
        session.find_any("DIV", **{"DIV-NAME": "MACHINERY"})
        session.find_first("EMP", "DIV-EMP")
        values = session.get()
        assert values["DIV-NAME"] == "MACHINERY"


class TestScopedOwnerSelection:
    """CODASYL SET SELECTION ... THRU OWNER: when the owner key is
    ambiguous by value (the interposed weak entity), currency
    disambiguates."""

    @pytest.fixture
    def two_sales_db(self, company_db):
        from repro.restructure import restructure_database
        from repro.workloads import company

        _ts, target_db = restructure_database(
            company_db, company.figure_44_operator())
        # both divisions have a SALES department
        sales = [r for r in target_db.store("DEPT").all_records()
                 if r["DEPT-NAME"] == "SALES"]
        assert len(sales) == 2
        return target_db

    def test_store_picks_currency_consistent_owner(self, two_sales_db):
        session = DMLSession(two_sales_db)
        session.find_any("DIV", **{"DIV-NAME": "CHEMICAL"})
        record = session.store("EMP", {
            "EMP-NAME": "SCOPED", "DEPT-NAME": "SALES", "AGE": 20,
        })
        dept = two_sales_db.owner_record("DEPT-EMP", record.rid)
        div = two_sales_db.owner_record("DIV-DEPT", dept.rid)
        assert div["DIV-NAME"] == "CHEMICAL"

    def test_other_division_currency_picks_other_group(self,
                                                       two_sales_db):
        session = DMLSession(two_sales_db)
        session.find_any("DIV", **{"DIV-NAME": "MACHINERY"})
        record = session.store("EMP", {
            "EMP-NAME": "SCOPED2", "DEPT-NAME": "SALES", "AGE": 20,
        })
        dept = two_sales_db.owner_record("DEPT-EMP", record.rid)
        div = two_sales_db.owner_record("DIV-DEPT", dept.rid)
        assert div["DIV-NAME"] == "MACHINERY"
