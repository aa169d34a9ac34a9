"""Engine savepoints: capture, rollback, byte-identity.

The robustness contract (README "Robustness"): a failed run rolled
back to its savepoint leaves the database *byte-identical* to the
pre-call state, asserted here via ``state_fingerprint()`` (a sha256
over the pickled canonical state).
"""

import pytest

from repro.batch import MAX_PROGRAM_RETRIES, convert_one
from repro.engine import RecordStore, fingerprint
from repro.engine.savepoint import check_owner
from repro.errors import SavepointMismatch
from repro.faultinject import WorkerKilled
from repro.hierarchical import DLISession, SSA
from repro.network import DMLSession
from repro.options import ConversionOptions
from repro.restructure import restructure_database
from repro.strategies import FallbackCascade
from repro.workloads import company

from .test_cascade import hire_program


class TestRecordStore:
    def test_rollback_restores_exact_state(self):
        store = RecordStore("EMP")
        store.insert({"NAME": "A"})
        before = fingerprint(store.state_fingerprint_data())
        savepoint = store.savepoint()

        store.insert({"NAME": "B"})
        store.update(1, {"NAME": "A2"})
        store.delete(1)
        store.rollback(savepoint)

        assert fingerprint(store.state_fingerprint_data()) == before

    def test_rollback_restores_rid_counter(self):
        store = RecordStore("EMP")
        store.insert({"NAME": "A"})
        savepoint = store.savepoint()
        store.insert({"NAME": "B"})
        store.rollback(savepoint)
        assert store.insert({"NAME": "C"}).rid == 2

    def test_rollback_invalidates_in_flight_scans(self):
        store = RecordStore("EMP")
        for name in ("A", "B", "C"):
            store.insert({"NAME": name})
        savepoint = store.savepoint()
        scan = store.scan()
        next(scan)
        store.rollback(savepoint)
        with pytest.raises(RuntimeError, match="mutated during scan"):
            next(scan)

    def test_savepoint_rejected_by_other_store(self):
        store, other = RecordStore("EMP"), RecordStore("EMP")
        savepoint = store.savepoint()
        with pytest.raises(SavepointMismatch):
            other.rollback(savepoint)

    def test_check_owner_kind_mismatch(self):
        store = RecordStore("EMP")
        savepoint = store.savepoint()
        with pytest.raises(SavepointMismatch):
            check_owner(savepoint, "relation", store)

    def test_rollback_restores_rid_order(self):
        store = RecordStore("EMP")
        for name in ("A", "B", "C"):
            store.insert({"NAME": name})
        savepoint = store.savepoint()
        store.delete(2)
        store.delete(1)
        store.rollback(savepoint)
        assert [record.rid for record in store.all_records()] == [1, 2, 3]

    def test_rollback_ends_the_savepoint_and_later_ones(self):
        store = RecordStore("EMP")
        outer = store.savepoint()
        inner = store.savepoint()
        store.insert({"NAME": "A"})
        store.rollback(outer)
        assert len(store) == 0
        for token in (outer, inner):
            with pytest.raises(SavepointMismatch, match="has ended"):
                store.rollback(token)
            with pytest.raises(SavepointMismatch, match="has ended"):
                store.release(token)

    def test_release_keeps_changes_and_outer_savepoint(self):
        store = RecordStore("EMP")
        outer = store.savepoint()
        inner = store.savepoint()
        store.insert({"NAME": "A"})
        store.release(inner)
        assert len(store) == 1
        with pytest.raises(SavepointMismatch):
            store.rollback(inner)
        store.rollback(outer)
        assert len(store) == 0

    def test_nothing_is_logged_without_an_open_savepoint(self):
        store = RecordStore("EMP")
        store.insert({"NAME": "A"})
        assert store._undo.entries is None
        savepoint = store.savepoint()
        store.insert({"NAME": "B"})
        assert len(store._undo.entries) == 1
        store.release(savepoint)
        assert store._undo.entries is None


class TestNetworkDatabase:
    def test_rollback_after_dml_is_byte_identical(self, company_db):
        before = company_db.state_fingerprint()
        savepoint = company_db.savepoint()

        session = DMLSession(company_db)
        session.store("DIV", {"DIV-NAME": "NEW-DIV"})
        session.store("EMP", {"EMP-NAME": "ZZ", "DEPT-NAME": "SALES",
                              "AGE": 30, "DIV-NAME": "NEW-DIV"})
        session.find_any("EMP", **{"EMP-NAME": "ZZ"})
        session.modify({"AGE": 31})
        assert company_db.state_fingerprint() != before

        company_db.rollback(savepoint)
        assert company_db.state_fingerprint() == before

    def test_rollback_restores_calc_index(self, company_db):
        savepoint = company_db.savepoint()
        session = DMLSession(company_db)
        session.store("DIV", {"DIV-NAME": "GHOST"})
        company_db.rollback(savepoint)
        session = DMLSession(company_db)
        session.find_any("DIV", **{"DIV-NAME": "GHOST"})
        assert session.status != "0000"
        session.find_any("DIV", **{"DIV-NAME": "MACHINERY"})
        assert session.status == "0000"

    def test_rollback_restores_set_order(self, small_db):
        before = small_db.state_fingerprint()
        savepoint = small_db.savepoint()
        session = DMLSession(small_db)
        session.store("OWNER", {"KEY": "K0", "NAME": "EARLY"})
        session.store("ITEM", {"SEQ": 9, "LABEL": "K0-9"})
        small_db.rollback(savepoint)
        assert small_db.state_fingerprint() == before

    def test_savepoint_excludes_metrics(self, company_db):
        savepoint = company_db.savepoint()
        list(company_db.instances("EMP"))
        reads = company_db.metrics.records_read
        company_db.rollback(savepoint)
        assert company_db.metrics.records_read == reads


    def test_savepoint_copies_nothing(self, company_db):
        savepoint = company_db.savepoint()
        assert company_db._undo.entries == []
        company_db.rollback(savepoint)
        assert company_db._undo.entries is None


class TestConvertOne:
    """The batch's per-program savepoints end on every path, so the
    databases stop logging between programs."""

    @pytest.fixture
    def cascade(self, company_db, interpose_operator):
        _schema, target_db = restructure_database(company_db,
                                                  interpose_operator)
        return FallbackCascade(company_db, target_db, interpose_operator)

    @staticmethod
    def logging(cascade):
        return [db._undo.entries is not None
                for db in (cascade.source_db, cascade.target_db)]

    def test_released_after_a_conversion(self, cascade):
        before = cascade.target_db.state_fingerprint()
        convert_one(cascade, hire_program(), ConversionOptions())
        assert self.logging(cascade) == [False, False]
        assert cascade.target_db.state_fingerprint() == before

    def test_released_when_a_base_exception_escapes(self, cascade,
                                                    monkeypatch):
        def interrupted(program, options=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(cascade, "convert", interrupted)
        with pytest.raises(KeyboardInterrupt):
            convert_one(cascade, hire_program(), ConversionOptions())
        assert self.logging(cascade) == [False, False]

    def test_fresh_savepoints_for_each_killed_attempt(self, cascade,
                                                      monkeypatch):
        before = cascade.source_db.state_fingerprint()
        attempts = []

        def killed(program, options=None):
            attempts.append(program.name)
            cascade.source_db.insert_record("DIV", {"DIV-NAME": "GHOST"})
            raise WorkerKilled("killed")

        monkeypatch.setattr(cascade, "convert", killed)
        report = convert_one(cascade, hire_program(), ConversionOptions())
        assert report.status == "quarantined"
        assert len(attempts) == MAX_PROGRAM_RETRIES
        assert cascade.source_db.state_fingerprint() == before
        assert self.logging(cascade) == [False, False]


class TestHierarchicalDatabase:
    @pytest.fixture
    def hier_db(self, company_db, interpose_operator):
        _schema, db = restructure_database(
            company_db, interpose_operator, target_model="hierarchical")
        return db

    def test_rollback_is_byte_identical(self, hier_db):
        before = hier_db.state_fingerprint()
        savepoint = hier_db.savepoint()

        div = next(hier_db.instances("DIV"))
        hier_db.insert_segment("DEPT", {"DEPT-NAME": "GHOST"},
                               ("DIV", div.rid))
        assert hier_db.state_fingerprint() != before

        hier_db.rollback(savepoint)
        assert hier_db.state_fingerprint() == before

    def test_rollback_resets_preorder_traversal(self, hier_db):
        savepoint = hier_db.savepoint()
        div = next(hier_db.instances("DIV"))
        hier_db.insert_segment("DEPT", {"DEPT-NAME": "ZZZ-LAST"},
                               ("DIV", div.rid))
        names_with_ghost = [
            record.get("DEPT-NAME")
            for record in hier_db.instances("DEPT")
        ]
        hier_db.rollback(savepoint)
        names_after = [
            record.get("DEPT-NAME")
            for record in hier_db.instances("DEPT")
        ]
        assert "ZZZ-LAST" in names_with_ghost
        assert "ZZZ-LAST" not in names_after

    def test_dli_session_still_works_after_rollback(self, hier_db):
        savepoint = hier_db.savepoint()
        div = next(hier_db.instances("DIV"))
        hier_db.delete_segment("DIV", div.rid)
        hier_db.rollback(savepoint)
        session = DLISession(hier_db)
        segment = session.get_unique(SSA("DIV"))
        assert segment is not None


class TestRelationalDatabase:
    @pytest.fixture
    def rel_db(self, company_db, interpose_operator):
        _schema, db = restructure_database(
            company_db, interpose_operator, target_model="relational")
        return db

    def test_rollback_is_byte_identical(self, rel_db):
        before = rel_db.state_fingerprint()
        savepoint = rel_db.savepoint()

        rel_db.insert("EMP", {"EMP-NAME": "GHOST", "AGE": 1,
                              "DEPT-NAME": "SALES",
                              "DIV-NAME": "MACHINERY"},
                      enforce_keys=False)
        rel_db.update_where("EMP", lambda row: True, {"AGE": 99})
        rel_db.delete_where("EMP", lambda row: row["AGE"] == 99)
        assert rel_db.state_fingerprint() != before

        rel_db.rollback(savepoint)
        assert rel_db.state_fingerprint() == before

    def test_rollback_rebuilds_indexes(self, rel_db):
        savepoint = rel_db.savepoint()
        rel_db.insert("DIV", {"DIV-NAME": "GHOST"}, enforce_keys=False)
        rel_db.rollback(savepoint)
        relation = rel_db.relation("DIV")
        assert relation.lookup_rows({"DIV-NAME": "GHOST"}) == []
        hits = relation.lookup_rows({"DIV-NAME": "MACHINERY"})
        assert hits and hits[0]["DIV-NAME"] == "MACHINERY"

    def test_update_in_place_is_captured(self, rel_db):
        """update_where mutates row dicts in place; the savepoint must
        have copied them, not aliased them."""
        before = rel_db.state_fingerprint()
        savepoint = rel_db.savepoint()
        rel_db.update_where("EMP", lambda row: True, {"AGE": 99})
        rel_db.rollback(savepoint)
        assert rel_db.state_fingerprint() == before


class TestFingerprint:
    def test_fingerprint_is_deterministic(self):
        assert fingerprint(("a", 1)) == fingerprint(("a", 1))
        assert fingerprint(("a", 1)) != fingerprint(("a", 2))

    def test_equal_databases_share_fingerprints(self):
        db_a = company.company_db(seed=7)
        db_b = company.company_db(seed=7)
        assert db_a.state_fingerprint() == db_b.state_fingerprint()
