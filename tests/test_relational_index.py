"""Relational secondary indexes: maintenance, lookups, counters, and
the ``use_indexes=False`` escape hatch.

Base relations in a :class:`RelationalDatabase` carry maintained
HashIndexes over primary-key, foreign-key, and unique-key column tuples
(:func:`index_columns`).  These tests drive them through every mutating
verb and check that the indexed and linear paths agree row-for-row
while the ``index_hits``/``full_scans`` counters tell them apart.
"""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.relational import (
    Relation,
    RelationalDatabase,
    evaluate,
    parse_sequel,
    select_eq,
    select_join,
)
from repro.relational.database import index_columns
from repro.workloads import company


def make_relation(use_indexes: bool = True) -> Relation:
    relation = Relation("EMP", ["EMP-NAME", "DEPT-NAME", "AGE"],
                        use_indexes=use_indexes)
    relation.add_index(("EMP-NAME",))
    relation.add_index(("DEPT-NAME",))
    relation.extend([
        {"EMP-NAME": f"E{i}", "DEPT-NAME": ("SALES", "ENG")[i % 2],
         "AGE": 20 + i}
        for i in range(6)
    ])
    return relation


def test_index_columns_covers_keys_and_fks():
    schema = company.figure_42_schema()
    assert ("DIV-NAME",) in index_columns(schema, "DIV")
    # EMP's CALC key, and the DIV-EMP membership foreign key.
    emp = index_columns(schema, "EMP")
    assert ("EMP-NAME",) in emp
    assert ("DIV-NAME",) in emp


def test_add_index_is_idempotent_and_validates():
    relation = make_relation()
    assert relation.add_index(("EMP-NAME",)) is \
        relation.add_index(("EMP-NAME",))
    with pytest.raises(QueryError):
        relation.add_index(("NO-SUCH",))


def test_lookup_rows_counts_hits_and_respects_escape_hatch():
    relation = make_relation()
    before = relation.metrics.index_hits
    rows = relation.lookup_rows({"DEPT-NAME": "SALES"})
    assert [row["EMP-NAME"] for row in rows] == ["E0", "E2", "E4"]
    assert relation.metrics.index_hits == before + 1

    linear = make_relation(use_indexes=False)
    assert linear.lookup_rows({"DEPT-NAME": "SALES"}) is None
    assert linear.metrics.index_hits == 0


def test_lookup_rows_applies_residual_equality():
    relation = make_relation()
    # AGE is not indexed: the widest covering index (DEPT-NAME) is
    # used and the AGE conjunct filters the candidates.
    rows = relation.lookup_rows({"DEPT-NAME": "SALES", "AGE": 22})
    assert [row["EMP-NAME"] for row in rows] == ["E2"]


def test_indexes_follow_every_mutating_verb():
    relation = make_relation()
    relation.append({"EMP-NAME": "E9", "DEPT-NAME": "SALES", "AGE": 33})
    assert [row["EMP-NAME"]
            for row in relation.lookup_rows({"DEPT-NAME": "SALES"})] == \
        ["E0", "E2", "E4", "E9"]

    relation.update_where(lambda row: row["EMP-NAME"] == "E9",
                          {"DEPT-NAME": "ENG"},
                          equal={"EMP-NAME": "E9"})
    assert all(row["EMP-NAME"] != "E9"
               for row in relation.lookup_rows({"DEPT-NAME": "SALES"}))
    assert relation.lookup_rows({"EMP-NAME": "E9"})[0]["DEPT-NAME"] == "ENG"

    removed = relation.remove_where(lambda row: row["DEPT-NAME"] == "ENG",
                                    equal={"DEPT-NAME": "ENG"})
    assert removed == 4
    assert relation.lookup_rows({"EMP-NAME": "E9"}) == []
    assert [row["EMP-NAME"] for row in relation] == ["E0", "E2", "E4"]


def test_lookups_keep_row_order_after_a_row_changes_key():
    """A row updated into a bucket after later rows still comes back
    in row order, as the scan gives it."""
    relation = Relation("EMP", ["ENO", "DNO"])
    relation.add_index(("DNO",))
    relation.extend([{"ENO": 1, "DNO": "A"}, {"ENO": 2, "DNO": "B"}])
    relation.update_where(lambda row: row["ENO"] == 1, {"DNO": "B"})
    scanned = [row["ENO"] for row in relation if row["DNO"] == "B"]
    assert scanned == [1, 2]
    rows = relation.lookup_rows({"DNO": "B"})
    assert [row["ENO"] for row in rows] == scanned
    positions = relation.lookup_positions({"DNO": "B"})
    assert [(pos, row["ENO"]) for pos, row in positions] == [(1, 1), (2, 2)]


def test_full_scan_counter_on_uncovered_equality():
    relation = make_relation()
    before = relation.metrics.full_scans
    relation.remove_where(lambda row: row["AGE"] == 25, equal={"AGE": 25})
    assert relation.metrics.full_scans == before + 1
    assert len(relation) == 5


def test_lookup_positions_track_deletions():
    relation = make_relation()
    positions = relation.lookup_positions({"EMP-NAME": "E5"})
    assert [pos for pos, _row in positions] == [6]
    relation.remove_where(lambda row: row["EMP-NAME"] == "E0",
                          equal={"EMP-NAME": "E0"})
    # E5 shifted up one position; the lazy map was invalidated.
    positions = relation.lookup_positions({"EMP-NAME": "E5"})
    assert [pos for pos, _row in positions] == [5]


def _mirrored_databases():
    schema = company.figure_42_schema()
    indexed = RelationalDatabase(schema, use_indexes=True)
    linear = RelationalDatabase(schema, use_indexes=False)
    for db in (indexed, linear):
        db.insert_many("DIV", [
            {"DIV-NAME": "MACHINERY", "DIV-LOC": "DETROIT"},
            {"DIV-NAME": "CHEMICAL", "DIV-LOC": "HOUSTON"},
        ])
        db.insert_many("EMP", [
            {"EMP-NAME": f"E{i}", "DEPT-NAME": ("SALES", "ENG")[i % 2],
             "AGE": 20 + i,
             "DIV-NAME": ("MACHINERY", "CHEMICAL")[i % 2]}
            for i in range(8)
        ])
    return indexed, linear


def test_database_verbs_agree_with_linear_copy():
    indexed, linear = _mirrored_databases()
    query = parse_sequel(
        "SELECT EMP-NAME, AGE FROM EMP WHERE DIV-NAME = 'MACHINERY' "
        "ORDER BY EMP-NAME")
    assert evaluate(query, indexed).rows() == evaluate(query, linear).rows()
    assert indexed.metrics.index_hits > 0
    assert linear.metrics.index_hits == 0

    for db in (indexed, linear):
        db.update_where("EMP", lambda row: row["EMP-NAME"] == "E3",
                        {"AGE": 60}, equal={"EMP-NAME": "E3"})
        db.delete_where("EMP", lambda row: row["DEPT-NAME"] == "SALES",
                        equal={"DEPT-NAME": "SALES"})
    assert indexed.relation("EMP").rows() == linear.relation("EMP").rows()


def test_select_eq_and_select_join_match_scans():
    indexed, linear = _mirrored_databases()
    for db, expect_hits in ((indexed, True), (linear, False)):
        emp = db.relation("EMP")
        div = db.relation("DIV")
        selected = select_eq(emp, {"DIV-NAME": "MACHINERY"},
                             predicate=lambda row: row["AGE"] >= 22)
        assert [row["EMP-NAME"] for row in selected.rows()] == \
            ["E2", "E4", "E6"]
        joined = select_join(div, emp, [("DIV-NAME", "DIV-NAME")],
                             right_equal={"DEPT-NAME": "SALES"})
        assert sorted(row["EMP-NAME"] for row in joined.rows()) == \
            ["E0", "E2", "E4", "E6"]
        assert (db.metrics.index_hits > 0) == expect_hits
