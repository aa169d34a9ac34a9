"""Unit tests for the Program Analyzer, templates, access patterns and
access path graphs."""

import pytest

from repro.core import (
    AccessPathGraph,
    ALocate,
    AScan,
    AFirst,
    AToOwner,
    AStore,
    ProgramAnalyzer,
    access_pattern_sequence,
)
from repro.core.abstract import AErase, AModify, render_abstract, walk
from repro.core.access_patterns import render_sequence
from repro.errors import AnalysisError, NoAccessPath
from repro.programs import ast
from repro.programs import builder as b
from repro.workloads import florida


class TestTemplateMatching:
    def analyze(self, schema, statements):
        program = b.program("T", "network", schema.name, statements)
        return ProgramAnalyzer(schema).analyze(program)

    def test_locate_with_get(self, company_schema):
        abstract = self.analyze(company_schema, [
            b.find_any("DIV", **{"DIV-NAME": "X"}),
            b.get("DIV"),
        ])
        assert len(abstract.statements) == 1
        locate = abstract.statements[0]
        assert isinstance(locate, ALocate)
        assert locate.bind
        assert locate.conditions[0].field == "DIV-NAME"

    def test_locate_without_get(self, company_schema):
        abstract = self.analyze(company_schema, [
            b.find_any("DIV", **{"DIV-NAME": "X"}),
        ])
        assert not abstract.statements[0].bind

    def test_scan_template(self, company_schema):
        abstract = self.analyze(company_schema, [
            b.find_any("DIV", **{"DIV-NAME": "X"}),
            *b.scan_set("EMP", "DIV-EMP", [
                b.display(b.field("EMP", "EMP-NAME")),
            ]),
        ])
        scan = abstract.statements[1]
        assert isinstance(scan, AScan)
        assert scan.entity == "EMP"
        assert scan.via == "DIV-EMP"
        assert scan.bind
        assert scan.order_sensitive

    def test_keyed_scan_template(self, company_schema):
        """The paper's template (B): FIND NEXT ... USING."""
        abstract = self.analyze(company_schema, [
            b.find_any("DIV", **{"DIV-NAME": "X"}),
            b.find_next_using("EMP", "DIV-EMP", **{"DEPT-NAME": "SALES"}),
            b.while_(ast.status_ok(), [
                b.get("EMP"),
                b.find_next_using("EMP", "DIV-EMP",
                                  **{"DEPT-NAME": "SALES"}),
            ]),
        ])
        scan = abstract.statements[1]
        assert isinstance(scan, AScan)
        assert scan.keyed
        assert scan.conditions[0].field == "DEPT-NAME"

    def test_process_first_template(self, company_schema):
        abstract = self.analyze(company_schema, [
            b.find_any("DIV", **{"DIV-NAME": "X"}),
            *b.process_first("EMP", "DIV-EMP", [b.display("X")]),
        ])
        assert isinstance(abstract.statements[1], AFirst)

    def test_owner_template(self, florida_db):
        abstract = self.analyze(florida_db.schema, [
            b.find_any("EMP-DEPT"),
            b.find_owner(florida.EMP_ED),
            b.get("EMP"),
        ])
        owner = abstract.statements[1]
        assert isinstance(owner, AToOwner)
        assert owner.entity == "EMP"
        assert owner.bind

    def test_store_modify_erase(self, company_schema):
        abstract = self.analyze(company_schema, [
            b.find_any("DIV", **{"DIV-NAME": "X"}),
            b.store("EMP", **{"EMP-NAME": "A", "AGE": 1,
                              "DEPT-NAME": "S"}),
            b.modify("EMP", **{"AGE": 2}),
            b.erase("EMP"),
        ])
        kinds = [type(s) for s in abstract.statements[1:]]
        assert kinds == [AStore, AModify, AErase]

    def test_free_navigation_rejected(self, company_schema):
        with pytest.raises(AnalysisError):
            self.analyze(company_schema, [
                b.find_next("EMP", "DIV-EMP"),  # no template
            ])

    def test_variable_verb_blocks(self, company_schema):
        with pytest.raises(AnalysisError):
            self.analyze(company_schema, [
                b.accept("V"),
                b.generic_call(b.v("V"), "EMP"),
            ])

    def test_pinned_verb_unblocks(self, company_schema):
        program = b.program("T", "network", "COMPANY-NAME", [
            b.accept("V"),
            b.generic_call(b.v("V"), "EMP", **{"EMP-NAME": "X"}),
        ])
        abstract = ProgramAnalyzer(company_schema).analyze(
            program, pinned_verbs={0: "FIND-ANY"})
        locates = [s for s in abstract.statements
                   if isinstance(s, ALocate)]
        assert locates

    def test_constant_generic_calls_translate(self, company_schema):
        abstract = self.analyze(company_schema, [
            b.find_any("DIV", **{"DIV-NAME": "X"}),
            b.generic_call("STORE", "EMP", **{"EMP-NAME": "A", "AGE": 1,
                                              "DEPT-NAME": "S"}),
            b.generic_call("ERASE", "EMP"),
        ])
        kinds = [type(s) for s in abstract.statements]
        assert AStore in kinds and AErase in kinds

    def test_procedure_with_dml_rejected(self, company_schema):
        procedure = b.procedure("P", (), [b.get("EMP")])
        program = b.program("T", "network", "COMPANY-NAME",
                            [b.call("P")], procedures=[procedure])
        with pytest.raises(AnalysisError):
            ProgramAnalyzer(company_schema).analyze(program)

    def test_notes_carry_warnings(self, company_schema):
        abstract = self.analyze(company_schema, [
            b.find_any("DIV", **{"DIV-NAME": "X"}),
            *b.scan_set("EMP", "DIV-EMP", [
                b.display(b.field("EMP", "EMP-NAME")),
            ]),
        ])
        assert any("order-dependence" in note for note in abstract.notes)

    def test_render_abstract_readable(self, company_schema):
        abstract = self.analyze(company_schema, [
            b.find_any("DIV", **{"DIV-NAME": "X"}),
            *b.scan_set("EMP", "DIV-EMP", [b.display("X")]),
        ])
        text = render_abstract(abstract)
        assert "LOCATE DIV" in text
        assert "SCAN EMP VIA DIV-EMP" in text


class TestRelationalAnalysis:
    def test_query_becomes_aquery(self, florida_db):
        program = b.program("T", "relational", "FLORIDA", [
            b.query("SELECT ENAME FROM EMP", "$R"),
        ])
        abstract = ProgramAnalyzer(florida_db.schema).analyze(program)
        from repro.core.abstract import AQuery

        assert isinstance(abstract.statements[0], AQuery)

    def test_insert_delete_update(self, florida_db):
        program = b.program("T", "relational", "FLORIDA", [
            b.rel_insert("EMP", **{"E#": "E9", "ENAME": "X"}),
            b.rel_update("EMP", {"E#": "E9"}, {"ENAME": "Y"}),
            b.rel_delete("EMP", **{"E#": "E9"}),
        ])
        abstract = ProgramAnalyzer(florida_db.schema).analyze(program)
        kinds = [type(s).__name__ for s in abstract.statements]
        assert kinds == ["AStore", "ALocate", "AModify", "ALocate",
                         "AErase"]


class TestAccessPatterns:
    def test_smith_query_matches_paper(self):
        schema = florida.florida_schema()
        sequence = access_pattern_sequence(
            florida.smith_query_abstract(), schema)
        assert render_sequence(sequence) == (
            "ACCESS DEPT via DEPT\n"
            "ACCESS EMP-DEPT via DEPT\n"
            "ACCESS EMP via EMP-DEPT\n"
            "RETRIEVE"
        )

    def test_conditions_included_on_request(self):
        schema = florida.florida_schema()
        sequence = access_pattern_sequence(
            florida.smith_query_abstract(), schema,
            include_conditions=True)
        assert "MGR = 'SMITH'" in sequence[0].render()

    def test_update_verbs_in_sequence(self, company_schema):
        from repro.core.abstract import AbstractProgram

        program = AbstractProgram("T", "network", "X", (
            ALocate("DIV", (), bind=False),
            AStore("EMP", ()),
            AErase("EMP"),
        ))
        sequence = access_pattern_sequence(program, company_schema)
        verbs = [p.verb for p in sequence]
        assert verbs == ["ACCESS", "STORE", "ERASE"]

    def test_analyzed_program_yields_same_patterns(self, florida_db):
        """Analyzing the concrete Smith program produces the paper's
        sequence too."""
        schema = florida_db.schema
        abstract = ProgramAnalyzer(schema).analyze(
            florida.smith_query_network_program())
        sequence = access_pattern_sequence(abstract, schema)
        rendered = [p.render() for p in sequence]
        assert "ACCESS DEPT via DEPT" in rendered
        assert "ACCESS EMP-DEPT via DEPT" in rendered
        assert "ACCESS EMP via EMP-DEPT" in rendered
        assert "RETRIEVE" in rendered


class TestAccessPathGraph:
    def test_single_path(self, company_schema):
        graph = AccessPathGraph(company_schema)
        paths = graph.paths("DIV", "EMP")
        assert len(paths) == 1
        assert paths[0][0].set_name == "DIV-EMP"
        assert not graph.is_ambiguous("DIV", "EMP")

    def test_two_hop_path(self):
        schema = florida.florida_schema()
        graph = AccessPathGraph(schema)
        path = graph.shortest_path("DEPT", "EMP")
        assert [hop.set_name for hop in path] == \
            [florida.DEPT_ED, florida.EMP_ED]
        assert path[0].direction == "down"
        assert path[1].direction == "up"

    def test_realizations_per_model(self):
        schema = florida.florida_schema()
        graph = AccessPathGraph(schema)
        hop = graph.shortest_path("DEPT", "EMP")[0]
        assert "FIND NEXT" in hop.realization("network", schema)
        assert "join" in hop.realization("relational", schema)
        assert "GNP" in hop.realization("hierarchical", schema)

    def test_ambiguity_detection(self, company_schema):
        schema = company_schema.copy()
        schema.define_set("SECOND-PATH", "DIV", "EMP")
        graph = AccessPathGraph(schema)
        assert graph.is_ambiguous("DIV", "EMP")
        assert len(graph.paths("DIV", "EMP")) == 2

    def test_no_path(self, company_schema):
        schema = company_schema.copy()
        schema.define_record("LONER", {"X": "X(1)"})
        graph = AccessPathGraph(schema)
        assert graph.paths("DIV", "LONER") == []
        with pytest.raises(NoAccessPath,
                           match="no access path between DIV and LONER"):
            graph.shortest_path("DIV", "LONER")

    def test_entry_points(self, company_schema):
        graph = AccessPathGraph(company_schema)
        assert graph.entry_points() == ["DIV", "EMP"]


def test_walk_and_children(company_schema):
    analyzer = ProgramAnalyzer(company_schema)
    abstract = analyzer.analyze(b.program("T", "network", "C", [
        b.find_any("DIV", **{"DIV-NAME": "X"}),
        *b.scan_set("EMP", "DIV-EMP", [
            b.if_(b.gt(b.field("EMP", "AGE"), 10), [b.display("Y")]),
        ]),
    ]))
    kinds = [type(s).__name__ for s in walk(abstract.statements)]
    assert "ALocate" in kinds
    assert "AScan" in kinds
    assert "If" in kinds
