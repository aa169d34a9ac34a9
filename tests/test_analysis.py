"""Unit tests for dataflow, pathology detection, and procedural
constraint detection (Sections 3.2 and 5.3)."""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.analysis import (
    Finding,
    assigned_variables,
    constant_value,
    detect_order_dependence,
    detect_pathologies,
    detect_process_first,
    detect_procedural_constraints,
    detect_status_code_dependence,
    detect_verb_variability,
    input_tainted_variables,
    is_runtime_constant,
)
from repro.analysis.variability import VERB_VARIABILITY_DETAIL
from repro.programs import ast
from repro.programs import builder as b
from repro.schema import CardinalityLimit, ExistenceConstraint
from repro.workloads.corpus import CorpusSpec, generate_corpus
from tests.test_programs_parser import CONSTS, IDENTS, PAIRS, programs


class TestDataflow:
    def test_single_toplevel_literal_is_constant(self):
        program = b.program("T", "network", "S", [
            b.assign("X", 5),
            b.display(b.v("X")),
        ])
        known, value = constant_value(program, "X")
        assert known and value == 5

    def test_reassignment_defeats_constancy(self):
        program = b.program("T", "network", "S", [
            b.assign("X", 5),
            b.assign("X", 6),
        ])
        assert constant_value(program, "X") == (False, None)

    def test_loop_assignment_defeats_constancy(self):
        program = b.program("T", "network", "S", [
            b.while_(b.eq(1, 1), [b.assign("X", 5)]),
        ])
        assert constant_value(program, "X") == (False, None)

    def test_terminal_input_defeats_constancy(self):
        program = b.program("T", "network", "S", [
            b.accept("X"),
        ])
        assert constant_value(program, "X") == (False, None)

    def test_expression_constancy(self):
        program = b.program("T", "network", "S", [
            b.assign("X", 5),
            b.accept("Y"),
        ])
        assert is_runtime_constant(program, b.add(b.v("X"), 1))
        assert not is_runtime_constant(program, b.v("Y"))
        assert is_runtime_constant(program, b.c("STORE"))

    def test_taint_propagates_through_assignment(self):
        program = b.program("T", "network", "S", [
            b.accept("RAW"),
            b.assign("DERIVED", b.add(b.v("RAW"), 1)),
            b.assign("CLEAN", 5),
        ])
        tainted = input_tainted_variables(program)
        assert "RAW" in tainted
        assert "DERIVED" in tainted
        assert "CLEAN" not in tainted


class TestVerbVariability:
    def test_variable_verb_flagged(self):
        program = b.program("T", "network", "S", [
            b.accept("V"),
            b.generic_call(b.v("V"), "EMP"),
        ])
        findings = detect_verb_variability(program)
        assert len(findings) == 1
        assert findings[0].blocking

    def test_constant_verb_clean(self):
        program = b.program("T", "network", "S", [
            b.generic_call("STORE", "EMP"),
        ])
        assert detect_verb_variability(program) == []

    def test_provably_constant_variable_clean(self):
        program = b.program("T", "network", "S", [
            b.assign("V", "STORE"),
            b.generic_call(b.v("V"), "EMP"),
        ])
        assert detect_verb_variability(program) == []


# -- the check as it was defined before its one-frame rewrite ----------


def reference_walk(statements):
    """Pre-order walk through one generator per nesting level."""
    for stmt in statements:
        yield stmt
        for block in ast.children_of(stmt):
            yield from reference_walk(block)


def reference_counts(program):
    """Every variable's binding count, by isinstance dispatch."""
    counts = {}

    def bump(name, times):
        counts[name] = counts.get(name, 0) + times

    def visit(statements, in_loop):
        weight = 2 if in_loop else 1
        for stmt in statements:
            if isinstance(stmt, ast.Assign):
                bump(stmt.var, weight)
            elif isinstance(stmt, (ast.ReadTerminal, ast.ReadFile)):
                bump(stmt.var, weight)
            elif isinstance(stmt, ast.RelQuery):
                bump(stmt.into_var, weight)
            elif isinstance(stmt, ast.NetGet):
                bump(f"{stmt.record}.*", weight)
            elif isinstance(stmt, ast.If):
                visit(stmt.then, in_loop)
                visit(stmt.orelse, in_loop)
            elif isinstance(stmt, ast.While):
                visit(stmt.body, True)
            elif isinstance(stmt, ast.ForEachRow):
                bump(f"{stmt.row_var}.*", 2)
                visit(stmt.body, True)

    visit(program.statements, False)
    for procedure in program.procedures:
        visit(procedure.body, True)
    return counts


def reference_constant(program, expr):
    """Bindings counted again for every variable asked about."""
    if isinstance(expr, ast.Const):
        return True
    if isinstance(expr, ast.Var):
        if reference_counts(program).get(expr.name, 0) != 1:
            return False
        for stmt in program.statements:
            if isinstance(stmt, ast.Assign) and stmt.var == expr.name:
                return isinstance(stmt.expr, ast.Const)
        return False
    if isinstance(expr, ast.Bin):
        return (reference_constant(program, expr.left)
                and reference_constant(program, expr.right))
    return False


def reference_verb_variability(program):
    statements = list(reference_walk(program.statements))
    for procedure in program.procedures:
        statements += reference_walk(procedure.body)
    return [
        Finding("verb-variability", stmt.render(), VERB_VARIABILITY_DETAIL,
                blocking=True)
        for stmt in statements
        if isinstance(stmt, ast.NetGenericCall)
        and not reference_constant(program, stmt.verb)
    ]


@st.composite
def verb_programs(draw, names=("VERB", "A", "B-1")):
    """A generated program given a top-level ``MOVE literal TO name``
    and generic calls whose verb is ``name``: bound nowhere else when
    ``name`` is ``VERB`` (the constant branch), maybe re-bound when it
    is one of the generator's own variables."""
    program = draw(programs())
    name = draw(st.sampled_from(names))
    statements = list(program.statements)
    statements.insert(draw(st.integers(0, len(statements))),
                      ast.Assign(name, draw(CONSTS)))
    for _ in range(draw(st.integers(1, 3))):
        call = ast.NetGenericCall(ast.Var(name), draw(IDENTS), draw(PAIRS))
        statements.insert(draw(st.integers(0, len(statements))), call)
    return replace(program, statements=tuple(statements))


class TestOneFrameVerbCheck:
    """The explicit-stack walk and the once-per-program binding count
    find what the old definition found, in the same order."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(programs(), verb_programs()))
    def test_findings_match_the_old_definition(self, program):
        assert detect_verb_variability(program) == \
            reference_verb_variability(program)
        assert list(ast.walk_program(program)) == list(reference_walk(
            program.statements)) + [
            stmt for procedure in program.procedures
            for stmt in reference_walk(procedure.body)]
        counts = reference_counts(program)
        assert assigned_variables(program, counts) == counts
        assert assigned_variables(program, {"VERB", "A", "Q"}) == {
            name: count for name, count in counts.items()
            if name in ("VERB", "A", "Q")}

    @settings(max_examples=50, deadline=None)
    @given(verb_programs(names=("VERB",)))
    def test_a_lone_literal_binding_is_constant(self, program):
        # No generated variable is named VERB: its one top-level MOVE
        # is its only binding, so none of its calls is flagged.
        findings = detect_verb_variability(program)
        assert not [f for f in findings if "DML(VERB," in f.statement]
        assert findings == reference_verb_variability(program)


class TestOrderDependence:
    def test_output_in_scan_flagged(self):
        program = b.program("T", "network", "S", [
            b.find_any("DIV", **{"DIV-NAME": "X"}),
            *b.scan_set("EMP", "DIV-EMP", [
                b.display(b.field("EMP", "EMP-NAME")),
            ]),
        ])
        findings = detect_order_dependence(program)
        assert findings
        assert "DIV-EMP" in findings[0].detail
        assert not findings[0].blocking

    def test_accumulation_without_output_clean(self):
        program = b.program("T", "network", "S", [
            b.assign("N", 0),
            b.find_any("DIV", **{"DIV-NAME": "X"}),
            *b.scan_set("EMP", "DIV-EMP", [
                b.assign("N", b.add(b.v("N"), 1)),
            ]),
            b.display(b.v("N")),
        ])
        assert detect_order_dependence(program) == []


class TestProcessFirst:
    def test_find_first_without_loop_flagged(self):
        program = b.program("T", "network", "S", [
            b.find_any("DIV", **{"DIV-NAME": "X"}),
            *b.process_first("EMP", "DIV-EMP", [b.display("X")]),
        ])
        findings = detect_process_first(program)
        assert len(findings) == 1

    def test_scan_template_clean(self):
        program = b.program("T", "network", "S", [
            b.find_any("DIV", **{"DIV-NAME": "X"}),
            *b.scan_set("EMP", "DIV-EMP", [b.display("X")]),
        ])
        assert detect_process_first(program) == []


class TestStatusCode:
    def test_specific_code_flagged(self):
        program = b.program("T", "network", "S", [
            b.find_first("EMP", "DIV-EMP"),
            b.if_(ast.status_is("0307"), [b.display("END")]),
        ])
        findings = detect_status_code_dependence(program)
        assert len(findings) == 1
        assert "0307" in findings[0].detail

    def test_ok_code_is_benign(self):
        program = b.program("T", "network", "S", [
            b.find_first("EMP", "DIV-EMP"),
            b.while_(ast.status_ok(), [b.find_next("EMP", "DIV-EMP")]),
        ])
        assert detect_status_code_dependence(program) == []


class TestCorpusGroundTruth:
    def test_detectors_match_labels(self):
        """E6 in miniature: precision/recall on a labelled corpus."""
        corpus = generate_corpus(CorpusSpec(seed=3, size=60,
                                            pathology_rate=0.4))
        for item in corpus:
            findings = detect_pathologies(item.program)
            detected = {f.kind for f in findings}
            assert item.pathologies <= detected, (
                f"{item.program.name}: expected {item.pathologies}, "
                f"got {detected}"
            )

    def test_no_blocking_findings_in_clean_programs(self):
        corpus = generate_corpus(CorpusSpec(seed=5, size=40,
                                            pathology_rate=0.0))
        for item in corpus:
            findings = detect_pathologies(item.program)
            assert not any(f.blocking for f in findings)


class TestProceduralConstraints:
    def test_existence_pattern_detected(self, company_schema):
        program = b.program("T", "network", "COMPANY-NAME", [
            b.find_any("DIV", **{"DIV-NAME": "MACHINERY"}),
            b.if_(ast.status_ok(), [
                b.store("EMP", **{"EMP-NAME": "X", "AGE": 1,
                                  "DEPT-NAME": "SALES"}),
            ]),
        ])
        detections = detect_procedural_constraints(program, company_schema)
        assert any(
            isinstance(d.constraint, ExistenceConstraint)
            and d.constraint.set_name == "DIV-EMP"
            for d in detections
        )

    def test_negated_guard_also_detected(self, company_schema):
        program = b.program("T", "network", "COMPANY-NAME", [
            b.find_any("DIV", **{"DIV-NAME": "MACHINERY"}),
            b.if_(ast.Bin("<>", ast.Var("DB-STATUS"), ast.Const("0000")),
                  [b.display("NO DIV")],
                  [b.store("EMP", **{"EMP-NAME": "X", "AGE": 1,
                                     "DEPT-NAME": "SALES"})]),
        ])
        detections = detect_procedural_constraints(program, company_schema)
        assert detections

    def test_unguarded_store_not_flagged(self, company_schema):
        program = b.program("T", "network", "COMPANY-NAME", [
            b.find_any("DIV", **{"DIV-NAME": "MACHINERY"}),
            b.store("EMP", **{"EMP-NAME": "X", "AGE": 1,
                              "DEPT-NAME": "SALES"}),
        ])
        assert detect_procedural_constraints(program, company_schema) == []

    def test_cardinality_pattern_detected(self, school_db):
        """The paper's twice-per-year rule, enforced procedurally."""
        schema = school_db.schema
        program = b.program("T", "network", "SCHOOL", [
            b.find_any("COURSE", **{"CNO": "C000"}),
            b.assign("COUNT", 0),
            *b.scan_set("OFFERING", "COURSE-OFF", [
                b.assign("COUNT", b.add(b.v("COUNT"), 1)),
            ]),
            b.if_(b.lt(b.v("COUNT"), 2), [
                b.store("OFFERING", **{"SECTION": 9, "ENROLLMENT": 0,
                                       "CNO": "C000", "S": "F75"}),
            ]),
        ])
        detections = detect_procedural_constraints(program, schema)
        limits = [d for d in detections
                  if isinstance(d.constraint, CardinalityLimit)]
        assert len(limits) == 1
        assert limits[0].constraint.set_name == "COURSE-OFF"
        assert limits[0].constraint.limit == 2


class TestRelationalOrderDependence:
    def test_unordered_for_each_with_output_flagged(self):
        program = b.program("T", "relational", "S", [
            b.query("SELECT ENAME FROM EMP", "$R"),
            b.for_each_row("ROW", "$R", [
                b.display(b.v("ROW.ENAME")),
            ]),
        ])
        findings = detect_order_dependence(program)
        assert findings
        assert "unordered query result" in findings[0].detail

    def test_ordered_query_clean(self):
        program = b.program("T", "relational", "S", [
            b.query("SELECT ENAME FROM EMP ORDER BY ENAME", "$R"),
            b.for_each_row("ROW", "$R", [
                b.display(b.v("ROW.ENAME")),
            ]),
        ])
        assert detect_order_dependence(program) == []

    def test_accumulation_clean(self):
        program = b.program("T", "relational", "S", [
            b.query("SELECT AGE FROM EMP", "$R"),
            b.assign("N", 0),
            b.for_each_row("ROW", "$R", [
                b.assign("N", b.add(b.v("N"), 1)),
            ]),
            b.display(b.v("N")),
        ])
        assert detect_order_dependence(program) == []
