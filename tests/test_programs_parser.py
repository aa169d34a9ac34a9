"""Tests for the pseudo-COBOL program text parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.programs import ast
from repro.programs import builder as b
from repro.programs.ast import render_program
from repro.programs.parser import (
    ProgramSyntaxError,
    parse_expression,
    parse_program,
    roundtrips,
)
from repro.workloads.corpus import CorpusSpec, generate_corpus
from repro.workloads.inventory import (
    INVENTORY_PATHOLOGY_KINDS,
    InventorySpec,
    generate_inventory,
)


class TestExpressionParsing:
    @pytest.mark.parametrize("expr", [
        b.c(5),
        b.c("HELLO WORLD"),
        b.c(""),
        b.v("DB-STATUS"),
        b.v("EMP.EMP-NAME"),
        b.eq(b.v("A"), 1),
        b.and_(b.gt(b.v("A"), 1), b.ne(b.v("B"), "x")),
        b.add(b.add(1, 2), b.v("N")),
        ast.Const(True),
        ast.Const(None),
    ])
    def test_round_trip(self, expr):
        assert parse_expression(expr.render()) == expr

    def test_nested_parens(self):
        expr = parse_expression("((A + 1) * (B - 2))")
        assert expr == ast.Bin("*", ast.Bin("+", ast.Var("A"),
                                            ast.Const(1)),
                               ast.Bin("-", ast.Var("B"), ast.Const(2)))

    def test_string_with_comma_and_paren(self):
        expr = parse_expression("'a, (b)'")
        assert expr == ast.Const("a, (b)")

    @pytest.mark.parametrize("bad", ["(A >", "(A ?? B)", "(A > 1) extra"])
    def test_errors(self, bad):
        with pytest.raises(ProgramSyntaxError):
            parse_expression(bad)


class TestStatementParsing:
    def parse_single(self, text: str) -> ast.Stmt:
        program = parse_program(
            f"PROGRAM T (network / S).\n  {text}\n"
        )
        assert len(program.statements) == 1
        return program.statements[0]

    def test_header_fields(self):
        program = parse_program("PROGRAM MY-PROG (relational / SCH-1).\n")
        assert program.name == "MY-PROG"
        assert program.model == "relational"
        assert program.schema_name == "SCH-1"

    def test_bad_header(self):
        with pytest.raises(ProgramSyntaxError):
            parse_program("PROGRAMME X.\n")

    @pytest.mark.parametrize("stmt", [
        b.assign("X", 5),
        b.display("A", b.v("X")),
        b.accept("X"),
        b.accept("X", prompt="WHO?"),
        b.read_file("F", "LINE"),
        b.write_file("OUT", b.v("A"), "literal"),
        ast.BindFirstRow("ROW", "$ROWS-1"),
        b.find_any("EMP", **{"EMP-NAME": "X", "AGE": 3}),
        b.find_any("EMP"),
        b.find_first("EMP", "DIV-EMP"),
        b.find_next("EMP", "DIV-EMP"),
        b.find_next_using("EMP", "DIV-EMP", **{"AGE": 30}),
        b.find_owner("DIV-EMP"),
        b.get("EMP"),
        b.store("EMP", **{"EMP-NAME": "A"}),
        b.modify("EMP", **{"AGE": b.add(b.field("EMP", "AGE"), 1)}),
        b.erase("EMP"),
        b.erase("EMP", all_members=True),
        b.connect("EMP", "DIV-EMP"),
        b.disconnect("EMP", "DIV-EMP"),
        ast.NetReconnect("EMP", "DEPT-EMP", "DEPT-NAME",
                         ast.Const("SALES"), ensure_owner=True),
        b.generic_call(b.v("VERB"), "EMP", **{"AGE": 1}),
        b.generic_call("STORE", "EMP"),
        b.query("SELECT A FROM T WHERE B = ?X", "$R", ["X"]),
        b.query("SELECT A FROM T", "$R"),
        b.rel_insert("EMP", **{"E#": "E1"}),
        b.rel_delete("EMP", **{"E#": "E1", "AGE": 2}),
        b.rel_update("EMP", {"E#": "E1"}, {"AGE": 3}),
        b.gu(b.ssa("COURSE", "CNO", "=", "C1")),
        b.gn(),
        b.gnp(b.ssa("OFFERING")),
        b.isrt("OFFERING", {"S": "F78"}, b.ssa("COURSE", "CNO", "=", "C1")),
        b.isrt("COURSE", {"CNO": "C9"}),
        b.dlet(),
        b.repl(**{"S": "S79"}),
        ast.HierPositionParent(),
    ])
    def test_leaf_round_trip(self, stmt):
        assert self.parse_single(stmt.render() + ".") == stmt

    @pytest.mark.parametrize("text, stmt", [
        ("DISPLAY.", ast.WriteTerminal(())),
        ("GU.", ast.HierGU(())),
        ("GN.", ast.HierGN(())),
        ("GNP.", ast.HierGNP(())),
        ("DLET.", ast.HierDLET()),
    ])
    def test_hand_written_statements_without_operands(self, text, stmt):
        assert self.parse_single(text) == stmt

    def test_if_else_round_trip(self):
        program = b.program("T", "network", "S", [
            b.if_(b.gt(b.v("A"), 1), [b.display("BIG")],
                  [b.display("SMALL")]),
        ])
        assert roundtrips(program)

    def test_nested_compound_round_trip(self):
        program = b.program("T", "network", "S", [
            b.while_(b.lt(b.v("I"), 3), [
                b.if_(b.eq(b.v("I"), 1), [
                    b.for_each_row("R", "$ROWS", [
                        b.display(b.v("R.A")),
                    ]),
                ]),
                b.assign("I", b.add(b.v("I"), 1)),
            ]),
        ])
        assert roundtrips(program)

    def test_procedures_round_trip(self):
        program = b.program("T", "network", "S", [
            b.call("SHOW", "K1", 2),
        ], procedures=[
            b.procedure("SHOW", ("KEY", "N"), [
                b.display(b.v("KEY"), b.v("N")),
            ]),
        ])
        assert roundtrips(program)

    def test_unrecognized_statement(self):
        with pytest.raises(ProgramSyntaxError):
            parse_program("PROGRAM T (network / S).\n  FROBNICATE X.\n")

    def test_missing_period(self):
        with pytest.raises(ProgramSyntaxError):
            parse_program("PROGRAM T (network / S).\n  GET EMP\n")

    def test_unterminated_if(self):
        with pytest.raises(ProgramSyntaxError):
            parse_program(
                "PROGRAM T (network / S).\n  IF (A = 1)\n    GET EMP.\n"
            )

    # Each body follows the header on line 1 and a DISPLAY on line 2;
    # the blank line 3 checks that text lines, not statements, count.
    @pytest.mark.parametrize("body, line, fragment", [
        ("  FROBNICATE X.\n", 4, "unrecognized statement 'FROBNICATE X'"),
        ("  GET EMP\n", 4, "missing period"),
        ("  READ F.\n", 4, "malformed READ"),
        ("  IF (A ?? 1)\n    GET EMP.\n  END-IF\n", 4,
         "expected an operator"),
        ("  PERFORM WHILE (A = 1)\n    IF (B = 1)\n      GET EMP.\n"
         "  END-PERFORM\n", 7, "expected END-IF, got 'END-PERFORM'"),
        ("  PERFORM WHILE (A = 1)\n    GET EMP.\n    (B = 1).\n"
         "  END-PERFORM\n", 6, "unrecognized statement '(B = 1)'"),
    ], ids=["unrecognized", "missing-period", "malformed-read",
            "if-expression", "nested-end-if", "open-paren"])
    def test_errors_name_their_line(self, body, line, fragment):
        text = f"PROGRAM T (network / S).\n  DISPLAY 1.\n\n{body}"
        with pytest.raises(ProgramSyntaxError) as caught:
            parse_program(text)
        assert caught.value.line_no == line
        message = str(caught.value)
        assert message.startswith(f"line {line}: "), message
        assert fragment in message, message


class TestCorpusRoundTrip:
    def test_entire_corpus_round_trips(self):
        corpus = generate_corpus(CorpusSpec(seed=23, size=60,
                                            pathology_rate=0.4))
        for item in corpus:
            assert roundtrips(item.program), item.program.name

    def test_parsed_program_runs_identically(self, company_db):
        from repro.programs.interpreter import run_program
        from repro.workloads import company

        corpus = generate_corpus(CorpusSpec(seed=29, size=10,
                                            pathology_rate=0.0))
        for item in corpus:
            parsed = parse_program(render_program(item.program))
            trace_original = run_program(
                item.program, company.company_db(seed=5),
                consistent=False)
            trace_parsed = run_program(
                parsed, company.company_db(seed=5), consistent=False)
            assert trace_original == trace_parsed


# -- generated programs -------------------------------------------------
#
# Names come from fixed lists: the property is about statement forms,
# not identifier lexing.  Strings are lowercase so they never spell a
# keyword (" TO ", " WHERE ", " UNDER ", ...) the line grammar splits
# on, and carry spaces, commas and parentheses.

VARS = st.sampled_from(["A", "B-1", "X#2", "DB-STATUS", "EMP.AGE", "$ROWS-1"])
IDENTS = st.sampled_from(["EMP", "DIV", "DIV-EMP", "COURSE", "T1", "A#2"])
FIELDS = st.sampled_from(["EMP-NAME", "AGE", "K", "CNO"])
TEXTS = st.text(alphabet="abz09 ,()", max_size=8)
CONSTS = st.one_of(
    st.integers(-10**6, 10**6), TEXTS, st.sampled_from([True, False, None]),
).map(ast.Const)
EXPRS = st.recursive(
    CONSTS | VARS.map(ast.Var),
    lambda inner: st.builds(ast.Bin, st.sampled_from(
        ["AND", "OR", "=", "<>", "<=", ">=", "<", ">", "+", "-", "*"]),
        inner, inner),
    max_leaves=5,
)
EXPR_LISTS = st.lists(EXPRS, max_size=3).map(tuple)
PAIRS = st.lists(st.tuples(FIELDS, EXPRS), max_size=3).map(tuple)
SOME_PAIRS = st.lists(st.tuples(FIELDS, EXPRS), min_size=1, max_size=3).map(
    tuple)
SSAS = st.lists(st.one_of(
    IDENTS.map(ast.SsaSpec),
    st.builds(ast.SsaSpec, IDENTS, FIELDS,
              st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), EXPRS),
), max_size=3).map(tuple)

HOST_LEAVES = [
    st.builds(ast.Assign, VARS, EXPRS),
    st.builds(ast.BindFirstRow, VARS, VARS),
    st.builds(ast.Call, IDENTS, EXPR_LISTS),
    st.builds(ast.ReadTerminal, VARS, st.none() | TEXTS.filter(bool)),
    st.builds(ast.WriteTerminal, EXPR_LISTS),
    st.builds(ast.ReadFile, IDENTS, VARS),
    st.builds(ast.WriteFile, IDENTS, EXPR_LISTS),
]
DML_LEAVES = {
    "network": [
        st.builds(ast.NetFindAny, IDENTS, PAIRS),
        st.builds(ast.NetFindFirst, IDENTS, IDENTS),
        st.builds(ast.NetFindNext, IDENTS, IDENTS),
        st.builds(ast.NetFindNextUsing, IDENTS, IDENTS, SOME_PAIRS),
        st.builds(ast.NetFindOwner, IDENTS),
        st.builds(ast.NetFindCurrent, IDENTS),
        st.builds(ast.NetGet, IDENTS),
        st.builds(ast.NetStore, IDENTS, PAIRS),
        st.builds(ast.NetModify, IDENTS, PAIRS),
        st.builds(ast.NetErase, IDENTS, st.booleans()),
        st.builds(ast.NetConnect, IDENTS, IDENTS),
        st.builds(ast.NetDisconnect, IDENTS, IDENTS),
        st.builds(ast.NetReconnect, IDENTS, IDENTS, FIELDS, EXPRS,
                  st.booleans()),
        st.builds(ast.NetGenericCall, EXPRS, IDENTS, PAIRS),
    ],
    "relational": [
        st.builds(ast.RelQuery,
                  st.sampled_from(["SELECT A FROM T",
                                   "SELECT A, B FROM T WHERE C = ?X"]),
                  VARS, st.lists(IDENTS, max_size=2).map(tuple)),
        st.builds(ast.RelInsert, IDENTS, PAIRS),
        st.builds(ast.RelDelete, IDENTS, SOME_PAIRS),
        st.builds(ast.RelUpdate, IDENTS, SOME_PAIRS, SOME_PAIRS),
    ],
    "hierarchical": [
        st.builds(ast.HierGU, SSAS),
        st.builds(ast.HierGN, SSAS),
        st.builds(ast.HierGNP, SSAS),
        st.builds(ast.HierISRT, IDENTS, PAIRS, SSAS),
        st.builds(ast.HierDLET),
        st.builds(ast.HierREPL, PAIRS),
        st.builds(ast.HierPositionParent),
    ],
}


def nest(draw, statements, depth=0):
    """Wrap random runs of ``statements`` in IF/ELSE, PERFORM WHILE and
    FOR EACH blocks, down to three levels."""
    out, index = [], 0
    while index < len(statements):
        if depth == 3 or not draw(st.booleans()):
            out.append(statements[index])
            index += 1
            continue
        size = draw(st.integers(0, len(statements) - index))
        body = nest(draw, statements[index:index + size], depth + 1)
        index += size
        kind = draw(st.sampled_from(["if", "while", "for"]))
        if kind == "if":
            cut = draw(st.integers(0, len(body)))
            out.append(ast.If(draw(EXPRS), body[:cut], body[cut:]))
        elif kind == "while":
            out.append(ast.While(draw(EXPRS), body))
        else:
            out.append(ast.ForEachRow(draw(VARS), draw(VARS), body))
    return tuple(out)


@st.composite
def programs(draw):
    """A program of one data model holding every leaf statement form
    of that model and of the host language, nested at random and
    spread over the main block and up to two procedures."""
    model = draw(st.sampled_from(sorted(DML_LEAVES)))
    leaves = [draw(form) for form in HOST_LEAVES + DML_LEAVES[model]]
    leaves = draw(st.permutations(leaves))
    cuts = sorted(draw(st.lists(st.integers(0, len(leaves)), max_size=2)))
    parts = [leaves[a:b] for a, b in zip([0, *cuts], [*cuts, len(leaves)])]
    names = draw(st.lists(IDENTS, min_size=len(cuts), max_size=len(cuts),
                          unique=True))
    procedures = tuple(
        ast.Procedure(name, draw(st.lists(VARS, max_size=2).map(tuple)),
                      nest(draw, part))
        for name, part in zip(names, parts[1:])
    )
    return ast.Program(draw(IDENTS), model, draw(IDENTS),
                       nest(draw, parts[0]), procedures)


class TestGeneratedRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(programs())
    def test_generated_programs_round_trip(self, program):
        parsed = parse_program(render_program(program))
        assert parsed == program
        # Equality cannot tell Const(True) from Const(1); repr can.
        assert repr(parsed) == repr(program)

    @pytest.mark.parametrize("kind", INVENTORY_PATHOLOGY_KINDS + (
        "report", "lookup", "raise", "fire", "audit", "satellite", "hire",
        "guarded-store"))
    def test_every_inventory_kind_round_trips(self, kind):
        corpus = generate_inventory(InventorySpec(seed=11, programs=400,
                                                  pathology_rate=0.5))
        item = next(item for item in corpus if item.kind == kind)
        assert parse_program(render_program(item.program)) == item.program

    def test_store_only_loader_round_trips(self):
        stores = [
            b.store("DIV", **{"DIV-NAME": f"D{d:03d}", "DIV-LOC": "NEW YORK"})
            for d in range(3)
        ] + [
            b.store("ASSET-01", **{"ASSET-01-TAG": "T(1), x",
                                   "ASSET-01-COST": -cost,
                                   "DIV-NAME": "D000"})
            for cost in (0, 7, 999_999)
        ]
        loader = b.program("INVENTORY-LOADER", "network", "INVENTORY", stores)
        text = render_program(loader)
        assert text.count("STORE ") == 6
        assert parse_program(text) == loader


def test_hand_written_source_text(company_db):
    """The analyzer path the paper describes: read source text, analyze,
    convert."""
    from repro.core import ConversionSupervisor
    from repro.workloads import company

    source_text = """
PROGRAM HAND-WRITTEN (network / COMPANY-NAME).
  FIND ANY DIV USING DIV-NAME='MACHINERY'.
  FIND FIRST EMP WITHIN DIV-EMP.
  PERFORM WHILE (DB-STATUS = '0000')
    GET EMP.
    IF (EMP.AGE > 45)
      DISPLAY EMP.EMP-NAME.
    END-IF
    FIND NEXT EMP WITHIN DIV-EMP.
  END-PERFORM
  DISPLAY 'DONE'.
"""
    program = parse_program(source_text)
    supervisor = ConversionSupervisor(company.figure_42_schema(),
                                      company.figure_44_operator())
    report = supervisor.convert_program(program)
    assert report.target_program is not None
