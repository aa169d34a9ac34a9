"""Property-based tests (hypothesis) on core data structures and the
library's key invariants:

* a total order over mixed-type keys;
* PIC type validation totality;
* set-store occurrence invariants under random connect/disconnect;
* snapshot extract/load round-trips;
* Housel inverse round-trips for invertible operators;
* DDL parse/format fixpoint;
* CDML conversion equivalence over random company instances.
"""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

from repro.engine.ordering import orderable
from repro.errors import SchemaError
from repro.network import NetworkDatabase
from repro.restructure import (
    RenameField,
    extract_snapshot,
    load_network,
    restructure_database,
)
from repro.schema import Schema, format_ddl, parse_ddl, parse_pic
from repro.workloads import company

names = st.text(alphabet=string.ascii_uppercase, min_size=1, max_size=6)
small_ints = st.integers(min_value=0, max_value=99)


# ---------------------------------------------------------------------------
# Key ordering
# ---------------------------------------------------------------------------


@given(st.lists(st.one_of(small_ints, names, st.none()), max_size=30))
def test_orderable_total_order_over_mixed_types(values):
    ordered = sorted(values, key=orderable)
    # sorting twice is stable and consistent
    assert sorted(ordered, key=orderable) == ordered


# ---------------------------------------------------------------------------
# PIC types
# ---------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=30),
       st.one_of(st.integers(), st.text(max_size=40), st.none(),
                 st.floats(allow_nan=False), st.booleans()))
def test_pic_alpha_validation_total(width, value):
    """X(n) either returns a string of length <= n or raises SchemaError."""
    field_type = parse_pic(f"X({width})")
    try:
        result = field_type.validate(value)
    except SchemaError:
        return
    assert result is None or (isinstance(result, str)
                              and len(result) <= width)


@given(st.integers(min_value=1, max_value=8),
       st.one_of(st.integers(min_value=-10**9, max_value=10**9),
                 st.text(max_size=12), st.none()))
def test_pic_numeric_validation_total(width, value):
    field_type = parse_pic(f"9({width})")
    try:
        result = field_type.validate(value)
    except SchemaError:
        return
    assert result is None or (isinstance(result, int)
                              and 0 <= result < 10 ** width)


# ---------------------------------------------------------------------------
# Set store invariants
# ---------------------------------------------------------------------------


@st.composite
def connect_script(draw):
    """A random sequence of member values and disconnect choices."""
    values = draw(st.lists(small_ints, min_size=1, max_size=25))
    disconnects = draw(st.lists(
        st.integers(0, len(values) - 1), max_size=10))
    return values, disconnects


@given(connect_script())
@settings(max_examples=50)
def test_set_store_occurrence_invariants(script):
    values, disconnects = script
    schema = Schema("P")
    schema.define_record("O", {"K": "X(2)"}, calc_keys=["K"])
    schema.define_record("M", {"V": "9(2)"})
    schema.define_set("ALL-O", "SYSTEM", "O")
    schema.define_set("S", "O", "M", order_keys=["V"])
    db = NetworkDatabase(schema)
    owner = db.insert_record("O", {"K": "A"})
    store = db.set_store("S")
    rids = []
    for value in values:
        member = db.insert_record("M", {"V": value})
        store.connect(owner.rid, member.rid)
        rids.append(member.rid)
    for index in disconnects:
        store.disconnect(rids[index])
    members = store.members(owner.rid)
    # invariant 1: each connected member's owner is the owner
    for rid in members:
        assert store.owner(rid) == owner.rid
    # invariant 2: disconnected members have no owner
    for index in set(disconnects):
        assert store.owner(rids[index]) is None or rids[index] in members
    # invariant 3: members sorted by order key
    member_values = [db.store("M").peek(rid)["V"] for rid in members]
    assert member_values == sorted(member_values)


# ---------------------------------------------------------------------------
# Snapshot round trip
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_snapshot_round_trip_any_seed(seed):
    db = company.company_db(seed=seed, divisions=2,
                            employees_per_division=6)
    snapshot = extract_snapshot(db)
    clone = load_network(db.schema, snapshot)
    assert extract_snapshot(clone).rows == snapshot.rows
    assert extract_snapshot(clone).links == snapshot.links


# ---------------------------------------------------------------------------
# Operator inverses (Housel)
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_interpose_inverse_is_identity_on_data(seed):
    db = company.company_db(seed=seed, divisions=2,
                            employees_per_division=8)
    operator = company.figure_44_operator()
    _tschema, target_db = restructure_database(db, operator)
    back = operator.inverse(db.schema)
    _bschema, back_db = restructure_database(target_db, back)
    original = sorted(
        tuple(sorted(r.values.items()))
        for r in db.store("EMP").all_records()
    )
    returned = sorted(
        tuple(sorted(r.values.items()))
        for r in back_db.store("EMP").all_records()
    )
    assert original == returned


@given(names, st.integers(min_value=0, max_value=10**5))
@settings(max_examples=20, deadline=None)
def test_rename_field_inverse_identity(new_name, seed):
    schema = company.figure_42_schema()
    if schema.record("EMP").has_field(new_name):
        return
    operator = RenameField("EMP", "AGE", new_name)
    db = company.company_db(seed=seed, divisions=1,
                            employees_per_division=4)
    _tschema, target_db = restructure_database(db, operator)
    inverse = operator.inverse(schema)
    _bschema, back_db = restructure_database(target_db, inverse)
    assert [r.values for r in back_db.store("EMP").all_records()] == \
        [r.values for r in db.store("EMP").all_records()]


# ---------------------------------------------------------------------------
# DDL fixpoint
# ---------------------------------------------------------------------------


def test_ddl_format_parse_fixpoint_on_workloads():
    from repro.workloads import florida, school

    for schema in (company.figure_42_schema(), school.school_schema(),
                   florida.florida_schema()):
        text = format_ddl(schema)
        assert format_ddl(parse_ddl(text)) == text


# ---------------------------------------------------------------------------
# CDML conversion equivalence (the E3 property, any instance)
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=20, max_value=60))
@settings(max_examples=15, deadline=None)
def test_strict_cdml_conversion_equivalent_on_any_instance(seed, age):
    from repro.cdml import CdmlEngine, convert_statement, parse_cdml

    schema = company.figure_42_schema()
    operator = company.figure_44_operator()
    db = company.company_db(seed=seed, divisions=3,
                            employees_per_division=10)
    changes = operator.changes(schema)
    target_schema, target_db = restructure_database(db, operator)
    query = parse_cdml(
        f"FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > {age}))")
    converted = convert_statement(query, changes, schema, target_schema,
                                  strict=True).statement
    source_names = [r["EMP-NAME"] for r in CdmlEngine(db).find(query)]
    target_names = [r["EMP-NAME"]
                    for r in CdmlEngine(target_db).execute(converted)]
    assert source_names == target_names


# ---------------------------------------------------------------------------
# Interpreter determinism and strategy equivalence over seeds
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=59))
@settings(max_examples=20, deadline=None)
def test_interpreter_is_deterministic(seed, program_index):
    from repro.programs.interpreter import ProgramInputs, run_program
    from repro.workloads.corpus import CorpusSpec, generate_corpus

    corpus = generate_corpus(CorpusSpec(seed=97, size=60,
                                        pathology_rate=0.3))
    item = corpus[program_index]
    inputs = ProgramInputs(terminal=list(item.terminal_inputs))
    first = run_program(item.program, company.company_db(seed=seed),
                        inputs.copy(), consistent=False)
    second = run_program(item.program, company.company_db(seed=seed),
                         inputs.copy(), consistent=False)
    assert first == second


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_emulation_equivalent_on_any_instance(seed):
    """Property behind E5.3: for any seeded instance, the emulated run
    of the source program is trace-identical to the source run."""
    from repro.core.analyzer_db import ConversionAnalyzer
    from repro.programs import builder as b
    from repro.programs.interpreter import run_program
    from repro.strategies import EmulationStrategy

    program = b.program("REPORT", "network", "COMPANY-NAME", [
        b.find_any("DIV", **{"DIV-NAME": "MACHINERY"}),
        *b.scan_set("EMP", "DIV-EMP", [
            b.if_(b.gt(b.field("EMP", "AGE"), 40), [
                b.display(b.field("EMP", "EMP-NAME")),
            ]),
        ]),
    ])
    schema = company.figure_42_schema()
    operator = company.figure_44_operator()
    catalog = ConversionAnalyzer().analyze_operator(schema, operator)
    source_trace = run_program(
        program,
        company.company_db(seed=seed, divisions=2,
                           employees_per_division=8),
        consistent=False)
    _ts, target_db = restructure_database(
        company.company_db(seed=seed, divisions=2,
                           employees_per_division=8),
        operator)
    run = EmulationStrategy(target_db, catalog).run(program)
    assert run.trace == source_trace
