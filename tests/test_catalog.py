"""The rules-as-data catalog: loader rejections with positions, the
render/load round-trip, compiled dispatch parity with the legacy rule
classes, template/pass/algebra gating, end-to-end byte-identity of the
builtin catalog against its own rendered round-trip, the shipped
``examples/store-default.rules`` walkthrough, and the service-side
cascade cache keyed on the submission's rules."""

import dataclasses
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import api
from repro.catalog import (
    CHANGE_KINDS,
    NETWORK_TEMPLATES,
    Guard,
    TemplateEntry,
    compile_catalog,
    default_catalog,
    default_rules,
    load_catalog_text,
)
from repro.core import rules as core_rules
from repro.core.abstract import ACond, AScan
from repro.core.code_templates import DEFAULT_ALGEBRA_MAP
from repro.core.report import STATUS_FAILED
from repro.core.templates import emit_scan_network
from repro.errors import CatalogError, UnconvertiblePattern
from repro.options import ConversionOptions
from repro.programs import ast
from repro.programs.interpreter import ProgramInputs
from repro.schema.diff import FieldAdded
from repro.service.jobs import (
    JobManager,
    SubmissionError,
    pool_key,
    validate_submission,
)
from repro.workloads.company import FIGURE_4_3_DDL
from repro.workloads.corpus import CorpusSpec, generate_corpus

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

FIG44_SPEC = ("INTERPOSE DEPT (DEPT-NAME) ON DIV-EMP "
              "AS DIV-DEPT, DEPT-EMP.\n")

GRADE_SPEC = "ADD FIELD EMP.GRADE PIC 9(2) DEFAULT 1.\n"

STORE_PROGRAM = """\
PROGRAM GRADE-STORE (network / COMPANY-NAME).
  FIND ANY DIV USING DIV-NAME='MACHINERY'.
  STORE EMP (EMP-NAME='NEW-HIRE', DEPT-NAME='ADMIN', AGE=30, DIV-NAME='MACHINERY').
  DISPLAY 'STORED'.
"""


def load(text):
    return load_catalog_text(text, path="cat.rules")


# -- loader rejections (position-carrying errors) ---------------------


REJECTIONS = [
    ("no-header",
     "RULE r\n  ON FieldAdded\n  USING noop\nEND\n",
     "catalog must begin with 'CATALOG <name> VERSION <n>'", 1),
    ("bad-version",
     "CATALOG t VERSION 9\n",
     "unsupported catalog version 9 (supported: 1)", 1),
    ("unknown-directive",
     "CATALOG t VERSION 1\nBOGUS thing\n",
     "unknown catalog directive 'BOGUS'", 2),
    ("unknown-kind",
     "CATALOG t VERSION 1\nRULE r\n  ON Bogus\n  USING noop\nEND\n",
     "unknown change kind 'Bogus'", 2),
    ("unknown-primitive",
     "CATALOG t VERSION 1\nRULE r\n  ON FieldAdded\n  USING bogus\nEND\n",
     "unknown primitive 'bogus'", 2),
    ("unknown-rule-key",
     "CATALOG t VERSION 1\nRULE r\n  FROB x\nEND\n",
     "unknown RULE key 'FROB'", 3),
    ("cost-not-integer",
     "CATALOG t VERSION 1\nRULE r\n  ON FieldAdded\n  USING noop\n"
     "  COST cheap\nEND\n",
     "COST must be an integer, got 'cheap'", 5),
    ("only-before-on",
     "CATALOG t VERSION 1\nRULE r\n  ONLY record EMP\nEND\n",
     "ON and USING must precede ONLY", 3),
    ("missing-on-using",
     "CATALOG t VERSION 1\nRULE r\nEND\n",
     "RULE 'r' needs ON and USING", 2),
    ("missing-end",
     "CATALOG t VERSION 1\nRULE r\n  ON FieldAdded\n  USING noop\n",
     "RULE 'r' is missing END", 2),
    ("unquoted-note",
     "CATALOG t VERSION 1\nRULE r\n  ON FieldAdded\n  USING note\n"
     "  NOTE bare words\nEND\n",
     "expected a quoted string", 5),
    ("second-refuse",
     "CATALOG t VERSION 1\nRULE r\n  ON FieldRemoved\n"
     "  USING refuse-on-field-use\n  REFUSE \"a\"\n  REFUSE \"b\"\nEND\n",
     "only one REFUSE template is allowed", 6),
    ("template-count",
     "CATALOG t VERSION 1\nRULE r\n  ON FieldAdded\n  USING noop\n"
     "  NOTE \"spurious\"\nEND\n",
     "primitive 'noop' takes exactly 0 NOTE template(s), got 1", 2),
    ("kind-pinned-primitive",
     "CATALOG t VERSION 1\nRULE r\n  ON FieldAdded\n"
     "  USING rename-record\nEND\n",
     "primitive 'rename-record' does not apply to FieldAdded", 2),
    ("missing-change-field",
     "CATALOG t VERSION 1\nRULE r\n  ON SetRemoved\n"
     "  USING store-default\n  NOTE \"x\"\nEND\n",
     "primitive 'store-default' needs change field 'record', "
     "which SetRemoved does not have", 2),
    ("bad-placeholder",
     "CATALOG t VERSION 1\nRULE r\n  ON FieldAdded\n  USING note\n"
     "  NOTE \"{bogus} happened\"\nEND\n",
     "placeholder {bogus} does not name a field of FieldAdded", 2),
    ("malformed-template",
     "CATALOG t VERSION 1\nRULE r\n  ON FieldAdded\n  USING note\n"
     "  NOTE \"{unclosed\"\nEND\n",
     "malformed message template", 2),
    ("bad-guard-attr",
     "CATALOG t VERSION 1\nRULE r\n  ON FieldAdded\n  USING noop\n"
     "  ONLY bogus EMP\nEND\n",
     "guard attribute 'bogus' is not a field of FieldAdded", 2),
    ("dangling-domain-guard",
     "CATALOG t VERSION 1\nDOMAIN\n  RECORD EMP\nEND\n"
     "RULE r\n  ON FieldAdded\n  USING noop\n  ONLY record DEPT\nEND\n",
     "guard value 'DEPT' is not a declared record (DOMAIN)", 5),
    ("duplicate-rule",
     "CATALOG t VERSION 1\n"
     "RULE r\n  ON FieldAdded\n  USING noop\nEND\n"
     "RULE r\n  ON SetAdded\n  USING noop\nEND\n",
     "duplicate RULE name 'r'", 6),
    ("duplicate-domain",
     "CATALOG t VERSION 1\nDOMAIN\nEND\nDOMAIN\nEND\n",
     "duplicate DOMAIN section", 4),
    ("bad-template-model",
     "CATALOG t VERSION 1\nTEMPLATE locate\n  MODEL cobol\nEND\n",
     "unknown template model 'cobol'", 2),
    ("bad-network-template",
     "CATALOG t VERSION 1\nTEMPLATE bogus\nEND\n",
     "unknown network template 'bogus'", 2),
    ("bad-algebra-rewrite",
     "CATALOG t VERSION 1\nALGEBRA a\n  ON RecordRenamed\n"
     "  REWRITE bogus\nEND\n",
     "unknown algebra rewrite 'bogus'", 2),
    ("algebra-kind-mismatch",
     "CATALOG t VERSION 1\nALGEBRA a\n  ON FieldRenamed\n"
     "  REWRITE rename-relation\nEND\n",
     "algebra rewrite 'rename-relation' applies to RecordRenamed, "
     "not FieldRenamed", 2),
    ("unknown-pass",
     "CATALOG t VERSION 1\nPASSES pushdown, bogus\n",
     "unknown optimizer pass 'bogus'", 2),
    ("duplicate-passes",
     "CATALOG t VERSION 1\nPASSES pushdown\nPASSES keyed\n",
     "duplicate PASSES directive", 3),
]


@pytest.mark.parametrize(
    "text, fragment, line",
    [case[1:] for case in REJECTIONS],
    ids=[case[0] for case in REJECTIONS])
def test_loader_rejects_with_position(text, fragment, line):
    with pytest.raises(CatalogError) as info:
        load(text)
    message = str(info.value)
    assert fragment in message, message
    assert f"line {line}:" in message, message
    assert "cat.rules" in message, message


def test_comments_and_blank_lines_are_skipped():
    catalog = load("# leading comment\n\n*> COBOL-style comment\n"
                   "CATALOG t VERSION 1\n\n"
                   "RULE r\n  # inside a block\n  ON RecordAdded\n"
                   "  USING noop\nEND\n")
    assert catalog.name == "t"
    assert [entry.name for entry in catalog.rules] == ["r"]


# -- round-trip and identity ------------------------------------------


def test_builtin_catalog_render_round_trips():
    catalog = default_catalog()
    reloaded = load_catalog_text(catalog.render(), path="rendered")
    assert reloaded == catalog
    assert reloaded.identity() == catalog.identity()


def test_builtin_catalog_shape():
    catalog = default_catalog()
    assert catalog.name == "builtin"
    # Parity with the legacy RULES tuple: every kind except
    # HierarchyReordered, which never had a mechanical rule (it
    # surfaces as an unconvertible pattern for the analyst).
    assert {entry.on for entry in catalog.rules} == \
        set(CHANGE_KINDS) - {"HierarchyReordered"}
    assert {t.name for t in catalog.templates} == set(NETWORK_TEMPLATES)


# -- compiled dispatch parity with the legacy classes -----------------


LEGACY_CLASSES = {
    "RecordRenamed": core_rules.RenameRecordRule,
    "FieldRenamed": core_rules.RenameFieldRule,
    "SetRenamed": core_rules.RenameSetRule,
    "FieldAdded": core_rules.NoteOnStoreRule,
    "FieldRemoved": core_rules.RefuseOnFieldUseRule,
    "RecordRemoved": core_rules.RefuseOnRecordUseRule,
    "RecordAdded": core_rules.NoopRule,
    "SetAdded": core_rules.NoopRule,
    "SetRemoved": core_rules.RefuseOnSetUseRule,
    "SetOrderChanged": core_rules.WarnOnReorderRule,
    "MembershipChanged": core_rules.NoteOnMembershipRule,
    "VirtualizedField": core_rules.VirtualizedFieldRule,
    "RecordInterposed": core_rules.InterposeRule,
    "RecordsMerged": core_rules.MergeRule,
    "FieldsExtracted": core_rules.ExtractFieldsRule,
    "FieldsInlined": core_rules.InlineFieldsRule,
    "SiblingOrderChanged": core_rules.NoopRule,
    "ConstraintAdded": core_rules.NoteRule,
    "ConstraintRemoved": core_rules.NoteRule,
}


def test_builtin_rules_instantiate_the_legacy_classes():
    compiled = default_rules()
    for entry, rule in zip(compiled.entries, compiled.rules):
        assert type(rule) is LEGACY_CLASSES[entry.on], entry.name
        assert rule.change_type is CHANGE_KINDS[entry.on]


def test_rule_for_miss_keeps_the_legacy_message():
    compiled = compile_catalog(load(
        "CATALOG t VERSION 1\nRULE r\n  ON SetAdded\n  USING noop\nEND\n"))
    with pytest.raises(UnconvertiblePattern,
                       match="no transformation rule for change kind "
                             "FieldAdded"):
        compiled.rule_for(FieldAdded(record="EMP", field_name="GRADE"))


def test_guarded_entry_overrides_the_general_one():
    compiled = compile_catalog(load(
        "CATALOG t VERSION 1\n"
        "RULE special\n  ON FieldAdded\n  USING noop\n"
        "  ONLY record EMP\nEND\n"
        "RULE general\n  ON FieldAdded\n  USING note\n"
        "  NOTE \"field {field_name} added\"\nEND\n"))
    emp = FieldAdded(record="EMP", field_name="GRADE")
    other = FieldAdded(record="DEPT", field_name="GRADE")
    assert compiled.rule_for(emp) is compiled.rules[0]
    assert compiled.rule_for(other) is compiled.rules[1]


def test_guard_matches_tuples_by_membership():
    change = FieldAdded(record="EMP", field_name="GRADE")
    assert Guard("record", "EMP").matches(change)
    assert not Guard("record", "DEPT").matches(change)


# -- templates, passes, algebra ---------------------------------------


def test_builtin_compiles_to_the_full_grants():
    compiled = default_rules()
    assert compiled.templates == frozenset(NETWORK_TEMPLATES)
    assert compiled.passes == ConversionOptions().optimizer_passes
    assert compiled.algebra_map() == DEFAULT_ALGEBRA_MAP
    assert compiled.gate_passes(("keyed", "pushdown")) == \
        ("keyed", "pushdown")


def test_omitted_sections_default_to_everything():
    compiled = compile_catalog(load(
        "CATALOG t VERSION 1\nRULE r\n  ON SetAdded\n  USING noop\nEND\n"))
    assert compiled.templates == frozenset(NETWORK_TEMPLATES)
    assert compiled.passes is None
    assert compiled.gate_passes(("keyed", "pushdown")) == \
        ("keyed", "pushdown")
    assert compiled.algebra_map() == DEFAULT_ALGEBRA_MAP


def test_passes_grant_filters_preserving_caller_order():
    compiled = compile_catalog(load(
        "CATALOG t VERSION 1\nRULE r\n  ON SetAdded\n  USING noop\nEND\n"
        "PASSES keyed, pushdown\n"))
    assert compiled.gate_passes(("pushdown", "keyed", "dedup-locate")) \
        == ("pushdown", "keyed")


def test_disabled_locate_template_fails_generation():
    gated = dataclasses.replace(
        default_catalog(),
        templates=tuple(TemplateEntry(name, "network", None)
                        for name in NETWORK_TEMPLATES
                        if name != "locate"))
    program = ("PROGRAM P1 (network / COMPANY-NAME).\n"
               "  FIND ANY DIV USING DIV-NAME='MACHINERY'.\n"
               "  DISPLAY 'OK'.\n")
    report = api.convert(FIGURE_4_3_DDL, FIG44_SPEC, program,
                         ConversionOptions(rule_catalog=gated))
    assert report.status == STATUS_FAILED
    assert "'locate' language template" in report.failure


def test_disabled_keyed_scan_falls_back_to_the_filtered_loop():
    node = AScan("EMP", "DIV-EMP",
                 (ACond("EMP-NAME", "=", ast.Const("X")),),
                 body=(), keyed=True)
    keyed = emit_scan_network(node, (), keyed=True)
    fallback = emit_scan_network(node, (), keyed=False)
    assert isinstance(keyed[0], ast.NetFindNextUsing)
    assert isinstance(fallback[0], ast.NetFindFirst)
    # The filtered loop still applies the conditions, as a guard.
    loop = fallback[1]
    assert any(isinstance(stmt, ast.If) for stmt in loop.body)


# -- end-to-end byte-identity of the builtin catalog ------------------


@pytest.mark.parametrize("jobs", [1, 4])
def test_explicit_builtin_catalog_is_byte_identical(tmp_path, jobs):
    """Loading the rendered builtin catalog through the public API and
    converting the E2 corpus with it must produce byte-identical
    reports and checkpoints to the implicit default -- serial and
    through the worker pool (the catalog pickles with the cascade)."""
    programs = [item.program for item in generate_corpus(
        CorpusSpec(seed=1979, size=8, pathology_rate=0.25))]
    reloaded = api.load_rule_catalog(default_catalog().render())
    base = ConversionOptions(inputs=ProgramInputs(terminal=["STORE"]),
                             jobs=jobs, parallel_threshold=1)
    results = {}
    for label, catalog in (("default", None), ("explicit", reloaded)):
        checkpoint = tmp_path / f"{label}-{jobs}.json"
        options = base.replace(rule_catalog=catalog,
                               checkpoint=str(checkpoint))
        cascade = api.build_cascade(FIGURE_4_3_DDL, FIG44_SPEC,
                                    options=options)
        batch = api.convert_batch(cascade, programs, options)
        results[label] = ([r.to_summary() for r in batch.reports],
                          checkpoint.read_bytes())
    assert results["default"][0] == results["explicit"][0]
    assert results["default"][1] == results["explicit"][1]


# -- the shipped store-default example --------------------------------


def test_store_default_example_converts_end_to_end(tmp_path, capsys):
    """A user catalog changes conversion behavior through ``--rules``
    alone: the shipped example rewrites STORE statements to carry the
    added field's default explicitly."""
    from repro.cli import main

    ddl = tmp_path / "company.ddl"
    ddl.write_text(FIGURE_4_3_DDL)
    spec = tmp_path / "grade.spec"
    spec.write_text(GRADE_SPEC)
    program = tmp_path / "store.cob"
    program.write_text(STORE_PROGRAM)
    code = main(["convert", "--ddl", str(ddl), "--spec", str(spec),
                 "--program", str(program),
                 "--rules", str(EXAMPLES / "store-default.rules")])
    captured = capsys.readouterr()
    assert code == 0
    assert "GRADE=1" in captured.out
    assert "rewritten to set GRADE = 1" in captured.out + captured.err


def test_without_the_example_catalog_the_store_is_left_alone(tmp_path):
    report = api.convert(FIGURE_4_3_DDL, GRADE_SPEC, STORE_PROGRAM)
    rendered = ast.render_program(report.target_program)
    assert "GRADE=1" not in rendered
    assert any("defaults to 1" in note for note in report.notes)


# -- the service: submissions, pool key, cascade cache ----------------


def _submission(**extra):
    payload = {"ddl": FIGURE_4_3_DDL, "spec": FIG44_SPEC,
               "programs": [STORE_PROGRAM]}
    payload.update(extra)
    return payload


def test_submission_rules_must_be_text():
    with pytest.raises(SubmissionError,
                       match="'rules' must be rule-catalog text"):
        validate_submission(_submission(rules=123))


def test_submission_rules_must_parse():
    with pytest.raises(SubmissionError,
                       match="unparseable submission artifact"):
        validate_submission(_submission(rules="CATALOG broken"))


def test_submission_keeps_valid_rules():
    rules = (EXAMPLES / "store-default.rules").read_text()
    normalized = validate_submission(_submission(rules=rules))
    assert normalized["rules"] == rules


def test_pool_key_covers_the_rules_field():
    rules = (EXAMPLES / "store-default.rules").read_text()
    assert pool_key(_submission()) != pool_key(_submission(rules=rules))


def test_cascade_cache_reuses_by_key_and_splits_on_rules(tmp_path):
    manager = JobManager(tmp_path / "spool")
    try:
        options = ConversionOptions()
        job = SimpleNamespace(submission=_submission())
        first = manager._cascade_for(job, options)
        second = manager._cascade_for(job, options)
        assert second is first
        rules = (EXAMPLES / "store-default.rules").read_text()
        spec_job = SimpleNamespace(
            submission=_submission(spec=GRADE_SPEC, rules=rules))
        rebuilt = manager._cascade_for(
            spec_job,
            ConversionOptions(rule_catalog=api.load_rule_catalog(rules)))
        assert rebuilt is not first
    finally:
        manager.stop()
