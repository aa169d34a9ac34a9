"""The repro.api facade and ConversionOptions.

The invariant that matters here: the facade is *the same pipeline* --
its reports are identical to the supervisor's and the batch runner's
on the E2 corpus.
"""

import pytest

import repro
from repro import api
from repro.batch import run_batch
from repro.core.supervisor import ConversionSupervisor
from repro.options import ConversionOptions, DEFAULT_OPTIMIZER_PASSES
from repro.programs import builder as b
from repro.programs.interpreter import ProgramInputs
from repro.restructure import restructure_database
from repro.schema.ddl import parse_ddl
from repro.strategies.cascade import FallbackCascade
from repro.workloads import company
from repro.workloads.company import FIGURE_4_3_DDL
from repro.workloads.corpus import CorpusSpec, generate_corpus

FIG44_SPEC = ("INTERPOSE DEPT (DEPT-NAME) ON DIV-EMP "
              "AS DIV-DEPT, DEPT-EMP.\n")


def report_program(name="REPORT"):
    return b.program(name, "network", "COMPANY-NAME", [
        b.find_any("DIV", **{"DIV-NAME": "MACHINERY"}),
        *b.scan_set("EMP", "DIV-EMP", [
            b.display(b.field("EMP", "EMP-NAME")),
        ]),
        b.display("END"),
    ])


def _cascade(seed=42):
    operator = company.figure_44_operator()
    source_db = company.company_db(seed=seed)
    _schema, target_db = restructure_database(source_db, operator)
    return FallbackCascade(source_db, target_db, operator)


class TestConversionOptions:
    def test_defaults(self):
        options = ConversionOptions()
        assert options.optimizer_passes == DEFAULT_OPTIMIZER_PASSES
        assert options.jobs == 1
        assert options.resume is False

    def test_replace_returns_modified_copy(self):
        options = ConversionOptions()
        changed = options.replace(jobs=4, target_model="relational")
        assert changed.jobs == 4
        assert changed.target_model == "relational"
        assert options.jobs == 1            # the original is untouched

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ConversionOptions().jobs = 2

    def test_picklable(self):
        import pickle

        options = ConversionOptions(
            inputs=ProgramInputs(terminal=["X"]), jobs=3)
        clone = pickle.loads(pickle.dumps(options))
        assert clone.jobs == 3
        assert clone.inputs.terminal == ["X"]


class TestLoadSchema:
    def test_from_ddl_text(self):
        schema = api.load_schema(FIGURE_4_3_DDL)
        assert schema.name == "COMPANY-NAME"

    def test_from_path(self, tmp_path):
        ddl = tmp_path / "company.ddl"
        ddl.write_text(FIGURE_4_3_DDL)
        assert api.load_schema(ddl).name == "COMPANY-NAME"
        assert api.load_schema(str(ddl)).name == "COMPANY-NAME"

    def test_parsed_schema_passes_through(self):
        schema = parse_ddl(FIGURE_4_3_DDL)
        assert api.load_schema(schema) is schema


class TestFacadeParity:
    def test_convert_matches_supervisor_path(self):
        schema = company.figure_42_schema()
        operator = company.figure_44_operator()
        old = ConversionSupervisor(schema, operator).convert_program(
            report_program())
        new = api.convert(FIGURE_4_3_DDL, FIG44_SPEC, report_program())
        assert new.to_summary() == old.to_summary()

    def test_convert_parity_on_e2_corpus(self):
        """The facade is the same pipeline: identical reports, program
        by program, over an E2-style corpus with pathologies."""
        schema = company.figure_42_schema()
        operator = company.figure_44_operator()
        corpus = generate_corpus(CorpusSpec(seed=1979, size=12,
                                            pathology_rate=0.25))
        supervisor = ConversionSupervisor(schema, operator)
        options = ConversionOptions(target_model="relational")
        for item in corpus:
            old = supervisor.convert_program(item.program,
                                             options=options)
            new = api.convert(schema, operator, item.program, options)
            assert new.to_summary() == old.to_summary(), item.program.name

    def test_convert_batch_matches_run_batch(self, tmp_path):
        programs = [report_program("P1"), report_program("P2")]
        options = ConversionOptions(checkpoint=tmp_path / "facade.json")
        new = api.convert_batch(_cascade(), programs, options)
        old = run_batch(_cascade(), programs,
                        options.replace(checkpoint=tmp_path / "old.json"))
        assert [r.to_summary() for r in new.reports] == \
            [r.to_summary() for r in old.reports]
        assert (tmp_path / "facade.json").read_bytes() == \
            (tmp_path / "old.json").read_bytes()

    def test_cli_single_convert_routes_through_facade(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        from repro.programs.ast import render_program

        ddl = tmp_path / "company.ddl"
        ddl.write_text(FIGURE_4_3_DDL)
        spec = tmp_path / "fig44.spec"
        spec.write_text(FIG44_SPEC)
        program = tmp_path / "report.cob"
        program.write_text(render_program(report_program()))
        assert main(["convert", "--ddl", str(ddl), "--spec", str(spec),
                     "--program", str(program)]) == 0
        cli_out = capsys.readouterr().out
        report = api.convert(FIGURE_4_3_DDL, FIG44_SPEC, report_program())
        assert cli_out == render_program(report.target_program)

    def test_variable_verb_programs_still_route_via_options(self):
        """The options path carries verb pins through from_options."""
        program = b.program("CONSOLE", "network", "COMPANY-NAME", [
            b.accept("V"),
            b.generic_call(b.v("V"), "EMP", **{"EMP-NAME": "X"}),
            b.display("OK"),
        ])
        options = ConversionOptions(
            verb_pins={"CONSOLE": {0: "FIND-ANY"}})
        supervisor = ConversionSupervisor.from_options(
            company.figure_42_schema(), company.figure_44_operator(),
            options=options)
        report = supervisor.convert_program(program, options=options)
        assert report.status == "analyst-assisted"


class TestCuratedNamespace:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_facade_exposed_at_top_level(self):
        assert repro.convert is api.convert
        assert repro.convert_batch is api.convert_batch
        assert repro.ConversionOptions is ConversionOptions
