"""The rewrite-skip check (repro.cost), the cost-gated optimizer
passes, and the cost-ordered cascade.

The load-bearing invariant throughout: cost ordering is *sound pruning
only*.  The cascade may skip a rewrite attempt exactly when static
analysis proves the analyzer would refuse the program, and the skipped
path must synthesize byte-identical reports, checkpoints, and analyst
transcripts -- at every jobs count and pathology rate.
"""

import pytest

from repro.analysis.variability import VERB_VARIABILITY_DETAIL
from repro.batch import run_batch
from repro.core.abstract import ACond, ALocate, AbstractProgram, walk
from repro.core.analyzer_program import ProgramAnalyzer, blocking_failure
from repro.core.optimizer import CostModel, Optimizer
from repro.core.supervisor import ScriptedAnalyst
from repro.cost import CostPredictor
from repro.errors import AnalysisError
from repro.options import ConversionOptions
from repro.parallel import run_parallel_batch
from repro.programs import ast
from repro.programs import builder as b
from repro.programs.interpreter import ProgramInputs
from repro.restructure import restructure_database
from repro.strategies import FallbackCascade
from repro.workloads import company
from repro.workloads.inventory import (
    InventorySpec,
    generate_inventory,
    inventory_cascade,
)

MODEL = CostModel({"DIV": 2, "EMP": 40})


def lookup_program():
    return b.program("LOOKUP", "network", "COMPANY-NAME", [
        b.find_any("EMP", **{"EMP-NAME": "TAYLOR-0000"}),
    ])


def scan_program():
    return b.program("SCAN", "network", "COMPANY-NAME", [
        b.find_any("DIV", **{"DIV-NAME": "MACHINERY"}),
        b.find_first("EMP", "DIV-EMP"),
        b.while_(ast.status_ok(), [
            b.get("EMP"),
            b.find_next("EMP", "DIV-EMP"),
        ]),
    ])


def verb_program(name="VERB-VAR"):
    return b.program(name, "network", "COMPANY-NAME", [
        b.accept("REQUEST", prompt="VERB?"),
        b.find_any("DIV", **{"DIV-NAME": "MACHINERY"}),
        b.generic_call(b.v("REQUEST"), "EMP", **{
            "EMP-NAME": "VAR-0000",
            "AGE": 30,
            "DEPT-NAME": "SALES",
            "DIV-NAME": "MACHINERY",
        }),
        b.display("DONE"),
    ])


class TestPredictor:
    def test_blocking_details_match_the_detector(self, company_schema):
        program = verb_program()
        blocking = CostPredictor().predict(program)
        assert blocking == (VERB_VARIABILITY_DETAIL,)
        # The check's verdict is the analyzer's own refusal.
        with pytest.raises(AnalysisError) as refused:
            ProgramAnalyzer(company_schema).analyze(program)
        assert str(refused.value) == blocking_failure(blocking)

    def test_constant_verb_is_not_blocking(self):
        program = b.program("T", "network", "C", [
            b.generic_call(ast.Const("STORE"), "EMP",
                           **{"EMP-NAME": "X"}),
        ])
        assert CostPredictor().predict(program) == ()

    def test_blocking_program_marks_rewrite_infeasible(self):
        program = b.program("T", "network", "C", [
            b.accept("REQUEST"),
            b.if_(ast.status_ok(), [
                b.generic_call(b.v("REQUEST"), "EMP",
                               **{"EMP-NAME": "X"}),
            ]),
            b.generic_call(b.v("REQUEST"), "DIV",
                           **{"DIV-NAME": "X"}),
        ])
        assert CostPredictor().predict(program) == \
            (VERB_VARIABILITY_DETAIL,) * 2


class TestOptimizerCalcLocate:
    def make(self, statements):
        return AbstractProgram("T", "network", "COMPANY-NAME",
                               tuple(statements))

    def locate_pair(self):
        locate = ALocate("EMP", (
            ACond("EMP-NAME", "=", ast.Const("TAYLOR-0000")),
            ACond("AGE", ">", ast.Const(30)),
        ))
        guard = ast.If(ast.status_ok(),
                       (ast.WriteTerminal((ast.Const("HIT"),)),),
                       (ast.WriteTerminal((ast.Const("MISS"),)),))
        return locate, guard

    def optimize(self, company_schema, statements):
        optimizer = Optimizer(company_schema, cost_model=MODEL,
                              passes=("calc-locate",))
        return optimizer.optimize(self.make(statements)).statements

    def test_residual_moves_into_the_guard(self, company_schema):
        locate, guard = self.locate_pair()
        out = self.optimize(company_schema, [locate, guard])
        new_locate, new_guard = out
        assert all(c.op == "=" for c in new_locate.conditions)
        assert new_guard.condition == ast.status_ok()
        (inner,) = new_guard.then
        assert isinstance(inner, ast.If)
        assert inner.condition == ast.Bin(
            ">", ast.Var("EMP.AGE"), ast.Const(30))
        assert inner.then == guard.then
        # The filter-miss arm restores the not-found status first.
        assert inner.orelse[0] == ast.Assign("DB-STATUS",
                                             ast.Const("0326"))
        assert inner.orelse[1:] == guard.orelse

    def test_fires_inside_nested_while_and_if(self, company_schema):
        locate, guard = self.locate_pair()
        nested = ast.While(ast.Bin("<", ast.Var("I"), ast.Const(3)), (
            ast.If(ast.Bin("=", ast.Var("GO"), ast.Const(1)),
                   (locate, guard), ()),
            ast.Assign("I", ast.Bin("+", ast.Var("I"), ast.Const(1))),
        ))
        (out,) = self.optimize(company_schema, [nested])
        rewritten = out.body[0].then[0]
        assert isinstance(rewritten, ALocate)
        assert all(c.op == "=" for c in rewritten.conditions)

    def test_uncovered_calc_key_is_left_alone(self, company_schema):
        locate = ALocate("EMP", (ACond("AGE", ">", ast.Const(30)),))
        guard = ast.If(ast.status_ok(), (), ())
        out = self.optimize(company_schema, [locate, guard])
        assert out == (locate, guard)

    def test_tiny_occurrence_keeps_the_scan(self, company_schema):
        locate, guard = self.locate_pair()
        optimizer = Optimizer(company_schema,
                              cost_model=CostModel({"EMP": 2}),
                              passes=("calc-locate",))
        out = optimizer.optimize(self.make([locate, guard])).statements
        assert out == (locate, guard)


class TestOptimizerHoistLocate:
    def loop(self, body_tail=()):
        locate = ALocate("DIV", (
            ACond("DIV-NAME", "=", ast.Const("MACHINERY")),
        ))
        body = (locate,
                ast.Assign("I", ast.Bin("+", ast.Var("I"), ast.Const(1))),
                *body_tail)
        return locate, ast.While(
            ast.Bin("<", ast.Var("I"), ast.Const(3)), body)

    def optimize(self, company_schema, statements):
        optimizer = Optimizer(company_schema, cost_model=MODEL,
                              passes=("hoist-locate",))
        program = AbstractProgram("T", "network", "COMPANY-NAME",
                                  tuple(statements))
        return optimizer.optimize(program).statements

    def test_invariant_locate_moves_before_the_loop(self, company_schema):
        locate, loop = self.loop()
        out = self.optimize(company_schema, [loop])
        assert out[0] == locate
        assert isinstance(out[1], ast.While)
        assert not any(isinstance(s, ALocate) for s in walk(out[1].body))

    def test_fires_inside_a_nested_if(self, company_schema):
        locate, loop = self.loop()
        wrapped = ast.If(ast.Bin("=", ast.Var("GO"), ast.Const(1)),
                         (loop,), ())
        (out,) = self.optimize(company_schema, [wrapped])
        assert out.then[0] == locate
        assert isinstance(out.then[1], ast.While)

    def test_database_work_in_body_blocks_the_hoist(self, company_schema):
        other = ALocate("EMP", (
            ACond("EMP-NAME", "=", ast.Const("X")),
        ))
        _locate, loop = self.loop(body_tail=(other,))
        out = self.optimize(company_schema, [loop])
        assert out == (loop,)

    def test_status_dependent_loop_blocks_the_hoist(self, company_schema):
        locate = ALocate("DIV", (
            ACond("DIV-NAME", "=", ast.Const("MACHINERY")),
        ))
        loop = ast.While(ast.status_ok(), (
            locate,
            ast.Assign("I", ast.Bin("+", ast.Var("I"), ast.Const(1))),
        ))
        out = self.optimize(company_schema, [loop])
        assert out == (loop,)


@pytest.fixture
def cascade_pair(interpose_operator):
    def build(strategy_order, analyst=None):
        source_db = company.company_db(seed=42)
        _schema, target_db = restructure_database(source_db,
                                                  interpose_operator)
        return FallbackCascade(source_db, target_db, interpose_operator,
                               analyst=analyst,
                               strategy_order=strategy_order)
    return build


VERB_OPTIONS = ConversionOptions(inputs=ProgramInputs(terminal=["STORE"]))


class TestCostOrderedCascade:
    def test_blocking_program_skips_rewrite_byte_identically(
            self, cascade_pair):
        fixed = cascade_pair("fixed").convert(
            verb_program(), options=VERB_OPTIONS.replace(
                strategy_order="fixed"))
        cost_cascade = cascade_pair("cost")
        cost = cost_cascade.convert(verb_program(), options=VERB_OPTIONS)
        assert cost.to_summary() == fixed.to_summary()
        assert cost.strategy == "emulation"
        assert cost_cascade.cost_counters.get("rewrite_skips") == 1
        assert [(stage.strategy, stage.outcome)
                for stage in cost.stages] == [
            ("rewrite", "unconverted"), ("emulation", "validated")]

    def test_analyst_transcripts_are_identical(self, cascade_pair):
        transcripts = {}
        for order in ("fixed", "cost"):
            analyst = ScriptedAnalyst({})
            cascade_pair(order, analyst=analyst).convert(
                verb_program(), options=VERB_OPTIONS.replace(
                    strategy_order=order))
            transcripts[order] = [
                (question.render(), answer)
                for question, answer in analyst.transcript
            ]
        assert transcripts["cost"] == transcripts["fixed"]
        assert transcripts["cost"], "the pin-verb question must be posed"

    def test_clean_program_pays_the_attempt(self, cascade_pair):
        cascade = cascade_pair("cost")
        report = cascade.convert(lookup_program(),
                                 options=VERB_OPTIONS)
        assert report.strategy == "rewrite"
        assert [(stage.strategy, stage.outcome)
                for stage in report.stages] == [
            ("rewrite", "validated")]
        assert cascade.cost_counters.get("rewrite_skips") == 0

    def test_options_strategy_order_overrides_the_constructor(
            self, cascade_pair):
        cascade = cascade_pair("cost")
        report = cascade.convert(
            verb_program(),
            options=VERB_OPTIONS.replace(strategy_order="fixed"))
        assert cascade.cost_counters.get("rewrite_skips") == 0
        assert report.stages[0].strategy == "rewrite"

    def test_summary_round_trip_excludes_cost(self, cascade_pair):
        report = cascade_pair("cost").convert(lookup_program(),
                                              options=VERB_OPTIONS)
        assert "cost" not in report.to_summary()

    def test_invalid_strategy_order_rejected(self, cascade_pair):
        with pytest.raises(ValueError):
            cascade_pair("greedy")


BATCH_OPTIONS = ConversionOptions(inputs=ProgramInputs(terminal=["STORE"]),
                                  parallel_threshold=2)


class TestByteIdentityMatrix:
    """Cost-ordered output must be indistinguishable from fixed-order
    output (reports and checkpoints) at jobs in {1, 4} and pathology
    rates {0, 0.75}."""

    @pytest.mark.parametrize("rate", [0.0, 0.75])
    def test_cost_vs_fixed_vs_parallel(self, rate, tmp_path):
        spec = InventorySpec(programs=24, pathology_rate=rate,
                             sweep_statements=300)
        programs = [item.program for item in generate_inventory(spec)]

        fixed_path = tmp_path / "fixed.json"
        fixed = run_batch(
            inventory_cascade(spec, strategy_order="fixed"), programs,
            BATCH_OPTIONS.replace(strategy_order="fixed",
                                  checkpoint=fixed_path))

        cost_path = tmp_path / "cost.json"
        serial_cascade = inventory_cascade(spec)
        serial = run_batch(serial_cascade, programs,
                           BATCH_OPTIONS.replace(checkpoint=cost_path))

        parallel_path = tmp_path / "parallel.json"
        parallel_cascade = inventory_cascade(spec)
        parallel = run_parallel_batch(
            parallel_cascade, programs,
            BATCH_OPTIONS.replace(jobs=4, checkpoint=parallel_path))

        def summaries(batch):
            return [report.to_summary() for report in batch.reports]

        assert summaries(serial) == summaries(fixed)
        assert summaries(parallel) == summaries(serial)
        assert cost_path.read_bytes() == fixed_path.read_bytes()
        assert parallel_path.read_bytes() == cost_path.read_bytes()

    def test_skips_happen_only_on_pathological_corpora(self, tmp_path):
        spec = InventorySpec(programs=24, pathology_rate=0.75,
                             sweep_statements=300)
        programs = [item.program for item in generate_inventory(spec)]
        cascade = inventory_cascade(spec)
        run_batch(cascade, programs, BATCH_OPTIONS)
        blocked = sum(1 for program in programs
                      if CostPredictor().predict(program))
        assert blocked > 0
        assert cascade.cost_counters.get("rewrite_skips") == blocked
