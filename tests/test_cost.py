"""The rewrite-skip check (repro.cost), the cost-gated optimizer
passes, and the cascade's rewrite skip.

The load-bearing invariant throughout: the skip is *sound pruning
only*.  The cascade may skip a rewrite attempt exactly when static
analysis proves the analyzer would refuse the program, and the skipped
path must synthesize byte-identical reports, checkpoints, and analyst
transcripts -- at every jobs count and pathology rate.
"""

import pytest

from repro.analysis import dataflow
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
    CLEAN_KINDS,
    INVENTORY_PATHOLOGY_KINDS,
    STORE_KINDS,
    InventorySpec,
    generate_inventory,
    inventory_cascade,
    inventory_schema,
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


def one_program_per_inventory_kind():
    """The first program of every ``generate_inventory`` kind."""
    spec = InventorySpec(programs=120, pathology_rate=0.5,
                         sweep_statements=20)
    firsts = {}
    for item in generate_inventory(spec):
        firsts.setdefault(item.kind, item.program)
    assert set(firsts) == {*CLEAN_KINDS, *STORE_KINDS,
                           *INVENTORY_PATHOLOGY_KINDS}
    return inventory_schema(spec), firsts


class TestPredictor:
    def test_blocking_details_match_the_detector(self, company_schema):
        assert CostPredictor().predict(verb_program()) == \
            (VERB_VARIABILITY_DETAIL,)
        # The check's verdict is the analyzer's own refusal, and it
        # blocks nothing the analyzer accepts: the skip never drops a
        # convertible program.
        inventory, firsts = one_program_per_inventory_kind()
        cases = [("verb-program", verb_program(), company_schema)]
        cases += [(kind, first, inventory) for kind, first in firsts.items()]
        for kind, program, schema in cases:
            blocking = CostPredictor().predict(program)
            try:
                ProgramAnalyzer(schema).analyze(program)
            except AnalysisError as refused:
                assert blocking, f"{kind}: refused but not predicted"
                assert str(refused) == blocking_failure(blocking), kind
            else:
                assert blocking == (), f"{kind}: predicted but accepted"

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

    def test_bindings_are_counted_once_per_program(self, monkeypatch):
        """Fifty calls over one verb variable and a 2,000-statement
        block: the check walks the program's bindings once, not once
        per call (the verb's top-level MOVE makes it a candidate; the
        ACCEPT in the block re-binds it), and not at all for a verb
        with no top-level MOVE literal."""
        block = [b.assign(f"W{j:04d}", j) for j in range(2000)]
        calls = [b.generic_call(b.v("REQUEST"), "EMP",
                                **{"EMP-NAME": f"X{j}"})
                 for j in range(50)]
        program = b.program("MANY-CALLS", "network", "C", [
            b.assign("REQUEST", "STORE"),
            *calls,
            b.if_(b.eq(b.v("FLAG"), 1), [*block, b.accept("REQUEST")]),
        ])
        walks = []
        count = dataflow.assigned_variables

        def counting(*args, **kwargs):
            walks.append(args[0].name)
            return count(*args, **kwargs)

        monkeypatch.setattr(dataflow, "assigned_variables", counting)
        assert CostPredictor().predict(program) == \
            (VERB_VARIABILITY_DETAIL,) * 50
        assert walks == ["MANY-CALLS"]
        # The bulk-sweep shape: the verb comes from an ACCEPT and has no
        # top-level MOVE literal, so no binding is counted at all.
        sweep = generate_inventory(InventorySpec(
            programs=120, pathology_rate=0.5, sweep_statements=2000))
        bulk = next(item.program for item in sweep
                    if item.kind == "bulk-sweep")
        assert CostPredictor().predict(bulk) == (VERB_VARIABILITY_DETAIL,)
        assert walks == ["MANY-CALLS"]


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


class NeverBlocking:
    """A ``cascade.predictor`` double whose check never blocks, so the
    cascade pays for every rewrite attempt: the no-skip side of the
    byte-identity comparisons."""

    def predict(self, program):
        return ()


def without_skip(cascade):
    cascade.predictor = NeverBlocking()
    return cascade


@pytest.fixture
def cascade_pair(interpose_operator):
    def build(skip=True, analyst=None):
        source_db = company.company_db(seed=42)
        _schema, target_db = restructure_database(source_db,
                                                  interpose_operator)
        cascade = FallbackCascade(source_db, target_db, interpose_operator,
                                  analyst=analyst)
        return cascade if skip else without_skip(cascade)
    return build


VERB_OPTIONS = ConversionOptions(inputs=ProgramInputs(terminal=["STORE"]))


class TestCostOrderedCascade:
    def test_blocking_program_skips_rewrite_byte_identically(
            self, cascade_pair):
        attempted_cascade = cascade_pair(skip=False)
        attempted = attempted_cascade.convert(verb_program(),
                                              options=VERB_OPTIONS)
        assert attempted_cascade.cost_counters.get("rewrite_skips") == 0
        cost_cascade = cascade_pair()
        cost = cost_cascade.convert(verb_program(), options=VERB_OPTIONS)
        assert cost.to_summary() == attempted.to_summary()
        assert cost.strategy == "emulation"
        assert cost_cascade.cost_counters.get("rewrite_skips") == 1
        assert [(stage.strategy, stage.outcome)
                for stage in cost.stages] == [
            ("rewrite", "unconverted"), ("emulation", "validated")]

    def test_analyst_transcripts_are_identical(self, cascade_pair):
        transcripts = {}
        for skip in (False, True):
            analyst = ScriptedAnalyst({})
            cascade_pair(skip, analyst=analyst).convert(
                verb_program(), options=VERB_OPTIONS)
            transcripts[skip] = [
                (question.render(), answer)
                for question, answer in analyst.transcript
            ]
        assert transcripts[True] == transcripts[False]
        assert transcripts[True], "the pin-verb question must be posed"

    def test_clean_program_pays_the_attempt(self, cascade_pair):
        cascade = cascade_pair()
        report = cascade.convert(lookup_program(),
                                 options=VERB_OPTIONS)
        assert report.strategy == "rewrite"
        assert [(stage.strategy, stage.outcome)
                for stage in report.stages] == [
            ("rewrite", "validated")]
        assert cascade.cost_counters.get("rewrite_skips") == 0

    def test_summary_round_trip_excludes_cost(self, cascade_pair):
        report = cascade_pair().convert(lookup_program(),
                                        options=VERB_OPTIONS)
        assert "cost" not in report.to_summary()


BATCH_OPTIONS = ConversionOptions(inputs=ProgramInputs(terminal=["STORE"]),
                                  parallel_threshold=2)


class TestByteIdentityMatrix:
    """Output with the rewrite skip must be indistinguishable from
    output without it (reports and checkpoints) at jobs in {1, 4} and
    pathology rates {0, 0.75}."""

    @pytest.mark.parametrize("rate", [0.0, 0.75])
    def test_cost_vs_fixed_vs_parallel(self, rate, tmp_path):
        spec = InventorySpec(programs=24, pathology_rate=rate,
                             sweep_statements=300)
        programs = [item.program for item in generate_inventory(spec)]

        no_skip_path = tmp_path / "no-skip.json"
        no_skip = run_batch(
            without_skip(inventory_cascade(spec)), programs,
            BATCH_OPTIONS.replace(checkpoint=no_skip_path))

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

        assert summaries(serial) == summaries(no_skip)
        assert summaries(parallel) == summaries(serial)
        assert cost_path.read_bytes() == no_skip_path.read_bytes()
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
