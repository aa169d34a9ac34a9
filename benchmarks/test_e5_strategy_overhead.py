"""E5 -- Section 2.1.2: emulation vs bridge vs rewrite efficiency.

The paper's claims, measured:

* "Efficiency is degraded in the emulation strategy because each
  source DML statement must be mapped into a target emulation
  program" -- emulation pays per-call mapping work and occurrence
  materialization;
* "In the bridge program strategy, a subset of the target database
  must be dynamically restructured.  The increased overhead in program
  size and/or access path length can result in a significant increase
  in processing requirements" -- bridge pays reconstruction
  proportional to database size;
* rewriting "avoids the drawbacks": converted programs run with native
  access-path length.

Expected shape: cost(rewrite) < cost(emulation) < cost(bridge) at
every database size, with the bridge gap growing with size; emulation
and bridge cost more than the source program's native run, and rewrite
stays within a constant factor of it.
"""

import pytest

from conftest import make_pair, print_table
from repro.core.analyzer_db import ConversionAnalyzer
from repro.engine.metrics import MetricsScope
from repro.programs import builder as b
from repro.programs.interpreter import run_program
from repro.strategies import (
    BridgeStrategy,
    EmulationStrategy,
    RewriteStrategy,
)
from repro.workloads import company

SIZES = (10, 40, 160)

#: Rewrite runs the converted program natively on the target, so its
#: access-path length stays within a small constant factor of the
#: source program's (~1.7x observed).  4x leaves headroom without
#: tracking the figure exactly.
REWRITE_FACTOR = 4


def report_program():
    return b.program("REPORT", "network", "COMPANY-NAME", [
        b.find_any("DIV", **{"DIV-NAME": "MACHINERY"}),
        *b.scan_set("EMP", "DIV-EMP", [
            b.if_(b.gt(b.field("EMP", "AGE"), 40), [
                b.display(b.field("EMP", "EMP-NAME")),
            ]),
        ]),
    ])


def make_strategies(size):
    schema = company.figure_42_schema()
    operator = company.figure_44_operator()
    catalog = ConversionAnalyzer().analyze_operator(schema, operator)

    def emulation():
        _s, target = make_pair(operator, employees_per_division=size)
        return EmulationStrategy(target, catalog)

    def bridge():
        _s, target = make_pair(operator, employees_per_division=size)
        return BridgeStrategy(target, operator, catalog)

    def rewrite():
        _s, target = make_pair(operator, employees_per_division=size)
        return RewriteStrategy(target, schema, operator)

    return {"emulation": emulation, "bridge": bridge,
            "rewrite": rewrite}


@pytest.fixture(scope="module")
def sweep():
    """costs[size][strategy] over the size sweep, plus ``native``: the
    source program on the unrestructured database (a native run pays
    no mapping or materialization work, only record touches)."""
    program = report_program()
    costs: dict[int, dict[str, int]] = {}
    for size in SIZES:
        source_db = company.company_db(seed=1979,
                                       employees_per_division=size)
        with MetricsScope(source_db.metrics) as native:
            run_program(program, source_db, consistent=False)
        costs[size] = {"native": native.delta.total_accesses()}
        for name, factory in make_strategies(size).items():
            strategy = factory()
            run = strategy.run(program)
            costs[size][name] = run.cost()
    return costs


def test_cost_ordering_at_every_size(sweep, benchmark):
    """Converted execution is never free: emulation and bridge cost
    more than the source program's native run, while rewrite stays
    within a constant factor of it and below both."""
    benchmark(lambda: {s: dict(v) for s, v in sweep.items()})
    rows = []
    for size in SIZES:
        by_strategy = sweep[size]
        native = by_strategy["native"]
        rows.append((size, native, by_strategy["rewrite"],
                     by_strategy["emulation"], by_strategy["bridge"]))
        assert by_strategy["rewrite"] < by_strategy["emulation"] \
            < by_strategy["bridge"], (size, by_strategy)
        assert by_strategy["emulation"] > native, (size, by_strategy)
        assert by_strategy["bridge"] > native, (size, by_strategy)
        assert by_strategy["rewrite"] <= REWRITE_FACTOR * native, \
            (size, by_strategy)
    print_table("E5.1 operation-count cost by database size", rows,
                ("employees/div", "native", "rewrite", "emulation",
                 "bridge"))


def lookup_program():
    """A selective query: one CALC lookup, independent of DB size."""
    import repro.programs.ast as ast_mod

    return b.program("LOOKUP", "network", "COMPANY-NAME", [
        b.find_any("EMP", **{"EMP-NAME": "CLARK-0000"}),
        b.if_(ast_mod.status_ok(), [
            b.get("EMP"),
            b.display(b.field("EMP", "EMP-NAME"), b.field("EMP", "AGE")),
        ], [b.display("NOT FOUND")]),
    ])


def test_bridge_overhead_grows_with_size_on_selective_query(benchmark):
    """The paper's sharpest case: a one-record lookup costs O(1) under
    rewrite but the bridge still reconstructs the whole database."""
    program = lookup_program()
    benchmark(lambda: make_strategies(SIZES[0])["bridge"]().run(program).cost())
    rows = []
    ratios = []
    for size in SIZES:
        strategies = make_strategies(size)
        costs = {
            name: factory().run(program).cost()
            for name, factory in strategies.items()
        }
        ratio = costs["bridge"] / max(costs["rewrite"], 1)
        ratios.append(ratio)
        rows.append((size, costs["rewrite"], costs["emulation"],
                     costs["bridge"], f"{ratio:.0f}x"))
        assert costs["rewrite"] <= costs["emulation"] < costs["bridge"]
    print_table("E5.2 selective lookup: bridge pays whole-DB "
                "reconstruction", rows,
                ("employees/div", "rewrite", "emulation", "bridge",
                 "bridge/rewrite"))
    # bridge/rewrite ratio grows ~linearly with database size
    assert ratios[-1] > 4 * ratios[0] / 2
    assert ratios[-1] > ratios[1] > ratios[0]


def test_emulation_overhead_is_per_call(sweep, benchmark):
    benchmark(lambda: sweep[SIZES[0]]["emulation"])
    """Emulation overhead stays a roughly constant multiple (per-call
    mapping), unlike bridge's whole-database term."""
    emulation_ratio = [
        sweep[size]["emulation"] / sweep[size]["rewrite"]
        for size in SIZES
    ]
    bridge_ratio = [
        sweep[size]["bridge"] / sweep[size]["rewrite"] for size in SIZES
    ]
    assert emulation_ratio[-1] < bridge_ratio[-1]
    assert max(emulation_ratio) < 4.0  # bounded multiple


def test_program_size_growth(benchmark):
    """Section 2.1.2's other overhead axis: "increased overhead in
    program size".  Rewriting grows the *program* (nested loops,
    ensure-guards) while emulation/bridge keep the source program and
    pay at run time instead."""
    from repro.core import ConversionSupervisor
    from repro.programs import ast as ast_mod
    from repro.workloads import company as company_mod

    schema = company_mod.figure_42_schema()
    operator = company_mod.figure_44_operator()
    supervisor = ConversionSupervisor(schema, operator)

    def count(program):
        return sum(1 for _ in ast_mod.walk_program(program))

    def measure():
        rows = []
        for factory in (report_program, lookup_program):
            source = factory()
            report = supervisor.convert_program(source)
            rows.append((source.name, count(source),
                         count(report.target_program)))
        return rows

    rows = benchmark(measure)
    print_table("E5.4 program size (statements)", [
        (name, before, after, f"{after / before:.2f}x")
        for name, before, after in rows
    ], ("program", "source", "rewritten", "growth"))
    report_row = rows[0]
    assert report_row[2] > report_row[1]  # scans nest: program grows
    lookup_row = rows[1]
    assert lookup_row[2] <= lookup_row[1] + 1  # untouched access: ~same


@pytest.mark.parametrize("name", ["emulation", "bridge", "rewrite"])
def test_strategy_wall_time(name, benchmark):
    """Wall-clock timing of one run per strategy at the middle size."""
    strategy = make_strategies(40)[name]()
    program = report_program()
    benchmark(strategy.run, program)


def test_all_strategies_preserve_observable_behaviour(benchmark):
    from repro.programs.interpreter import run_program

    program = report_program()
    schema = company.figure_42_schema()
    operator = company.figure_44_operator()
    catalog = ConversionAnalyzer().analyze_operator(schema, operator)
    source_trace = run_program(
        program, company.company_db(seed=1979,
                                    employees_per_division=40),
        consistent=False)

    def run_all():
        _s, t1 = make_pair(operator, employees_per_division=40)
        _s, t2 = make_pair(operator, employees_per_division=40)
        _s, t3 = make_pair(operator, employees_per_division=40)
        return (
            EmulationStrategy(t1, catalog).run(program).trace,
            BridgeStrategy(t2, operator, catalog).run(program).trace,
            RewriteStrategy(t3, schema, operator).run(program).trace,
        )

    emulation_trace, bridge_trace, rewrite_trace = benchmark(run_all)
    rows = [
        ("emulation", "strict", emulation_trace == source_trace),
        ("bridge", "strict", bridge_trace == source_trace),
        ("rewrite", "multiset (order-warned)",
         sorted(rewrite_trace.terminal_lines())
         == sorted(source_trace.terminal_lines())),
    ]
    print_table("E5.3 behaviour preservation by strategy", rows,
                ("strategy", "level", "holds"))
    assert emulation_trace == source_trace
    assert bridge_trace == source_trace
    assert sorted(rewrite_trace.terminal_lines()) == \
        sorted(source_trace.terminal_lines())


def test_emulation_cache_ablation(benchmark):
    """Design-choice ablation: the emulator's occurrence cache (the
    paper's "maintenance of run time descriptions and tables").
    Without it every FIND NEXT re-materializes and re-sorts the
    occurrence, and emulation turns quadratic in occurrence size."""
    from repro.core.analyzer_db import ConversionAnalyzer
    from repro.workloads import company as company_mod

    schema = company_mod.figure_42_schema()
    operator = company_mod.figure_44_operator()
    catalog = ConversionAnalyzer().analyze_operator(schema, operator)
    program = report_program()

    def run_pair(size):
        _s, target_cached = make_pair(operator,
                                      employees_per_division=size)
        cached = EmulationStrategy(target_cached, catalog,
                                   cache_occurrences=True).run(program)
        _s, target_uncached = make_pair(operator,
                                        employees_per_division=size)
        uncached = EmulationStrategy(target_uncached, catalog,
                                     cache_occurrences=False).run(program)
        assert cached.trace == uncached.trace  # behaviour identical
        return cached.cost(), uncached.cost()

    def sweep():
        return {size: run_pair(size) for size in (10, 40, 160)}

    costs = benchmark(sweep)
    rows = [
        (size, cached, uncached, f"{uncached / cached:.1f}x")
        for size, (cached, uncached) in costs.items()
    ]
    print_table("E5.5 emulation occurrence-cache ablation", rows,
                ("employees/div", "cached", "uncached", "penalty"))
    # the penalty grows with occurrence size (quadratic materialization)
    penalties = [uncached / cached for _s, (cached, uncached)
                 in costs.items()]
    assert penalties[-1] > penalties[0]
    assert costs[160][1] > 2 * costs[160][0]
