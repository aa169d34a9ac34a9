"""Program-execution benchmark: strategy overhead and indexed execution.

The translate suite (:mod:`repro.perf.harness`) measures moving the
*data*; this suite measures running the *programs* -- the other half of
the paper's Section 2 cost story.  Two measurements:

* **Strategy overhead**: the workload corpus runs under rewrite,
  emulation, and bridge against the Figure 4.4 restructuring at scaled
  database sizes, timed and costed against the native run of the source
  programs on the unrestructured database.  The paper's qualitative
  claim is checked in the report: emulation and bridge pay an overhead
  ratio above 1 while rewrite stays within a constant factor of native.

* **Indexed vs. linear relational execution**: a lookup-heavy
  relational workload runs twice against the same 10k-row instance --
  once with maintained secondary indexes, once with
  ``use_indexes=False`` -- asserting byte-identical I/O traces and
  reporting the wall-clock speedup.

Run via ``repro bench --suite programs`` (writes
``BENCH_programs.json``) or ``pytest benchmarks/perf -m perf``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from repro.core.analyzer_db import ConversionAnalyzer
from repro.engine.metrics import MetricsScope
from repro.jsonio import write_json_atomic
from repro.observe.export import profile_summary
from repro.observe.tracing import Tracer, span
from repro.programs import ast
from repro.programs import builder as b
from repro.programs.ast import Program
from repro.programs.interpreter import ProgramInputs, run_program
from repro.relational.database import RelationalDatabase
from repro.restructure import restructure_database
from repro.strategies import (
    BridgeStrategy,
    EmulationStrategy,
    RewriteStrategy,
)
from repro.workloads import company
from repro.workloads.corpus import CorpusProgram, CorpusSpec, generate_corpus

#: Database scales (employees per division) for the strategy sweep.
FULL_SCALES = (10, 40, 160)
SMOKE_SCALES = (10,)

#: Corpus size (programs per scale) for the strategy sweep.
FULL_PROGRAMS = 12
SMOKE_PROGRAMS = 6

#: Row count and statement count for the relational comparison.
FULL_RELATIONAL_ROWS = 10_000
FULL_RELATIONAL_STATEMENTS = 150
SMOKE_RELATIONAL_ROWS = 400
SMOKE_RELATIONAL_STATEMENTS = 20

#: Worker counts for the parallel batch scaling curve (E16/E17).
FULL_JOBS_CURVE = (1, 2, 4, 8)
SMOKE_JOBS_CURVE = (1, 2)

#: Inventory-corpus tiers for the parallel scaling measurement.  The
#: old 24-program corpus converted in ~26ms and measured nothing but
#: process spawn; these tiers are sized so the work dwarfs the pool
#: overhead (E17).
FULL_INVENTORY_TIERS = (1_000, 10_000)
SMOKE_INVENTORY_TIERS = (32,)

#: Report shape version.  2: ``parallel_scaling`` became multi-tier
#: (``tiers`` rows keyed by corpus size, each row recording the chunk
#: size next to the jobs curve) over the inventory workload.
#: 3: each tier row gained ``strategy_order`` (cost-ordered vs
#: fixed-order cascade wall-clock and time saved) and ``cost_model``
#: (predictor counters and calibrated accuracy) columns.
#: 4: the ``cost_model`` column and config key are gone; the
#: ``strategy_order`` column carries the rewrite-skip count.
BENCH_FORMAT = 4


#: Corpus kinds whose behaviour is preserved across all three
#: strategies.  STORE-based kinds (hire, guarded-store) are excluded:
#: under the restructured schema the new EMP's DEPT attachment goes
#: through set-occurrence selection, which is currency-dependent -- the
#: paper's connection pathology, a conversion-analysis subject (E11),
#: not an execution-cost one.
BENCH_KINDS = frozenset({"report", "lookup", "raise", "fire", "audit-file"})


def corpus_programs(seed: int = 1979,
                    size: int = FULL_PROGRAMS) -> list[CorpusProgram]:
    """The clean workload corpus the strategies replay (pathological
    shapes excluded: they need interactive inputs and their point is
    conversion *analysis*, not execution cost)."""
    pool = generate_corpus(CorpusSpec(seed=seed, size=size * 3,
                                      pathology_rate=0.0))
    return [item for item in pool if item.kind in BENCH_KINDS][:size]


def _run_all(run_one, programs: list[CorpusProgram]) -> list[str]:
    """Replay the corpus through ``run_one(program, inputs)``,
    returning one rendered trace per program."""
    traces = []
    for item in programs:
        inputs = ProgramInputs(terminal=list(item.terminal_inputs))
        traces.append(run_one(item.program, inputs))
    return traces


def measure_strategies(employees_per_division: int, seed: int = 1979,
                       programs: list[CorpusProgram] | None = None
                       ) -> dict[str, Any]:
    """One sweep row: native + three strategies over one corpus."""
    programs = programs if programs is not None else corpus_programs(seed)
    schema = company.figure_42_schema()
    operator = company.figure_44_operator()
    catalog = ConversionAnalyzer().analyze_operator(schema, operator)

    def fresh_target():
        source_db = company.company_db(
            seed=seed, employees_per_division=employees_per_division)
        _target_schema, target_db = restructure_database(source_db, operator)
        return target_db

    # Native baseline: the source programs on the source database.
    native_db = company.company_db(
        seed=seed, employees_per_division=employees_per_division)
    with MetricsScope(native_db.metrics) as native_scope, \
            span("bench.native", scale=employees_per_division):
        started = time.perf_counter()
        native_traces = _run_all(
            lambda program, inputs: run_program(
                program, native_db, inputs, consistent=False).render(),
            programs)
        native_seconds = time.perf_counter() - started
    native_cost = (native_scope.delta.total_accesses()
                   + native_scope.delta.emulation_mappings
                   + native_scope.delta.bridge_materializations)

    strategies = {
        "rewrite": lambda: RewriteStrategy(fresh_target(), schema, operator),
        "emulation": lambda: EmulationStrategy(fresh_target(), catalog),
        "bridge": lambda: BridgeStrategy(fresh_target(), operator, catalog),
    }
    result_strategies: dict[str, Any] = {}
    traces_match: dict[str, bool] = {}
    for name, factory in strategies.items():
        strategy = factory()
        cost = 0
        started = time.perf_counter()
        traces = []

        def run_one(program: Program, inputs: ProgramInputs) -> str:
            run = strategy.run(program, inputs)
            nonlocal cost
            cost += run.cost()
            return run.trace.render()

        with span(f"bench.{name}", scale=employees_per_division):
            traces = _run_all(run_one, programs)
        seconds = time.perf_counter() - started
        if name == "rewrite":
            # Rewrite carries the order-dependence warning: traces are
            # compared as multisets of lines, per program.
            matches = all(
                sorted(trace.splitlines()) == sorted(native.splitlines())
                for trace, native in zip(traces, native_traces)
            )
        else:
            matches = traces == native_traces
        traces_match[name] = matches
        result_strategies[name] = {
            "seconds": seconds,
            "cost": cost,
            "overhead_vs_native": (cost / native_cost
                                   if native_cost else float("inf")),
        }
    return {
        "employees_per_division": employees_per_division,
        "programs": len(programs),
        "native": {"seconds": native_seconds, "cost": native_cost},
        "strategies": result_strategies,
        "traces_match": traces_match,
    }


# ---------------------------------------------------------------------------
# Indexed vs. linear relational execution
# ---------------------------------------------------------------------------


def relational_workload(rows: int, statements: int,
                        seed: int = 1979) -> list[Program]:
    """A deterministic lookup-heavy relational program list.

    Mostly single-row equality work (lookups, updates, inserts) with
    one selective report, so the measured contrast is the equality
    access path, not full scans both sides pay identically.
    """
    del seed  # the workload is fully determined by rows/statements
    programs: list[Program] = []
    for index in range(statements):
        target = f"EMP-{(index * 37) % rows:05d}"
        kind = index % 3
        if kind == 0:
            programs.append(b.program(
                f"IDX-LOOKUP-{index:03d}", "relational", "COMPANY-NAME", [
                    b.query(
                        f"SELECT AGE FROM EMP WHERE EMP-NAME = '{target}'",
                        "$ROWS"),
                    ast.BindFirstRow("EMP", "$ROWS"),
                    b.if_(ast.status_ok(), [
                        b.display(target, b.v("EMP.AGE")),
                    ], [b.display("NOT FOUND")]),
                ]))
        elif kind == 1:
            programs.append(b.program(
                f"IDX-RAISE-{index:03d}", "relational", "COMPANY-NAME", [
                    b.rel_update("EMP", {"EMP-NAME": target},
                                 {"AGE": 21 + index % 40}),
                    b.display(b.v("DB-STATUS")),
                ]))
        else:
            programs.append(b.program(
                f"IDX-HIRE-{index:03d}", "relational", "COMPANY-NAME", [
                    b.rel_insert("EMP", **{
                        "EMP-NAME": f"IDX-NEW-{index:05d}",
                        "DEPT-NAME": "SALES",
                        "AGE": 30,
                        "DIV-NAME": "MACHINERY",
                    }),
                    b.display("HIRED", f"IDX-NEW-{index:05d}"),
                ]))
    programs.append(b.program(
        "IDX-REPORT", "relational", "COMPANY-NAME", [
            b.query("SELECT EMP-NAME, AGE FROM EMP WHERE AGE > 62 "
                    "ORDER BY EMP-NAME", "$ROWS"),
            b.for_each_row("ROW", "$ROWS", [
                b.display(b.v("ROW.EMP-NAME"), b.v("ROW.AGE")),
            ]),
            b.display("END-REPORT"),
        ]))
    return programs


def build_relational_db(rows: int, use_indexes: bool = True
                        ) -> RelationalDatabase:
    """A Figure 4.2 relational instance with ``rows`` employees."""
    schema = company.figure_42_schema()
    db = RelationalDatabase(schema, use_indexes=use_indexes)
    divisions = ["MACHINERY", "CHEMICAL"]
    departments = ["SALES", "ENG", "ADMIN", "PLANT"]
    db.insert_many("DIV", [
        {"DIV-NAME": name, "DIV-LOC": f"LOC-{index}"}
        for index, name in enumerate(divisions)
    ])
    db.insert_many("EMP", [
        {"EMP-NAME": f"EMP-{index:05d}",
         "DEPT-NAME": departments[index % len(departments)],
         "AGE": 18 + (index * 7) % 47,
         "DIV-NAME": divisions[index % len(divisions)]}
        for index in range(rows)
    ])
    return db


def compare_relational_execution(rows: int, statements: int,
                                 seed: int = 1979) -> dict[str, Any]:
    """Run the workload with and without indexes on identical data."""
    programs = relational_workload(rows, statements, seed)

    def run_suite(use_indexes: bool) -> tuple[float, list[str], dict]:
        db = build_relational_db(rows, use_indexes=use_indexes)
        variant = "indexed" if use_indexes else "linear"
        with MetricsScope(db.metrics) as scope, \
                span(f"bench.relational-{variant}", rows=rows):
            started = time.perf_counter()
            traces = [
                run_program(program, db, consistent=False).render()
                for program in programs
            ]
            seconds = time.perf_counter() - started
        return seconds, traces, scope.delta.snapshot()

    indexed_seconds, indexed_traces, indexed_stats = run_suite(True)
    linear_seconds, linear_traces, linear_stats = run_suite(False)
    return {
        "rows": rows,
        "statements": len(programs),
        "indexed_seconds": indexed_seconds,
        "linear_seconds": linear_seconds,
        "speedup": (linear_seconds / indexed_seconds
                    if indexed_seconds > 0 else float("inf")),
        "traces_identical": indexed_traces == linear_traces,
        "indexed_stats": indexed_stats,
        "linear_stats": linear_stats,
    }


# ---------------------------------------------------------------------------
# Parallel batch scaling (E16)
# ---------------------------------------------------------------------------


def measure_parallel_scaling(jobs_curve: tuple[int, ...] = FULL_JOBS_CURVE,
                             seed: int = 1979,
                             tiers: tuple[int, ...] = FULL_INVENTORY_TIERS,
                             pathology_rate: float = 0.25,
                             chunk_size: int | None = None
                             ) -> dict[str, Any]:
    """Wall-clock identical inventory batches at each worker count,
    at each corpus tier.

    Every run converts an identical inventory corpus (pathologies
    included -- fallbacks and failures must parallelize too) through a
    freshly restructured database pair, so within a tier the only
    variable is ``jobs``.  Every row records the resolved dispatch
    chunk size next to the worker count, and whether the run's reports
    came back byte-identical to the tier's 1-worker baseline -- the
    determinism guarantee the parallel executor is built on.

    ``parallel_threshold=1`` pins every multi-worker run onto the pool
    path: the point of the sweep is to *measure* the pool, so the
    auto-degrade heuristic must not silently reroute a small tier.

    Each tier also runs once serially in ``strategy_order="fixed"``
    mode; the tier row's ``strategy_order`` column records the
    wall-clock saved by the cost-ordered cascade (which must produce
    byte-identical reports) and how many rewrite attempts it skipped.
    """
    import json as _json

    from repro.options import ConversionOptions
    from repro.parallel import run_parallel_batch
    from repro.workloads.inventory import (
        InventorySpec,
        generate_inventory,
        inventory_cascade,
    )

    options = ConversionOptions(
        inputs=ProgramInputs(terminal=["STORE"]),
        chunk_size=chunk_size,
        parallel_threshold=1,
    )

    tier_rows: list[dict[str, Any]] = []
    for tier in tiers:
        spec = InventorySpec(seed=seed, programs=tier,
                             pathology_rate=pathology_rate)
        programs = [item.program for item in generate_inventory(spec)]
        # Fixed-order serial reference: every program pays the rewrite
        # attempt.  Runs first, so interpreter warm-up cannot flatter
        # the cost-ordered runs timed below.
        fixed_cascade = inventory_cascade(spec, strategy_order="fixed")
        started = time.perf_counter()
        with span("bench.fixed-order-batch", programs=len(programs)):
            fixed_batch = run_parallel_batch(
                fixed_cascade, programs,
                options.replace(jobs=1, strategy_order="fixed"))
        fixed_seconds = time.perf_counter() - started
        fixed_rendered = _json.dumps(
            [report.to_summary() for report in fixed_batch.reports])
        rows: list[dict[str, Any]] = []
        baseline_seconds: float | None = None
        baseline_reports: str | None = None
        cost_cascade = None
        for jobs in jobs_curve:
            cascade = inventory_cascade(spec)
            resolved_chunk = (
                options.resolved_chunk_size(len(programs), jobs)
                if jobs > 1 else None)
            started = time.perf_counter()
            with span("bench.parallel-batch", jobs=jobs,
                      programs=len(programs)):
                batch = run_parallel_batch(cascade, programs,
                                           options.replace(jobs=jobs))
            seconds = time.perf_counter() - started
            rendered = _json.dumps(
                [report.to_summary() for report in batch.reports])
            if baseline_seconds is None:
                baseline_seconds, baseline_reports = seconds, rendered
                cost_cascade = cascade
            rows.append({
                "jobs": jobs,
                "chunk_size": resolved_chunk,
                "seconds": seconds,
                "speedup_vs_serial": (baseline_seconds / seconds
                                      if seconds > 0 else float("inf")),
                "reports_identical": rendered == baseline_reports,
            })
        tier_rows.append({
            "programs": tier,
            "jobs": rows,
            "strategy_order": {
                "fixed_seconds": fixed_seconds,
                "cost_seconds": baseline_seconds,
                "speedup": (fixed_seconds / baseline_seconds
                            if baseline_seconds else float("inf")),
                "time_saved_pct": (
                    100.0 * (1.0 - baseline_seconds / fixed_seconds)
                    if fixed_seconds else 0.0),
                "reports_identical": fixed_rendered == baseline_reports,
                "rewrite_skips": cost_cascade.cost_counters.get(
                    "rewrite_skips"),
            },
        })
    return {
        "pathology_rate": pathology_rate,
        # Mode config the jobs curve ran under (the fixed-order row is
        # the per-tier reference): a mode change makes reports
        # incomparable, so bench --diff treats these as config keys.
        "strategy_order": "cost",
        "tiers": tier_rows,
    }


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def run_programs_benchmark(scales: tuple[int, ...] = FULL_SCALES,
                           seed: int = 1979,
                           corpus_size: int = FULL_PROGRAMS,
                           relational_rows: int = FULL_RELATIONAL_ROWS,
                           relational_statements: int =
                           FULL_RELATIONAL_STATEMENTS,
                           jobs_curve: tuple[int, ...] = FULL_JOBS_CURVE,
                           parallel_tiers: tuple[int, ...] =
                           FULL_INVENTORY_TIERS) -> dict[str, Any]:
    """The full BENCH_programs.json report dict.

    The whole run executes under a tracer; the per-stage profile rides
    in the report as ``trace_summary``.  The parallel scaling sweep
    runs *outside* the tracer: its point is wall-clock at each worker
    count, and merging every worker's span forest into the report
    trace would swamp the profile table."""
    programs = corpus_programs(seed, corpus_size)
    tracer = Tracer()
    with tracer:
        measured_scales = [
            measure_strategies(size, seed, programs) for size in scales
        ]
        relational = compare_relational_execution(
            relational_rows, relational_statements, seed)
    parallel = measure_parallel_scaling(jobs_curve, seed, parallel_tiers)
    from repro.catalog import default_catalog

    catalog = default_catalog()
    return {
        "suite": "programs",
        "bench_format": BENCH_FORMAT,
        "schema": "COMPANY (Figure 4.2), restructured per Figure 4.4",
        "rule_catalog": {
            "name": catalog.name,
            "version": catalog.version,
            "identity": catalog.identity(),
        },
        "seed": seed,
        "scales": measured_scales,
        "relational_index_comparison": relational,
        "parallel_scaling": parallel,
        "trace_summary": profile_summary(tracer, top=12),
    }


def write_programs_report(report: dict[str, Any],
                          out_path: str | Path) -> Path:
    """Serialize a report (canonical name: ``BENCH_programs.json``),
    atomically, creating parent dirs."""
    return write_json_atomic(report, out_path)


def summarize_programs(report: dict[str, Any]) -> str:
    """A small human-readable table of the report."""
    lines = [
        "programs benchmark -- strategy overhead vs native "
        "(cost = access-path length)",
        f"{'emp/div':>8}  {'native':>9}  {'rewrite':>9}  {'emulation':>9}"
        f"  {'bridge':>9}  {'traces':>7}",
    ]
    for entry in report["scales"]:
        strategies = entry["strategies"]
        ok = "ok" if all(entry["traces_match"].values()) else "DIVERGED"
        lines.append(
            f"{entry['employees_per_division']:>8}"
            f"  {entry['native']['cost']:>9}"
            f"  {strategies['rewrite']['cost']:>9}"
            f"  {strategies['emulation']['cost']:>9}"
            f"  {strategies['bridge']['cost']:>9}"
            f"  {ok:>7}"
        )
    comparison = report["relational_index_comparison"]
    identical = "identical" if comparison["traces_identical"] \
        else "DIVERGED"
    lines.append(
        f"relational execution at {comparison['rows']} rows: "
        f"indexed {comparison['indexed_seconds']:.3f}s vs linear "
        f"{comparison['linear_seconds']:.3f}s "
        f"({comparison['speedup']:.1f}x, traces {identical})"
    )
    parallel = report.get("parallel_scaling")
    if parallel:
        for tier in parallel["tiers"]:
            curve = ", ".join(
                f"{row['jobs']}w {row['seconds']:.3f}s "
                f"({row['speedup_vs_serial']:.2f}x"
                f"{'' if row['reports_identical'] else ', REPORTS DIVERGED'})"
                for row in tier["jobs"]
            )
            lines.append(
                f"parallel inventory scaling at {tier['programs']} "
                f"programs: {curve}"
            )
            order = tier.get("strategy_order")
            if order:
                identical = ("identical" if order["reports_identical"]
                             else "DIVERGED")
                lines.append(
                    f"cost-ordered cascade at {tier['programs']} "
                    f"programs: fixed {order['fixed_seconds']:.3f}s vs "
                    f"cost {order['cost_seconds']:.3f}s "
                    f"({order['speedup']:.2f}x, "
                    f"{order['time_saved_pct']:.0f}% saved, "
                    f"{order['rewrite_skips']} rewrite skips, "
                    f"reports {identical})"
                )
    return "\n".join(lines)
