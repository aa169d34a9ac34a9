"""Speedup floors: the minimum speedups the ``-m perf`` tests assert.

Each floor times its two sides directly and asserts the ratio.  Tier-1
never runs these tests; run them on an otherwise idle host with::

    PYTHONPATH=src python -m pytest benchmarks/perf -m perf -rs

A floor with a CPU gate skips on a host with fewer CPUs, where a
wall-clock ratio proves nothing.  The floors are:

* indexed hierarchical load >= 10x ``use_indexes=False``, on the
  10k-row chain snapshot after ``PERF_OPERATOR``;
* indexed relational execution >= 5x ``use_indexes=False``, on 10k
  rows and 150 statements with identical traces;
* the rewrite skip >= 1.3x a cascade whose check never blocks, on
  the 1k inventory tier at ``pathology_rate=0.75``, byte-identical
  reports (>= 2 CPUs);
* 4 workers >= 2x serial on the 1k tier (>= 4 CPUs);
* 4 and 8 workers >= 2x and >= 3x serial on the 10k tier (>= 8 CPUs).

The one unmarked test checks the relational floor's two sides at a
small size, so ``pytest benchmarks -m "not perf"`` covers this module.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import api
from repro.engine.metrics import Metrics, MetricsScope
from repro.options import ConversionOptions
from repro.programs import ast
from repro.programs import builder as b
from repro.programs.ast import Program
from repro.programs.interpreter import ProgramInputs, run_program
from repro.relational.database import RelationalDatabase
from repro.restructure.translator import load_hierarchical
from repro.workloads import company
from repro.workloads.chain import PERF_OPERATOR, build_snapshot, perf_schema
from repro.workloads.inventory import (
    InventorySpec,
    generate_inventory,
    inventory_cascade,
)


def requires_cpus(count: int) -> None:
    if (os.cpu_count() or 1) < count:
        pytest.skip(f"needs >= {count} CPUs for a meaningful wall-clock floor")


def timed(call, *args):
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    result = call(*args)
    return time.perf_counter() - started, result


# -- indexed hierarchical load -----------------------------------------


@pytest.mark.perf
def test_indexed_hierarchical_load_is_10x_the_linear_scan():
    """Each parent lookup of the load probes the snapshot's owner
    index; ``use_indexes=False`` restores the seed's linear link scan,
    which makes the whole load quadratic."""
    schema = perf_schema()
    target_schema = PERF_OPERATOR.apply_schema(schema)
    snapshot = PERF_OPERATOR.translate(build_snapshot(10_000), schema,
                                       target_schema)
    indexed = snapshot.copy()
    linear = snapshot.copy()
    linear.use_indexes = False
    indexed_seconds, _ = timed(load_hierarchical, target_schema, indexed,
                               Metrics())
    linear_seconds, _ = timed(load_hierarchical, target_schema, linear,
                              Metrics())
    assert indexed.stats.link_scans == 0
    assert linear.stats.link_scans > 0
    speedup = linear_seconds / indexed_seconds
    assert speedup >= 10, (
        f"indexed hierarchical load only {speedup:.1f}x faster than "
        "use_indexes=False at 10k rows"
    )


# -- indexed relational execution --------------------------------------


def relational_workload(rows: int, statements: int) -> list[Program]:
    """A deterministic lookup-heavy relational program list.

    Mostly single-row equality work (lookups, updates, inserts) with
    one selective report, so the measured contrast is the equality
    access path, not full scans both sides pay identically.
    """
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


def run_relational(rows: int, statements: int, use_indexes: bool):
    """``(seconds, traces, counter delta)`` of the workload on a fresh
    instance; only the program runs are timed."""
    programs = relational_workload(rows, statements)
    db = build_relational_db(rows, use_indexes=use_indexes)
    with MetricsScope(db.metrics) as scope:
        seconds, traces = timed(lambda: [
            run_program(program, db, consistent=False).render()
            for program in programs
        ])
    return seconds, traces, scope.delta


def test_relational_traces_match_with_and_without_indexes():
    _, indexed_traces, indexed = run_relational(400, 20, use_indexes=True)
    _, linear_traces, linear = run_relational(400, 20, use_indexes=False)
    assert indexed_traces == linear_traces
    assert indexed.index_hits > 0
    assert linear.index_hits == 0


@pytest.mark.perf
def test_indexed_relational_execution_is_5x_the_linear_path():
    indexed_seconds, indexed_traces, _ = run_relational(
        10_000, 150, use_indexes=True)
    linear_seconds, linear_traces, _ = run_relational(
        10_000, 150, use_indexes=False)
    assert indexed_traces == linear_traces
    speedup = linear_seconds / indexed_seconds
    assert speedup >= 5, (
        f"indexed execution only {speedup:.1f}x faster than "
        "use_indexes=False on 10k rows"
    )


# -- inventory batches: cost order and worker counts -------------------


class NeverBlocking:
    """A ``cascade.predictor`` double whose check never blocks, so the
    cascade pays for every rewrite attempt."""

    def predict(self, program):
        return ()


def inventory_batch(spec: InventorySpec, programs: list[Program],
                    jobs: int = 1, skip: bool = True):
    """``(seconds, report bytes, cascade)`` of one inventory batch on a
    freshly built cascade; only the conversion is timed.  ``skip=False``
    swaps in :class:`NeverBlocking` (serial batches only)."""
    cascade = inventory_cascade(spec)
    if not skip:
        cascade.predictor = NeverBlocking()
    options = ConversionOptions(inputs=ProgramInputs(terminal=["STORE"]),
                                parallel_threshold=1, jobs=jobs)
    seconds, batch = timed(api.convert_batch, cascade, programs, options)
    reports = json.dumps([report.to_summary() for report in batch.reports])
    return seconds, reports, cascade


def inventory_programs(spec: InventorySpec) -> list[Program]:
    return [item.program for item in generate_inventory(spec)]


@pytest.mark.perf
def test_cost_order_is_1_3x_fixed_order_on_the_pathological_tier():
    """The cascade skips rewrite attempts that static analysis proves
    would be refused, and must still produce the reports of a cascade
    that pays for every attempt, byte for byte."""
    requires_cpus(2)
    spec = InventorySpec(seed=1979, programs=1_000, pathology_rate=0.75)
    programs = inventory_programs(spec)
    # The no-skip side first, so interpreter warm-up cannot flatter
    # the skipping run.
    no_skip_seconds, no_skip_reports, _ = inventory_batch(
        spec, programs, skip=False)
    cost_seconds, cost_reports, cascade = inventory_batch(spec, programs)
    assert cost_reports == no_skip_reports
    assert cascade.cost_counters.get("rewrite_skips") > 0
    speedup = no_skip_seconds / cost_seconds
    assert speedup >= 1.3, (
        f"the rewrite skip only {speedup:.2f}x faster than no skip on "
        "the pathological 1k tier"
    )


def worker_speedups(tier: int, worker_counts: tuple[int, ...]
                    ) -> dict[int, float]:
    """Speedup over serial per worker count, on one inventory tier;
    every run's reports must match the serial run's bytes."""
    spec = InventorySpec(seed=1979, programs=tier, pathology_rate=0.25)
    programs = inventory_programs(spec)
    serial_seconds, serial_reports, _ = inventory_batch(spec, programs)
    speedups = {}
    for jobs in worker_counts:
        seconds, reports, _ = inventory_batch(spec, programs, jobs=jobs)
        assert reports == serial_reports, f"{jobs} workers diverged"
        speedups[jobs] = serial_seconds / seconds
    return speedups


@pytest.mark.perf
def test_4_workers_are_2x_serial_on_the_1k_tier():
    requires_cpus(4)
    speedup = worker_speedups(1_000, (4,))[4]
    assert speedup >= 2.0, (
        f"4 workers only {speedup:.2f}x faster on the 1k-program tier")


@pytest.mark.perf
def test_4_and_8_workers_are_2x_and_3x_serial_on_the_10k_tier():
    requires_cpus(8)
    speedups = worker_speedups(10_000, (4, 8))
    for jobs, floor in ((4, 2.0), (8, 3.0)):
        assert speedups[jobs] >= floor, (
            f"{jobs} workers only {speedups[jobs]:.2f}x faster on the "
            "10k-program tier"
        )
