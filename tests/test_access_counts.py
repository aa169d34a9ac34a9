"""Pinned access counts of the strategy sweep.

The paper's efficiency claim (Section 2.1.2) is argued in counted data
accesses: ``strategy-sweep`` ranks the strategies by
``StrategyRun.cost()`` and reports ``strategies.*.cost_ratio``,
``engine.emulation_mappings`` and ``engine.bridge_materializations``
from the :class:`~repro.engine.metrics.Metrics` deltas of each run.  A
change that makes the network engine faster must not move one of those
counters, so this test pins every counter of every run: two COMPANY
programs of each replayable kind, natively and under rewrite,
emulation and bridge, each run rolled back as the benchmark does, plus
the counters the database build and the restructuring leave behind.
The corpus names its lookup and fire targets at random, so almost none
exists; a copy of each such program that names a stored employee also
runs, so a GET after FIND ANY and an ERASE are pinned too.

The pinned values were recorded before the engine's per-verb costs
were cut (O(1) set navigation, field lookup by name, one key per
member in the bulk reload); regenerate them only for a change that
means to move a count, and say so.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.analyzer_db import ConversionAnalyzer
from repro.engine.metrics import MetricsScope
from repro.perf.programs import BENCH_KINDS, corpus_programs
from repro.programs import ast
from repro.programs.interpreter import ProgramInputs, run_program
from repro.restructure import restructure_database
from repro.strategies import BridgeStrategy, EmulationStrategy, RewriteStrategy
from repro.workloads import company

SEED = 1979
EMPLOYEES_PER_DIVISION = 12
PROGRAMS_PER_KIND = 2
STRATEGIES = ("native", "rewrite", "emulation", "bridge")
#: Kinds whose program opens with ``FIND ANY EMP USING EMP-NAME``.
LOOKUP_KINDS = ("fire", "lookup")


def hitting(program: ast.Program, employee: str) -> ast.Program:
    """``program`` with its opening FIND ANY naming ``employee``."""
    find_any, *rest = program.statements
    found = replace(find_any, using=(("EMP-NAME", ast.Const(employee)),))
    return replace(program, name=f"{program.name}-HIT",
                   statements=(found, *rest))


def measure() -> dict[str, dict[str, int]]:
    """Every non-zero counter of the build and of each run, by name."""
    schema = company.figure_42_schema()
    operator = company.figure_44_operator()
    catalog = ConversionAnalyzer().analyze_operator(schema, operator)
    source = company.company_db(seed=SEED,
                                employees_per_division=EMPLOYEES_PER_DIVISION)
    _schema, target = restructure_database(source, operator)
    counts = {"build:source": source.metrics.snapshot(),
              "build:target": target.metrics.snapshot()}
    runners = {
        "rewrite": RewriteStrategy(target, schema, operator),
        "emulation": EmulationStrategy(target, catalog),
        "bridge": BridgeStrategy(target, operator, catalog),
    }
    employee = source.store("EMP").peek(1).values["EMP-NAME"]
    by_kind: dict[str, list] = {}
    for item in corpus_programs(SEED, 30):
        by_kind.setdefault(item.kind, []).append(item)
    programs = []
    for kind in sorted(BENCH_KINDS):
        chosen = by_kind[kind][:PROGRAMS_PER_KIND]
        programs.extend(item.program for item in chosen)
        if kind in LOOKUP_KINDS:
            programs.append(hitting(chosen[0].program, employee))
    for program in programs:
        for name in STRATEGIES:
            db = source if name == "native" else target
            savepoint = db.savepoint()
            if name == "native":
                with MetricsScope(source.metrics) as scope:
                    run_program(program, source, ProgramInputs(),
                                consistent=False)
                delta = scope.delta
            else:
                delta = runners[name].run(program, ProgramInputs()).metrics
            db.rollback(savepoint)
            if name == "bridge":
                # A dirty run retranslates into a new target; every run
                # starts from the original one.
                runners[name].target_db = target
            counts[f"{program.name}:{name}"] = delta.snapshot()
    return {key: {counter: value for counter, value in snapshot.items()
                  if value}
            for key, snapshot in counts.items()}


PINNED: dict[str, dict[str, int]] = {
    "build:source": {
        "records_read": 24,
        "records_written": 26,
        "index_probes": 24,
        "set_traversals": 26,
        "dml_calls": 26,
    },
    "build:target": {
        "records_written": 34,
        "set_traversals": 34,
    },
    "AUDIT-FILE-002:native": {
        "records_read": 37,
        "index_probes": 1,
        "set_traversals": 25,
        "dml_calls": 26,
    },
    "AUDIT-FILE-002:rewrite": {
        "records_read": 65,
        "index_probes": 1,
        "set_traversals": 57,
        "dml_calls": 34,
    },
    "AUDIT-FILE-002:emulation": {
        "records_read": 73,
        "index_probes": 1,
        "set_traversals": 52,
        "dml_calls": 26,
        "emulation_mappings": 1,
        "sort_operations": 1,
    },
    "AUDIT-FILE-002:bridge": {
        "records_read": 37,
        "records_written": 26,
        "index_probes": 1,
        "set_traversals": 51,
        "dml_calls": 26,
        "bridge_materializations": 26,
    },
    "AUDIT-FILE-012:native": {
        "records_read": 37,
        "index_probes": 1,
        "set_traversals": 25,
        "dml_calls": 26,
    },
    "AUDIT-FILE-012:rewrite": {
        "records_read": 65,
        "index_probes": 1,
        "set_traversals": 57,
        "dml_calls": 34,
    },
    "AUDIT-FILE-012:emulation": {
        "records_read": 73,
        "index_probes": 1,
        "set_traversals": 52,
        "dml_calls": 26,
        "emulation_mappings": 1,
        "sort_operations": 1,
    },
    "AUDIT-FILE-012:bridge": {
        "records_read": 37,
        "records_written": 26,
        "index_probes": 1,
        "set_traversals": 51,
        "dml_calls": 26,
        "bridge_materializations": 26,
    },
    "FIRE-006:native": {
        "index_probes": 1,
        "dml_calls": 1,
    },
    "FIRE-006:rewrite": {
        "index_probes": 1,
        "dml_calls": 1,
    },
    "FIRE-006:emulation": {
        "index_probes": 1,
        "dml_calls": 1,
    },
    "FIRE-006:bridge": {
        "records_written": 26,
        "index_probes": 1,
        "set_traversals": 26,
        "dml_calls": 1,
        "bridge_materializations": 26,
    },
    "FIRE-009:native": {
        "index_probes": 1,
        "dml_calls": 1,
    },
    "FIRE-009:rewrite": {
        "index_probes": 1,
        "dml_calls": 1,
    },
    "FIRE-009:emulation": {
        "index_probes": 1,
        "dml_calls": 1,
    },
    "FIRE-009:bridge": {
        "records_written": 26,
        "index_probes": 1,
        "set_traversals": 26,
        "dml_calls": 1,
        "bridge_materializations": 26,
    },
    "FIRE-006-HIT:native": {
        "records_read": 1,
        "records_deleted": 1,
        "index_probes": 1,
        "dml_calls": 2,
    },
    "FIRE-006-HIT:rewrite": {
        "records_read": 1,
        "records_deleted": 1,
        "index_probes": 1,
        "dml_calls": 2,
    },
    "FIRE-006-HIT:emulation": {
        "records_read": 1,
        "records_deleted": 1,
        "index_probes": 1,
        "dml_calls": 2,
        "emulation_mappings": 1,
    },
    "FIRE-006-HIT:bridge": {
        "records_read": 1,
        "records_written": 59,
        "records_deleted": 1,
        "index_probes": 1,
        "set_traversals": 59,
        "dml_calls": 2,
        "bridge_materializations": 59,
    },
    "LOOKUP-000:native": {
        "index_probes": 1,
        "dml_calls": 1,
    },
    "LOOKUP-000:rewrite": {
        "index_probes": 1,
        "dml_calls": 1,
    },
    "LOOKUP-000:emulation": {
        "index_probes": 1,
        "dml_calls": 1,
    },
    "LOOKUP-000:bridge": {
        "records_written": 26,
        "index_probes": 1,
        "set_traversals": 26,
        "dml_calls": 1,
        "bridge_materializations": 26,
    },
    "LOOKUP-005:native": {
        "index_probes": 1,
        "dml_calls": 1,
    },
    "LOOKUP-005:rewrite": {
        "index_probes": 1,
        "dml_calls": 1,
    },
    "LOOKUP-005:emulation": {
        "index_probes": 1,
        "dml_calls": 1,
    },
    "LOOKUP-005:bridge": {
        "records_written": 26,
        "index_probes": 1,
        "set_traversals": 26,
        "dml_calls": 1,
        "bridge_materializations": 26,
    },
    "LOOKUP-000-HIT:native": {
        "records_read": 3,
        "index_probes": 1,
        "set_traversals": 1,
        "dml_calls": 2,
    },
    "LOOKUP-000-HIT:rewrite": {
        "records_read": 5,
        "index_probes": 1,
        "set_traversals": 3,
        "dml_calls": 2,
    },
    "LOOKUP-000-HIT:emulation": {
        "records_read": 5,
        "index_probes": 1,
        "set_traversals": 3,
        "dml_calls": 2,
    },
    "LOOKUP-000-HIT:bridge": {
        "records_read": 3,
        "records_written": 26,
        "index_probes": 1,
        "set_traversals": 27,
        "dml_calls": 2,
        "bridge_materializations": 26,
    },
    "RAISE-020:native": {
        "records_read": 37,
        "records_written": 3,
        "index_probes": 1,
        "set_traversals": 25,
        "dml_calls": 29,
    },
    "RAISE-020:rewrite": {
        "records_read": 41,
        "records_written": 3,
        "index_probes": 1,
        "set_traversals": 42,
        "dml_calls": 39,
    },
    "RAISE-020:emulation": {
        "records_read": 73,
        "records_written": 3,
        "index_probes": 1,
        "set_traversals": 52,
        "dml_calls": 29,
        "emulation_mappings": 4,
        "sort_operations": 1,
    },
    "RAISE-020:bridge": {
        "records_read": 37,
        "records_written": 63,
        "index_probes": 1,
        "set_traversals": 85,
        "dml_calls": 29,
        "bridge_materializations": 60,
    },
    "RAISE-037:native": {
        "records_read": 37,
        "records_written": 3,
        "index_probes": 1,
        "set_traversals": 25,
        "dml_calls": 29,
    },
    "RAISE-037:rewrite": {
        "records_read": 41,
        "records_written": 3,
        "index_probes": 1,
        "set_traversals": 42,
        "dml_calls": 39,
    },
    "RAISE-037:emulation": {
        "records_read": 73,
        "records_written": 3,
        "index_probes": 1,
        "set_traversals": 52,
        "dml_calls": 29,
        "emulation_mappings": 4,
        "sort_operations": 1,
    },
    "RAISE-037:bridge": {
        "records_read": 37,
        "records_written": 63,
        "index_probes": 1,
        "set_traversals": 85,
        "dml_calls": 29,
        "bridge_materializations": 60,
    },
    "REPORT-007:native": {
        "records_read": 37,
        "index_probes": 1,
        "set_traversals": 25,
        "dml_calls": 26,
    },
    "REPORT-007:rewrite": {
        "records_read": 65,
        "index_probes": 1,
        "set_traversals": 57,
        "dml_calls": 34,
    },
    "REPORT-007:emulation": {
        "records_read": 73,
        "index_probes": 1,
        "set_traversals": 52,
        "dml_calls": 26,
        "emulation_mappings": 1,
        "sort_operations": 1,
    },
    "REPORT-007:bridge": {
        "records_read": 37,
        "records_written": 26,
        "index_probes": 1,
        "set_traversals": 51,
        "dml_calls": 26,
        "bridge_materializations": 26,
    },
    "REPORT-011:native": {
        "records_read": 37,
        "index_probes": 1,
        "set_traversals": 25,
        "dml_calls": 26,
    },
    "REPORT-011:rewrite": {
        "records_read": 65,
        "index_probes": 1,
        "set_traversals": 57,
        "dml_calls": 34,
    },
    "REPORT-011:emulation": {
        "records_read": 73,
        "index_probes": 1,
        "set_traversals": 52,
        "dml_calls": 26,
        "emulation_mappings": 1,
        "sort_operations": 1,
    },
    "REPORT-011:bridge": {
        "records_read": 37,
        "records_written": 26,
        "index_probes": 1,
        "set_traversals": 51,
        "dml_calls": 26,
        "bridge_materializations": 26,
    },
}


@pytest.fixture(scope="module")
def measured() -> dict[str, dict[str, int]]:
    return measure()


def test_every_run_is_pinned(measured):
    assert sorted(measured) == sorted(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_counts_match_the_pinned_values(measured, key):
    assert measured[key] == PINNED[key]
