"""Programs perf suite entry points (see src/repro/perf/programs.py).

The smoke test runs one small scale and checks the report's shape and
invariants.  The full run -- marked ``perf`` and excluded from tier-1
-- sweeps three database scales plus the 10k-row relational corpus,
asserts the paper's qualitative overhead ordering (emulation and
bridge cost more than native, rewrite stays within a constant factor)
and a >= 5x indexed-over-linear execution speedup, and (re)writes the
repo baseline ``BENCH_programs.json``::

    pytest benchmarks/perf -m perf -s

The parallel scaling gates run on the inventory tiers (E17): the mid
tier (>= 1k programs) must reach 2x at 4 workers, the 10k tier must
reach 2x at 4 and 3x at 8.  Both are CPU-gated -- wall-clock speedup
on a 1-CPU container proves nothing, so they self-skip there while the
byte-identity assertions run everywhere.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.perf.programs import (
    SMOKE_INVENTORY_TIERS,
    SMOKE_JOBS_CURVE,
    SMOKE_PROGRAMS,
    SMOKE_RELATIONAL_ROWS,
    SMOKE_RELATIONAL_STATEMENTS,
    SMOKE_SCALES,
    measure_parallel_scaling,
    run_programs_benchmark,
    summarize_programs,
    write_programs_report,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "BENCH_programs.json"

# Rewrite executes the converted program natively on the target; its
# access-path length stays within a small constant factor of the
# source program's while emulation pays mapping overhead on every call
# and bridge pays reconstruction.  4x leaves headroom over the ~1.8x
# observed without tracking it exactly.
REWRITE_FACTOR = 4.0


def _check_report_shape(report: dict) -> None:
    assert report["suite"] == "programs"
    assert report["bench_format"] == 4
    for entry in report["scales"]:
        native_cost = entry["native"]["cost"]
        assert native_cost > 0
        strategies = entry["strategies"]
        assert set(strategies) == {"rewrite", "emulation", "bridge"}
        # The paper's qualitative claim: converted execution is never
        # free -- emulation and bridge pay an overhead ratio above 1 --
        # while rewrite stays within a constant factor of native.
        assert strategies["emulation"]["cost"] > native_cost
        assert strategies["bridge"]["cost"] > native_cost
        assert strategies["rewrite"]["cost"] <= REWRITE_FACTOR * native_cost
        # Behaviour preservation across the conversion.
        assert entry["traces_match"] == {
            "rewrite": True, "emulation": True, "bridge": True,
        }
    comparison = report["relational_index_comparison"]
    assert comparison["traces_identical"], (
        "indexed and linear execution produced different IO traces"
    )
    assert comparison["indexed_stats"]["index_hits"] > 0
    assert comparison["linear_stats"]["index_hits"] == 0
    scaling = report["parallel_scaling"]
    assert scaling["tiers"], "scaling sweep must cover at least one tier"
    for tier in scaling["tiers"]:
        assert tier["programs"] > 0
        assert [row["jobs"] for row in tier["jobs"]]
        for row in tier["jobs"]:
            assert row["seconds"] > 0
            assert "chunk_size" in row
            # Determinism is non-negotiable at every worker count; the
            # *speedup* is asserted only in the perf-marked, CPU-gated
            # scaling tests (wall-clock on shared/1-CPU runners proves
            # nothing).
            assert row["reports_identical"], (
                f"tier {tier['programs']}: jobs={row['jobs']} reports "
                "diverged from the 1-worker run"
            )
        # Strategy-order column.  The *speedup* over the fixed order is
        # asserted only in the perf-marked gate below; byte-identity
        # between the orders is non-negotiable.
        order = tier["strategy_order"]
        assert order["fixed_seconds"] > 0
        assert order["cost_seconds"] > 0
        assert order["reports_identical"], (
            f"tier {tier['programs']}: cost-ordered reports diverged "
            "from the fixed-order run"
        )
        assert order["rewrite_skips"] >= 0


def test_programs_smoke(tmp_path):
    report = run_programs_benchmark(
        scales=SMOKE_SCALES,
        corpus_size=SMOKE_PROGRAMS,
        relational_rows=SMOKE_RELATIONAL_ROWS,
        relational_statements=SMOKE_RELATIONAL_STATEMENTS,
        jobs_curve=SMOKE_JOBS_CURVE,
        parallel_tiers=SMOKE_INVENTORY_TIERS,
    )
    _check_report_shape(report)
    out = write_programs_report(report, tmp_path / "BENCH_programs.json")
    assert out.exists()


@pytest.mark.perf
def test_programs_full_writes_baseline():
    report = run_programs_benchmark()
    _check_report_shape(report)
    comparison = report["relational_index_comparison"]
    assert comparison["rows"] == 10_000
    assert comparison["speedup"] >= 5, (
        f"indexed execution only {comparison['speedup']:.1f}x faster "
        "than use_indexes=False on the 10k-row corpus"
    )
    write_programs_report(report, BASELINE)
    print()
    print(summarize_programs(report))


def _scaling_rows(tiers: tuple[int, ...],
                  jobs_curve: tuple[int, ...]) -> dict[int, dict]:
    scaling = measure_parallel_scaling(jobs_curve=jobs_curve, tiers=tiers)
    (tier,) = scaling["tiers"]
    return {row["jobs"]: row for row in tier["jobs"]}


@pytest.mark.perf
def test_cost_order_beats_fixed_order_on_pathological_tier():
    """The COBRA acceptance gate: on a 1k-program inventory tier at
    pathology_rate=0.75, the cost-ordered cascade must run >= 1.3x
    faster end-to-end than the fixed rewrite-first order while
    producing byte-identical reports.  CPU-gated: wall-clock on a
    shared 1-CPU runner proves nothing."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs >= 2 CPUs for a meaningful wall-clock gate")
    scaling = measure_parallel_scaling(jobs_curve=(1,), tiers=(1_000,),
                                       pathology_rate=0.75)
    (tier,) = scaling["tiers"]
    order = tier["strategy_order"]
    assert order["reports_identical"], (
        "cost-ordered reports diverged from the fixed-order run"
    )
    assert order["speedup"] >= 1.3, (
        f"cost order only {order['speedup']:.2f}x faster than fixed "
        "order on the pathological 1k tier"
    )
    assert order["rewrite_skips"] > 0, (
        "the pathological tier must exercise the rewrite-skip path"
    )


@pytest.mark.perf
def test_parallel_scaling_mid_tier_reaches_2x_at_4_workers():
    """The CI scaling gate: >= 1k programs (real work, not spawn
    overhead), >= 2x at 4 workers.  CPU-gated: meaningless below 4
    cores, where the pool just timeslices one CPU."""
    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs >= 4 CPUs for a meaningful scaling curve")
    by_jobs = _scaling_rows(tiers=(1_000,), jobs_curve=(1, 4))
    assert by_jobs[4]["reports_identical"]
    assert by_jobs[4]["speedup_vs_serial"] >= 2.0, (
        f"4 workers only {by_jobs[4]['speedup_vs_serial']:.2f}x faster "
        "on the 1k-program tier"
    )


@pytest.mark.perf
def test_parallel_scaling_10k_tier_reaches_acceptance_targets():
    """The acceptance gate: on the 10k-program tier, 4 workers >= 2x
    and 8 workers >= 3x over serial."""
    if (os.cpu_count() or 1) < 8:
        pytest.skip("needs >= 8 CPUs for the 8-worker acceptance gate")
    by_jobs = _scaling_rows(tiers=(10_000,), jobs_curve=(1, 4, 8))
    for jobs, floor in ((4, 2.0), (8, 3.0)):
        assert by_jobs[jobs]["reports_identical"]
        assert by_jobs[jobs]["speedup_vs_serial"] >= floor, (
            f"{jobs} workers only "
            f"{by_jobs[jobs]['speedup_vs_serial']:.2f}x faster on the "
            "10k-program tier"
        )
