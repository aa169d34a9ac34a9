"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed and the workload sizes:
the program under test only ever receives the generated artifacts
(DDL text, restructuring spec text, a loader program, program ASTs or
program texts), exactly as a user of ``repro convert`` or of the
conversion service would hand them over.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.perf.programs import BENCH_KINDS, corpus_programs
from repro.restructure.spec import format_spec
from repro.workloads.company import figure_44_operator
from repro.workloads.corpus import CorpusProgram
from repro.workloads.datagen import DataGen
from repro.workloads.inventory import (
    CLEAN_KINDS,
    INVENTORY_PATHOLOGY_KINDS,
    STORE_KINDS,
    InventorySpec,
    asset_record,
    asset_tag,
    department_name,
    division_name,
    employee_name,
    generate_inventory,
)

#: Terminal input every inventory probe replays: the verb the
#: bulk-sweep and verb-variability shapes ACCEPT.
TERMINAL_INPUTS = ("STORE",)

#: The generated pool is this many times the corpus size, so every
#: kind has more candidates than its quota.
POOL_FACTOR = 3


def restructuring_spec() -> str:
    """The Figure 4.4 DEPT interposition as spec text."""
    return format_spec(figure_44_operator())


def loader_text(spec: InventorySpec) -> str:
    """A loader program whose STOREs rebuild ``inventory_database(spec)``.

    It draws from :class:`DataGen` in the order the inventory builder
    does (a city per division, an age per employee, a cost per asset
    row), so the loaded database holds the same records, rids and set
    occurrences.
    """
    gen = DataGen(spec.seed)
    lines = ["PROGRAM INVENTORY-LOADER (network / INVENTORY)."]
    for d_index in range(spec.divisions):
        division = division_name(d_index)
        lines.append(
            f"  STORE DIV (DIV-NAME='{division}', DIV-LOC='{gen.city()}').")
        for e_index in range(spec.employees_per_division):
            dept = department_name(e_index % spec.departments_per_division)
            lines.append(
                f"  STORE EMP (EMP-NAME='{employee_name(d_index, e_index)}',"
                f" DEPT-NAME='{dept}', AGE={gen.age()},"
                f" DIV-NAME='{division}').")
        for r_index in range(spec.satellite_records):
            record = asset_record(r_index)
            for row in range(spec.satellite_rows):
                tag = asset_tag(r_index, d_index, row)
                cost = gen.int_between(100, 999_999)
                lines.append(
                    f"  STORE {record} ({record}-TAG='{tag}',"
                    f" {record}-COST={cost}, DIV-NAME='{division}').")
    return "\n".join(lines) + "\n"


def inventory_shares(spec: InventorySpec) -> dict[str, float]:
    """The expected share of each program kind under ``spec``: the
    generator draws pathologies at ``pathology_rate``, then store shapes
    at ``store_rate``, each kind uniformly within its group."""
    shares: dict[str, float] = {}
    clean = 1.0 - spec.pathology_rate
    for kind in INVENTORY_PATHOLOGY_KINDS:
        shares[kind] = spec.pathology_rate / len(INVENTORY_PATHOLOGY_KINDS)
    for kind in STORE_KINDS:
        shares[kind] = clean * spec.store_rate / len(STORE_KINDS)
    for kind in CLEAN_KINDS:
        shares[kind] = clean * (1.0 - spec.store_rate) / len(CLEAN_KINDS)
    return shares


def kind_quotas(shares: dict[str, float], size: int) -> dict[str, int]:
    """``size`` split over the kinds by largest remainder (ties go to
    the kind listed first)."""
    exact = {kind: share * size for kind, share in shares.items()}
    quotas = {kind: int(value) for kind, value in exact.items()}
    by_remainder = sorted(exact, key=lambda kind: quotas[kind] - exact[kind])
    for kind in by_remainder[: size - sum(quotas.values())]:
        quotas[kind] += 1
    return quotas


def balanced(pool: Callable[[int], list[CorpusProgram]],
             shares: dict[str, float], size: int) -> list[CorpusProgram]:
    """``size`` programs with exact kind quotas, evenly interleaved.

    The seed picks which programs and data values a corpus holds, but
    not how many of each kind: one kind can cost many times another (a
    bulk sweep against a lookup, a set scan against a missed CALC
    probe), so a mix that drifts with the seed would move every timing
    by more than the changes the benchmark is meant to detect.
    ``pool(n)`` generates ``n`` candidates from the seed, and is asked
    for more until every kind has its quota.  The result is ordered so
    that every contiguous slice (a served job) has nearly the same mix.
    """
    quotas = kind_quotas(shares, size)
    count = POOL_FACTOR * size
    while True:
        by_kind: dict[str, list[CorpusProgram]] = {}
        for item in pool(count):
            by_kind.setdefault(item.kind, []).append(item)
        if all(len(by_kind.get(kind, ())) >= quota
               for kind, quota in quotas.items()):
            break
        count *= 2
    keyed = []
    for order, (kind, quota) in enumerate(quotas.items()):
        for rank, item in enumerate(by_kind.get(kind, [])[:quota]):
            keyed.append(((rank + 0.5) / quota, order, item))
    keyed.sort(key=lambda entry: entry[:2])
    return [item for _key, _order, item in keyed]


def inventory_corpus(spec: InventorySpec) -> list[CorpusProgram]:
    """``spec.programs`` inventory programs in ``spec``'s expected mix."""
    return balanced(
        lambda count: generate_inventory(replace(spec, programs=count)),
        inventory_shares(spec), spec.programs)


def sweep_corpus(seed: int, size: int) -> list[CorpusProgram]:
    """``size`` COMPANY programs, each replayable kind equally often."""
    kinds = sorted(BENCH_KINDS)
    return balanced(lambda count: corpus_programs(seed, count),
                    dict.fromkeys(kinds, 1.0 / len(kinds)), size)


__all__ = [
    "TERMINAL_INPUTS",
    "balanced",
    "inventory_corpus",
    "inventory_shares",
    "kind_quotas",
    "loader_text",
    "restructuring_spec",
    "sweep_corpus",
]
