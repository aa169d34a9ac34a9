"""Large-inventory synthetic workload: the paper's conversion problem
at its real size.

The paper frames program conversion as an *inventory* problem -- a
site holds hundreds to thousands of application programs, all of which
must move through the restructure/translate pipeline (Section 1.1).
The Figure 4.2 corpus is faithful but tiny; this module generates a
seeded, deterministic workload at that inventory scale:

* a **generated schema** that embeds the Figure 4.3 DIV/EMP core
  (so the Figure 4.4 DEPT interposition applies verbatim) and widens
  it with ``satellite_records`` ASSET record types, each CALC-keyed
  and owned by DIV through its own set -- the schema breadth real
  sites have, where most record types are untouched by any one
  restructuring;
* a **populated database** over that schema, sized by
  ``divisions`` x ``employees_per_division`` (+ satellite rows);
* a **program corpus** of 1k-100k+ programs with a controllable
  strategy mix: most shapes land in the rewrite stage, ``store_rate``
  steers programs into the store/emulation-sensitive shapes, and
  ``pathology_rate`` injects the Section 3.2 pathologies (reusing the
  corpus generator's pathological shapes, so ground-truth labels and
  terminal-input needs carry over).

Everything is a pure function of :class:`InventorySpec`: the same spec
yields a byte-identical DDL text, database content, and rendered
corpus on every run and in every process -- the determinism the
parallel byte-identity tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.database import NetworkDatabase
from repro.network.dml import DMLSession
from repro.programs import ast
from repro.programs import builder as b
from repro.schema.ddl import parse_ddl
from repro.schema.model import Schema
from repro.workloads.company import figure_44_operator
from repro.workloads.corpus import (
    PATHOLOGY_KINDS,
    CorpusProgram,
    pathological_program,
)
from repro.workloads.datagen import DataGen

#: Clean inventory shapes and their weights in the non-store draw.
CLEAN_KINDS = ("report", "lookup", "raise", "fire", "audit", "satellite")

#: Store-heavy shapes drawn at ``store_rate``.
STORE_KINDS = ("hire", "guarded-store")

#: Pathological shapes drawn at ``pathology_rate``: the four Section
#: 3.2 corpus pathologies plus the inventory-only ``bulk-sweep`` --
#: a verb-variability program dragging a large dead maintenance block,
#: the shape whose access profile predicts emulation-cheaper (the
#: rewrite attempt pays the full AST walk only to refuse).
INVENTORY_PATHOLOGY_KINDS = PATHOLOGY_KINDS + ("bulk-sweep",)


@dataclass(frozen=True)
class InventorySpec:
    """Knobs for one inventory-scale workload.

    The defaults keep the *database* small (conversion probes replay
    against it once per program, so instance size multiplies into
    every per-program cost) while the *corpus* scales through
    ``programs`` alone.
    """

    seed: int = 1979
    #: Corpus size; 1k-100k is the intended range.
    programs: int = 1_000
    divisions: int = 6
    employees_per_division: int = 12
    departments_per_division: int = 4
    #: Satellite ASSET record types widening the schema.
    satellite_records: int = 4
    #: Rows per satellite record type per division.
    satellite_rows: int = 3
    #: Fraction of clean programs drawn from the store-heavy shapes.
    store_rate: float = 0.2
    #: Fraction of programs carrying a Section 3.2 pathology.
    pathology_rate: float = 0.25
    #: Statements in the bulk-sweep shape's dead maintenance block
    #: (the AST bulk the rewrite attempt would walk before refusing).
    sweep_statements: int = 4_000


def division_name(index: int) -> str:
    """The ``index``-th division's deterministic name."""
    return f"DIV-{index:03d}"


def employee_name(division: int, employee: int) -> str:
    """The deterministic name of one employee of one division."""
    return f"EMP-{division:03d}-{employee:05d}"


def department_name(index: int) -> str:
    """The ``index``-th department's deterministic name."""
    return f"DEPT-{index:02d}"


def asset_record(index: int) -> str:
    """The ``index``-th satellite record type's name."""
    return f"ASSET-{index:02d}"


def asset_set(index: int) -> str:
    """The set linking DIV to the ``index``-th satellite record."""
    return f"DIV-ASSET-{index:02d}"


def asset_tag(record: int, division: int, row: int) -> str:
    """The deterministic CALC key of one satellite row."""
    return f"AST-{record:02d}-{division:03d}-{row:03d}"


def inventory_ddl(spec: InventorySpec | None = None) -> str:
    """The generated schema DDL: Figure 4.3 core + ASSET satellites."""
    spec = spec or InventorySpec()
    records = [
        """\
  RECORD NAME IS DIV.
    LOCATION MODE IS CALC USING (DIV-NAME).
    FIELDS ARE.
      DIV-NAME PIC X(20).
      DIV-LOC PIC X(10).
  END RECORD.""",
        """\
  RECORD NAME IS EMP.
    LOCATION MODE IS CALC USING (EMP-NAME).
    FIELDS ARE.
      EMP-NAME PIC X(25).
      DEPT-NAME PIC X(10).
      AGE PIC 9(2).
      DIV-NAME VIRTUAL VIA DIV-EMP USING DIV-NAME.
  END RECORD.""",
    ]
    sets = [
        """\
  SET NAME IS ALL-DIV.
    OWNER IS SYSTEM.
    MEMBER IS DIV.
    SET KEYS ARE (DIV-NAME).
  END SET.""",
        """\
  SET NAME IS DIV-EMP.
    OWNER IS DIV.
    MEMBER IS EMP.
    SET KEYS ARE (EMP-NAME).
  END SET.""",
    ]
    for index in range(spec.satellite_records):
        record = asset_record(index)
        records.append(f"""\
  RECORD NAME IS {record}.
    LOCATION MODE IS CALC USING ({record}-TAG).
    FIELDS ARE.
      {record}-TAG PIC X(16).
      {record}-COST PIC 9(6).
      DIV-NAME VIRTUAL VIA {asset_set(index)} USING DIV-NAME.
  END RECORD.""")
        sets.append(f"""\
  SET NAME IS {asset_set(index)}.
    OWNER IS DIV.
    MEMBER IS {record}.
    SET KEYS ARE ({record}-TAG).
  END SET.""")
    return (
        "SCHEMA NAME IS INVENTORY.\n"
        "RECORD SECTION.\n" + "\n".join(records) + "\n"
        "END RECORD SECTION.\n"
        "SET SECTION.\n" + "\n".join(sets) + "\n"
        "END SET SECTION.\n"
        "END SCHEMA.\n"
    )


def inventory_schema(spec: InventorySpec | None = None) -> Schema:
    """The generated inventory schema, parsed."""
    return parse_ddl(inventory_ddl(spec))


def inventory_database(spec: InventorySpec | None = None
                       ) -> NetworkDatabase:
    """A populated inventory database (pure function of the spec)."""
    spec = spec or InventorySpec()
    gen = DataGen(spec.seed)
    db = NetworkDatabase(inventory_schema(spec))
    session = DMLSession(db)
    for d_index in range(spec.divisions):
        division = division_name(d_index)
        session.store("DIV", {"DIV-NAME": division,
                              "DIV-LOC": gen.city()})
        for e_index in range(spec.employees_per_division):
            dept = department_name(
                e_index % spec.departments_per_division)
            session.store("EMP", {
                "EMP-NAME": employee_name(d_index, e_index),
                "DEPT-NAME": dept,
                "AGE": gen.age(),
                "DIV-NAME": division,
            })
        for r_index in range(spec.satellite_records):
            record = asset_record(r_index)
            for row in range(spec.satellite_rows):
                session.store(record, {
                    f"{record}-TAG": asset_tag(r_index, d_index, row),
                    f"{record}-COST": gen.int_between(100, 999_999),
                    "DIV-NAME": division,
                })
    db.verify_consistent()
    return db


def generate_inventory(spec: InventorySpec | None = None
                       ) -> list[CorpusProgram]:
    """Deterministically generate the labelled inventory corpus."""
    spec = spec or InventorySpec()
    gen = DataGen(spec.seed)
    divisions = tuple(division_name(i) for i in range(spec.divisions))
    # One dead block, shared by every bulk-sweep program: at the 10k
    # tier thousands of programs embed it, so sharing the tuple keeps
    # the corpus memory-bound by one block, not one per program.
    sweep_block = _sweep_block(spec.sweep_statements)
    out: list[CorpusProgram] = []
    for index in range(spec.programs):
        if gen.chance(spec.pathology_rate):
            kind = gen.choice(INVENTORY_PATHOLOGY_KINDS)
            if kind == "bulk-sweep":
                out.append(_bulk_sweep_shape(index, gen, divisions,
                                             sweep_block))
                continue
            out.append(pathological_program(kind, index, gen, divisions))
        elif gen.chance(spec.store_rate):
            out.append(_store_shape(gen.choice(STORE_KINDS), index, gen,
                                    spec))
        else:
            out.append(_clean_shape(gen.choice(CLEAN_KINDS), index, gen,
                                    spec))
    return out


def _pick_division(gen: DataGen, spec: InventorySpec) -> tuple[int, str]:
    d_index = gen.int_between(0, spec.divisions - 1)
    return d_index, division_name(d_index)


def _clean_shape(kind: str, index: int, gen: DataGen,
                 spec: InventorySpec) -> CorpusProgram:
    name = f"INV-{kind.upper()}-{index:05d}"
    d_index, division = _pick_division(gen, spec)
    if kind == "report":
        threshold = gen.int_between(25, 55)
        program = b.program(name, "network", "INVENTORY", [
            b.find_any("DIV", **{"DIV-NAME": division}),
            *b.scan_set("EMP", "DIV-EMP", [
                b.if_(b.gt(b.field("EMP", "AGE"), threshold), [
                    b.display(b.field("EMP", "EMP-NAME"),
                              b.field("EMP", "AGE")),
                ]),
            ]),
            b.display("END-REPORT"),
        ])
        return CorpusProgram(program, kind,
                             frozenset({"order-dependence"}))
    if kind == "lookup":
        employee = employee_name(
            d_index, gen.int_between(0, spec.employees_per_division - 1))
        program = b.program(name, "network", "INVENTORY", [
            b.find_any("EMP", **{"EMP-NAME": employee}),
            b.if_(ast.status_ok(), [
                b.get("EMP"),
                b.display(b.field("EMP", "EMP-NAME"),
                          b.field("EMP", "AGE")),
            ], [
                b.display("NOT FOUND"),
            ]),
        ])
        return CorpusProgram(program, kind)
    if kind == "raise":
        dept = department_name(gen.int_between(
            0, spec.departments_per_division - 1))
        program = b.program(name, "network", "INVENTORY", [
            b.find_any("DIV", **{"DIV-NAME": division}),
            *b.scan_set("EMP", "DIV-EMP", [
                b.if_(b.eq(b.field("EMP", "DEPT-NAME"), dept), [
                    b.modify("EMP", **{
                        "AGE": b.add(b.field("EMP", "AGE"), 0),
                    }),
                ]),
            ]),
            b.display("RAISED"),
        ])
        return CorpusProgram(program, kind)
    if kind == "fire":
        employee = employee_name(
            d_index, gen.int_between(0, spec.employees_per_division - 1))
        program = b.program(name, "network", "INVENTORY", [
            b.find_any("EMP", **{"EMP-NAME": employee}),
            b.if_(ast.status_ok(), [
                b.erase("EMP"),
                b.display("FIRED", employee),
            ], [
                b.display("NO SUCH EMPLOYEE"),
            ]),
        ])
        return CorpusProgram(program, kind)
    if kind == "audit":
        program = b.program(name, "network", "INVENTORY", [
            b.find_any("DIV", **{"DIV-NAME": division}),
            *b.scan_set("EMP", "DIV-EMP", [
                b.write_file("AUDIT", b.field("EMP", "EMP-NAME"),
                             b.field("EMP", "DEPT-NAME")),
            ]),
            b.display("AUDITED"),
        ])
        return CorpusProgram(program, kind,
                             frozenset({"order-dependence"}))
    if kind == "satellite":
        # A satellite scan never touches DIV-EMP: the restructuring
        # leaves it alone, like most of a real site's inventory.
        r_index = gen.int_between(0, max(0, spec.satellite_records - 1))
        record = asset_record(r_index)
        program = b.program(name, "network", "INVENTORY", [
            b.find_any("DIV", **{"DIV-NAME": division}),
            *b.scan_set(record, asset_set(r_index), [
                b.display(b.field(record, f"{record}-TAG"),
                          b.field(record, f"{record}-COST")),
            ]),
            b.display("END-ASSETS"),
        ])
        return CorpusProgram(program, kind,
                             frozenset({"order-dependence"}))
    raise ValueError(f"unknown clean inventory kind {kind!r}")


def _sweep_block(statements: int) -> tuple[ast.Stmt, ...]:
    """The bulk-sweep shape's dead maintenance block: ``statements``
    working-storage assignments guarded by a flag that is never set."""
    return tuple(b.assign(f"W{j:03d}", j) for j in range(statements))


def _bulk_sweep_shape(index: int, gen: DataGen,
                      divisions: tuple[str, ...],
                      sweep_block: tuple[ast.Stmt, ...]) -> CorpusProgram:
    """A verb-variability program dragging a large dead block.

    The generic call makes static analysis refuse it (Section 3.2), so
    the rewrite attempt would walk the whole block only to fail; its
    access profile predicts that refusal up front, which is exactly the
    cost-separable shape the cost-ordered cascade wins on.
    """
    name = f"INV-BULK-SWEEP-{index:05d}"
    division = gen.choice(divisions)
    program = b.program(name, "network", "INVENTORY", [
        b.accept("REQUEST", prompt="VERB?"),
        b.assign("SWEEP-FLAG", 0),
        b.find_any("DIV", **{"DIV-NAME": division}),
        b.generic_call(b.v("REQUEST"), "EMP", **{
            "EMP-NAME": f"SWP-{index:05d}",
            "DEPT-NAME": "SALES",
            "AGE": 30,
            "DIV-NAME": division,
        }),
        b.if_(b.eq(b.v("SWEEP-FLAG"), 1), sweep_block),
        b.display("DONE"),
    ])
    return CorpusProgram(program, "bulk-sweep",
                         frozenset({"verb-variability"}),
                         terminal_inputs=("STORE",))


def _store_shape(kind: str, index: int, gen: DataGen,
                 spec: InventorySpec) -> CorpusProgram:
    name = f"INV-{kind.upper()}-{index:05d}"
    _d_index, division = _pick_division(gen, spec)
    dept = department_name(gen.int_between(
        0, spec.departments_per_division - 1))
    if kind == "hire":
        program = b.program(name, "network", "INVENTORY", [
            b.find_any("DIV", **{"DIV-NAME": division}),
            b.store("EMP", **{
                "EMP-NAME": f"NEW-{index:05d}",
                "DEPT-NAME": dept,
                "AGE": gen.age(),
                "DIV-NAME": division,
            }),
            b.display("HIRED", f"NEW-{index:05d}"),
        ])
        return CorpusProgram(program, kind)
    if kind == "guarded-store":
        program = b.program(name, "network", "INVENTORY", [
            b.find_any("DIV", **{"DIV-NAME": division}),
            b.if_(ast.status_ok(), [
                b.store("EMP", **{
                    "EMP-NAME": f"GRD-{index:05d}",
                    "DEPT-NAME": dept,
                    "AGE": gen.age(),
                    "DIV-NAME": division,
                }),
                b.display("STORED"),
            ], [
                b.display("NO SUCH DIVISION"),
            ]),
        ])
        return CorpusProgram(program, kind)
    raise ValueError(f"unknown store inventory kind {kind!r}")


def inventory_cascade(spec: InventorySpec | None = None,
                      **cascade_kwargs):
    """A ready-to-run cascade: inventory database through the Figure
    4.4 DEPT interposition (imports deferred to stay cycle-free).
    Extra keyword arguments (e.g. ``strategy_order=``) forward to the :class:`FallbackCascade` constructor."""
    from repro.restructure import restructure_database
    from repro.strategies.cascade import FallbackCascade

    spec = spec or InventorySpec()
    operator = figure_44_operator()
    source_db = inventory_database(spec)
    _schema, target_db = restructure_database(source_db, operator)
    return FallbackCascade(source_db, target_db, operator,
                           **cascade_kwargs)


def render_corpus(corpus: list[CorpusProgram]) -> str:
    """One canonical text for a whole corpus (byte-identity checks)."""
    return "\n".join(ast.render_program(item.program) for item in corpus)


__all__ = [
    "CLEAN_KINDS",
    "INVENTORY_PATHOLOGY_KINDS",
    "STORE_KINDS",
    "InventorySpec",
    "asset_record",
    "asset_set",
    "asset_tag",
    "department_name",
    "division_name",
    "employee_name",
    "generate_inventory",
    "inventory_cascade",
    "inventory_database",
    "inventory_ddl",
    "inventory_schema",
    "render_corpus",
]
