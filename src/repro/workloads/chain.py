"""The chain snapshot: deterministic DIV -> DEPT -> EMP data at any size.

A 3-level hierarchy generated by :mod:`repro.workloads.datagen`,
scaled to an arbitrary row count, plus :data:`PERF_OPERATOR`, the
restructuring applied to it before a load.  The snapshot-index tests
and the indexed hierarchical load floor read it.
"""

from __future__ import annotations

from repro.restructure.operators import AddField, Composite, RenameField
from repro.restructure.translator import DataSnapshot
from repro.schema.model import Schema
from repro.workloads.datagen import DataGen

#: The restructuring applied in the translate stage: one field rename
#: plus one field addition on the biggest record type, so the operator
#: chain's copy-on-write path is exercised without changing the
#: snapshot's link structure.
PERF_OPERATOR = Composite((
    RenameField("EMP", "AGE", "EMP-AGE"),
    AddField("EMP", "PERF-TAG", "X(1)", default="Y"),
))


def perf_schema() -> Schema:
    """A 3-level chain schema loadable by all three engines.

    DIV owns DEPT owns EMP; every record type has a CALC key (the
    relational loader derives foreign keys from them) and each
    non-root type has exactly one parent set (the hierarchical loader
    requires a forest).
    """
    schema = Schema("PERF")
    schema.define_record("DIV", {
        "DIV-NAME": "X(20)", "DIV-LOC": "X(10)",
    }, calc_keys=["DIV-NAME"])
    schema.define_record("DEPT", {
        "DEPT-NAME": "X(20)", "BUDGET": "9(6)",
    }, calc_keys=["DEPT-NAME"])
    schema.define_record("EMP", {
        "EMP-NAME": "X(25)", "AGE": "9(2)",
    }, calc_keys=["EMP-NAME"])
    schema.define_set("ALL-DIV", "SYSTEM", "DIV", order_keys=["DIV-NAME"],
                      allow_duplicates=False)
    schema.define_set("DIV-DEPT", "DIV", "DEPT")
    schema.define_set("DEPT-EMP", "DEPT", "EMP")
    schema.validate()
    return schema


def size_split(total_rows: int) -> dict[str, int]:
    """Row counts per record type for a target total (3 levels)."""
    divisions = max(1, total_rows // 100)
    departments = max(1, total_rows // 10)
    employees = max(1, total_rows - divisions - departments)
    return {"DIV": divisions, "DEPT": departments, "EMP": employees}


def build_snapshot(total_rows: int, seed: int = 1979) -> DataSnapshot:
    """A deterministic 3-level snapshot with ~``total_rows`` rows.

    Built directly (no source engine) so tests can assert on snapshot
    behaviour -- e.g. index-probe counts during loading -- without
    paying for a database build.
    """
    gen = DataGen(seed)
    split = size_split(total_rows)
    snapshot = DataSnapshot()
    snapshot.rows["DIV"] = [
        {"DIV-NAME": f"DIV-{index:05d}", "DIV-LOC": gen.city()}
        for index in range(split["DIV"])
    ]
    snapshot.rows["DEPT"] = [
        {"DEPT-NAME": f"{gen.dept_name()}-{index:06d}",
         "BUDGET": gen.int_between(0, 999999)}
        for index in range(split["DEPT"])
    ]
    snapshot.rows["EMP"] = [
        {"EMP-NAME": gen.surname(index), "AGE": gen.age()}
        for index in range(split["EMP"])
    ]
    snapshot.links["ALL-DIV"] = [
        (None, ("DIV", index)) for index in range(split["DIV"])
    ]
    snapshot.links["DIV-DEPT"] = [
        (("DIV", index % split["DIV"]), ("DEPT", index))
        for index in range(split["DEPT"])
    ]
    snapshot.links["DEPT-EMP"] = [
        (("DEPT", index % split["DEPT"]), ("EMP", index))
        for index in range(split["EMP"])
    ]
    return snapshot
