"""The Section 4.1 Florida database and worked query.

Entity types::

    EMP(E#, ENAME, AGE)
    DEPT(D#, DNAME, MGR)

and their association::

    EMP-DEPT(E#, D#, YEAR-OF-SERVICE)

The worked query -- "Find the names of employees who work for Manager
Smith for more than ten years" -- is provided as an abstract program
whose access-pattern sequence must come out exactly as the paper
prints it (E4), and whose generated SEQUEL/CODASYL forms follow the
paper's templates (A) and (B).
"""

from __future__ import annotations

from repro.core.abstract import (
    ACond,
    ALocate,
    AScan,
    AToOwner,
    AbstractProgram,
)
from repro.network.database import NetworkDatabase
from repro.network.dml import DMLSession
from repro.programs import builder as b
from repro.programs.ast import Const
from repro.schema.model import Field, Insertion, Retention, Schema
from repro.schema.types import parse_pic
from repro.workloads.datagen import DataGen

#: Set names realizing the EMP-DEPT association in the network model.
EMP_ED = "E-ED"    # EMP owns its association records
DEPT_ED = "D-ED"   # DEPT owns its association records


def florida_schema() -> Schema:
    """EMP, DEPT, and the EMP-DEPT association record type."""
    schema = Schema("FLORIDA")
    schema.define_record("EMP", {
        "E#": "X(6)", "ENAME": "X(25)", "AGE": "9(2)",
    }, calc_keys=["E#"])
    schema.define_record("DEPT", {
        "D#": "X(6)", "DNAME": "X(20)", "MGR": "X(25)",
    }, calc_keys=["D#"])
    schema.define_record("EMP-DEPT", {
        "YEAR-OF-SERVICE": "9(2)",
    })
    schema.define_set("ALL-EMP", "SYSTEM", "EMP", order_keys=["E#"],
                      allow_duplicates=False)
    schema.define_set("ALL-DEPT", "SYSTEM", "DEPT", order_keys=["D#"],
                      allow_duplicates=False)
    schema.define_set(EMP_ED, "EMP", "EMP-DEPT",
                      insertion=Insertion.AUTOMATIC,
                      retention=Retention.MANDATORY)
    schema.define_set(DEPT_ED, "DEPT", "EMP-DEPT",
                      insertion=Insertion.AUTOMATIC,
                      retention=Retention.MANDATORY)
    association = schema.records["EMP-DEPT"]
    schema.records["EMP-DEPT"] = association.with_fields(
        association.fields + (
            Field("E#", parse_pic("X(6)"),
                  virtual_via=EMP_ED, virtual_using="E#"),
            Field("D#", parse_pic("X(6)"),
                  virtual_via=DEPT_ED, virtual_using="D#"),
        )
    )
    schema.validate()
    return schema


def populate(db: NetworkDatabase, seed: int = 1979, employees: int = 30,
             departments: int = 4) -> NetworkDatabase:
    """Load a Florida instance; D2 is always managed by SMITH and has
    long-serving employees, so the paper's query has answers."""
    gen = DataGen(seed)
    session = DMLSession(db)
    for d_index in range(departments):
        number = f"D{d_index + 1}"
        session.store("DEPT", {
            "D#": number,
            "DNAME": gen.dept_name(),
            "MGR": "SMITH" if number == "D2" else gen.surname(d_index),
        })
    for e_index in range(employees):
        number = f"E{e_index + 1:03d}"
        session.store("EMP", {
            "E#": number,
            "ENAME": gen.surname(100 + e_index),
            "AGE": gen.age(),
        })
        dept = f"D{(e_index % departments) + 1}"
        years = gen.years()
        if dept == "D2" and (e_index // departments) % 2 == 0:
            # Guarantee long-serving employees under manager SMITH so
            # the paper's query is non-empty.
            years = 11 + (e_index % 15)
        elif dept == "D2" and (e_index // departments) == 1:
            # ... and one with exactly three years for the SEQUEL
            # template (A) example.
            years = 3
        session.store("EMP-DEPT", {
            "YEAR-OF-SERVICE": years,
            "E#": number,
            "D#": dept,
        })
    db.verify_consistent()
    return db


def florida_network_db(seed: int = 1979, **kwargs) -> NetworkDatabase:
    """A populated Florida database in CODASYL form."""
    return populate(NetworkDatabase(florida_schema()), seed, **kwargs)


def smith_query_abstract() -> AbstractProgram:
    """The worked query as an abstract program.

    "Find the names of employees who work for Manager Smith for more
    than ten years" -- the paper's expected pattern sequence is::

        ACCESS DEPT via DEPT
        ACCESS EMP-DEPT via DEPT
        ACCESS EMP via EMP-DEPT
        RETRIEVE
    """
    return AbstractProgram(
        "SMITH-QUERY", "network", "FLORIDA",
        (
            ALocate("DEPT", (ACond("MGR", "=", Const("SMITH")),),
                    bind=False),
            AScan("EMP-DEPT", DEPT_ED,
                  (ACond("YEAR-OF-SERVICE", ">", Const(10)),),
                  (
                      # upward to the employee, then retrieve the name
                      AToOwner("EMP", EMP_ED, bind=True),
                      b.display(b.field("EMP", "ENAME")),
                  ),
                  bind=True),
        ),
    )


def smith_query_network_program():
    """The query as a concrete CODASYL program (what the paper's
    template (B) machinery produces)."""
    return b.program("SMITH-QUERY", "network", "FLORIDA", [
        b.find_any("DEPT", **{"MGR": "SMITH"}),
        *b.scan_set("EMP-DEPT", DEPT_ED, [
            b.if_(b.gt(b.field("EMP-DEPT", "YEAR-OF-SERVICE"), 10), [
                b.find_owner(EMP_ED),
                b.get("EMP"),
                b.display(b.field("EMP", "ENAME")),
            ]),
        ]),
    ])


def d2_three_years_sequel() -> str:
    """The paper's SEQUEL example (A): employees of department D2 with
    exactly three years of service."""
    return ("SELECT ENAME FROM EMP WHERE E# IN "
            "SELECT E# FROM EMP-DEPT "
            "WHERE D# = 'D2' AND YEAR-OF-SERVICE = 3")
