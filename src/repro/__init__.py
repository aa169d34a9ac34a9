"""repro: a working reproduction of "Database Program Conversion: A
Framework for Research" (CODASYL Systems Committee, 1979).

The package builds everything the paper describes: the three 1979 data
models (CODASYL network, relational with a SEQUEL subset, hierarchical
with DL/I calls) over a common schema description, the host-program
model with I/O-trace equivalence, restructuring operators with data
translation and Housel inverses, the Figure 4.1 conversion pipeline
(analyzers, transformation rules, optimizer, generator, supervisor),
the Maryland CDML (Section 4.2), the Florida access patterns (Section
4.1), and the emulation/bridge baseline strategies (Section 2.1.2).

Quickstart::

    from repro.workloads import company
    from repro.network import NetworkDatabase
    from repro.restructure import restructure_database
    from repro.core import ConversionSupervisor

    schema = company.figure_42_schema()
    operator = company.figure_44_operator()
    db = company.company_db()
    target_schema, target_db = restructure_database(db, operator)

    supervisor = ConversionSupervisor(schema, operator)
    report = supervisor.convert_program(my_program)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
per-figure reproduction results.
"""

from repro.api import (
    convert,
    convert_batch,
    default_catalog,
    load_rule_catalog,
    load_schema,
)
from repro.catalog.model import RuleCatalog
from repro.errors import (
    AnalysisError,
    CatalogError,
    ConversionError,
    DMLError,
    EngineError,
    IntegrityError,
    NotInvertible,
    ReproError,
    RestructureError,
    SchemaError,
    UnconvertiblePattern,
)
from repro.options import ConversionOptions
from repro.parallel import ParallelExecutionError, ParallelExecutor, WorkerPool

__version__ = "14.0.0"

__all__ = [
    # -- facade (repro.api) -------------------------------------------
    "ConversionOptions",
    "convert",
    "convert_batch",
    "load_schema",
    # -- rule catalogs (repro.catalog) --------------------------------
    "RuleCatalog",
    "default_catalog",
    "load_rule_catalog",
    # -- parallel execution -------------------------------------------
    "ParallelExecutor",
    "ParallelExecutionError",
    "WorkerPool",
    # -- error hierarchy ----------------------------------------------
    "ReproError",
    "EngineError",
    "SchemaError",
    "IntegrityError",
    "DMLError",
    "RestructureError",
    "NotInvertible",
    "ConversionError",
    "AnalysisError",
    "CatalogError",
    "UnconvertiblePattern",
    "__version__",
]
