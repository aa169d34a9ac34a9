"""The public facade: the whole pipeline behind a handful of functions.

Before this module, driving a conversion programmatically meant
knowing which subsystem owned which kwarg: the supervisor took
``target_model=``, the cascade took ``inputs=``, the batch runner took
``checkpoint=``/``resume=``, and parallelism did not exist.  The
facade collapses all of it to these entry points, sharing one
:class:`~repro.options.ConversionOptions` value:

* :func:`load_schema` -- DDL text, a path, or a parsed
  :class:`~repro.schema.model.Schema`, normalized to a ``Schema``;
* :func:`load_rule_catalog` / :func:`default_catalog` -- the
  rules-as-data surface: conversion-rule catalogs as values that plug
  into ``ConversionOptions.rule_catalog``;
* :func:`convert` -- one program through the Figure 4.1 pipeline;
* :func:`build_cascade` -- the probe databases and fallback cascade a
  batch validates against;
* :func:`convert_batch` -- a fault-isolated, checkpointed batch
  through the fallback cascade, serial or multi-process
  (``options.jobs``).

The CLI routes through these functions, so the shell and the API
cannot drift.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.batch import ProgressCallback
from repro.core.report import BatchReport, ConversionReport
from repro.core.supervisor import ConversionSupervisor
from repro.options import ConversionOptions
from repro.parallel import ParallelExecutor, WorkerPool
from repro.programs.ast import Program
from repro.programs.parser import parse_program
from repro.restructure.operators import RestructuringOperator
from repro.restructure.spec import parse_spec
from repro.schema.ddl import parse_ddl
from repro.schema.model import Schema
from repro.strategies.cascade import FallbackCascade

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.model import RuleCatalog


def _source_text(source: "str | Path") -> str:
    """File contents when ``source`` names an existing file, else the
    string itself (inline artifact text)."""
    if isinstance(source, Path):
        return source.read_text()
    try:
        candidate = Path(source)
        if candidate.is_file():
            return candidate.read_text()
    except (OSError, ValueError):
        pass  # not a representable path: inline text
    return source


def load_schema(source: "str | Path | Schema") -> Schema:
    """Normalize a schema argument to a parsed :class:`Schema`.

    Accepts a parsed schema (returned unchanged), a path to a Figure
    4.3 DDL file, or DDL text itself.
    """
    if isinstance(source, Schema):
        return source
    return parse_ddl(_source_text(source))


def load_rule_catalog(source: "str | Path | RuleCatalog") -> "RuleCatalog":
    """Normalize a rule-catalog argument to a validated
    :class:`~repro.catalog.model.RuleCatalog`.

    Accepts a parsed catalog (returned unchanged), a path to a catalog
    file, or catalog text itself.  Every entry is validated here, at
    load time; a malformed document raises
    :class:`~repro.errors.CatalogError` with its file and line
    position.  Plug the result into
    ``ConversionOptions(rule_catalog=...)``.
    """
    from repro.catalog import load_catalog_text
    from repro.catalog.model import RuleCatalog

    if isinstance(source, RuleCatalog):
        return source
    if isinstance(source, Path):
        return load_catalog_text(source.read_text(), path=str(source))
    try:
        candidate = Path(source)
        if candidate.is_file():
            return load_catalog_text(candidate.read_text(),
                                     path=str(candidate))
    except (OSError, ValueError):
        pass  # not a representable path: inline text
    return load_catalog_text(source)


def default_catalog() -> "RuleCatalog":
    """The shipped builtin rule catalog (what ``rule_catalog=None``
    resolves to): every hardcoded transformation rule, as data."""
    from repro.catalog import default_catalog as _default

    return _default()


def _load_operator(
    source: "str | Path | RestructuringOperator",
) -> RestructuringOperator:
    if isinstance(source, RestructuringOperator):
        return source
    return parse_spec(_source_text(source))


def _load_program(source: "str | Path | Program") -> Program:
    if isinstance(source, Program):
        return source
    return parse_program(_source_text(source))


def convert(
    schema: "str | Path | Schema",
    operator: "str | Path | RestructuringOperator",
    program: "str | Path | Program",
    options: ConversionOptions | None = None,
) -> ConversionReport:
    """Convert one program for a restructuring (the Figure 4.1
    pipeline).

    Each artifact may be passed parsed, as a path, or as source text.
    The report carries the generated program (``report.target_program``,
    ``None`` when conversion failed or needs the Analyst).
    """
    options = options if options is not None else ConversionOptions()
    supervisor = ConversionSupervisor.from_options(
        load_schema(schema), _load_operator(operator), options=options
    )
    return supervisor.convert_program(_load_program(program), options=options)


def build_cascade(
    schema: "str | Path | Schema",
    operator: "str | Path | RestructuringOperator",
    data: "str | Path | Program | None" = None,
    options: ConversionOptions | None = None,
) -> FallbackCascade:
    """Build the probe databases and fallback cascade for a batch.

    ``data`` is an optional loader program (STOREs) that populates the
    source database before the restructuring is applied; the cascade's
    rule catalog comes from ``options``.  This is
    the exact construction ``repro convert`` (batch mode) and the
    conversion service share, so a served job and a shell run of the
    same artifacts validate against byte-identical probe databases.
    """
    options = options if options is not None else ConversionOptions()
    from repro.network.database import NetworkDatabase
    from repro.programs.interpreter import run_program
    from repro.restructure import restructure_database

    parsed_schema = load_schema(schema)
    parsed_operator = _load_operator(operator)
    source_db = NetworkDatabase(parsed_schema)
    if data is not None:
        run_program(_load_program(data), source_db, consistent=False)
    _target_schema, target_db = restructure_database(source_db, parsed_operator)
    return FallbackCascade(
        source_db,
        target_db,
        parsed_operator,
        rule_catalog=options.rule_catalog,
    )


def convert_batch(
    cascade: FallbackCascade,
    programs: list[Program],
    options: ConversionOptions | None = None,
    pool: WorkerPool | None = None,
    progress: "ProgressCallback | None" = None,
) -> BatchReport:
    """Convert a batch through the fallback cascade.

    Fault-isolated (per-program savepoints), checkpointed
    (``options.checkpoint`` / ``options.resume``), and parallel when
    ``options.jobs`` asks for more than one worker -- with the
    guarantee that reports and checkpoint are byte-identical to a
    serial run.  Batches below ``options.parallel_threshold`` pending
    programs auto-degrade to the in-process path.

    The cascade skips the rewrite attempt when static analysis proves
    the analyzer would refuse the program (Section 3.2 verb
    variability), synthesizing the identical refusal, so reports and
    checkpoints are byte-identical to paying for the attempt.

    Pass ``pool=`` (a :class:`~repro.parallel.WorkerPool` built once
    from the same cascade) to convert many batches, each with its own
    ``options``, on the same warm worker processes; the caller owns
    the pool's lifecycle.

    ``progress`` is called once per settled program --
    ``progress(report, done, total, resumed)``, see
    :data:`repro.batch.ProgressCallback` -- and is how the conversion
    service streams per-program server-sent events.  With
    ``options.report_json`` the final batch summary is also written
    atomically to that path (``repro convert --report-json``).
    """
    batch = ParallelExecutor(
        cascade, programs, options, pool=pool, progress=progress
    ).run()
    options = options if options is not None else ConversionOptions()
    if options.report_json is not None:
        from repro.jsonio import write_json_atomic

        write_json_atomic(batch.to_summary(), options.report_json)
    return batch


__all__ = [
    "ConversionOptions",
    "ProgressCallback",
    "WorkerPool",
    "build_cascade",
    "convert",
    "convert_batch",
    "default_catalog",
    "load_rule_catalog",
    "load_schema",
]
