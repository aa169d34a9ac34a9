"""Command-line interface.

Everything the Conversion Analyst touches is a text artifact -- a DDL
file (Figure 4.3 syntax), a restructuring specification, and program
source in the pseudo-COBOL form -- so the whole Figure 4.1 pipeline is
drivable from the shell::

    python -m repro validate-ddl company.ddl
    python -m repro changes --ddl company.ddl --spec fig44.spec
    python -m repro analyze --ddl company.ddl --program report.cob
    python -m repro convert --ddl company.ddl --spec fig44.spec \\
        --program report.cob --target-model network
    python -m repro suggest-renames --ddl old.ddl --target-ddl new.ddl
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.analysis import detect_pathologies
from repro.core import (
    ConversionSupervisor,
    ProgramAnalyzer,
    access_pattern_sequence,
)
from repro.core.abstract import render_abstract
from repro.core.access_patterns import render_sequence
from repro.core.analyzer_db import ConversionAnalyzer
from repro.errors import ReproError
from repro.programs.ast import render_program
from repro.programs.parser import parse_program
from repro.restructure.spec import parse_spec
from repro.schema.ddl import format_ddl, parse_ddl


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_schema(args) -> object:
    return parse_ddl(_read(args.ddl))


def cmd_validate_ddl(args) -> int:
    """Parse and reformat a DDL file."""
    schema = parse_ddl(_read(args.file))
    print(format_ddl(schema), end="")
    print(f"*> schema {schema.name}: {len(schema.records)} record "
          f"type(s), {len(schema.sets)} set type(s), "
          f"{len(schema.constraints)} constraint(s)")
    return 0


def cmd_changes(args) -> int:
    """Classify the changes of a restructuring spec."""
    schema = _load_schema(args)
    operator = parse_spec(_read(args.spec))
    catalog = ConversionAnalyzer().analyze_operator(schema, operator)
    print(catalog.summary())
    if args.target_ddl:
        print()
        print(format_ddl(catalog.target_schema), end="")
    if not catalog.is_information_preserving():
        print("WARNING: restructuring is information-reducing "
              "(Section 1.1: a harder conversion problem)")
    return 0


def cmd_analyze(args) -> int:
    """Run the Program Analyzer over a source program."""
    schema = _load_schema(args)
    program = parse_program(_read(args.program))
    findings = detect_pathologies(program)
    for finding in findings:
        print(finding.render())
    blocking = [f for f in findings if f.blocking]
    if blocking:
        print("analysis blocked; resolve the findings above "
              "(or pin verbs via the API)")
        return 1
    abstract = ProgramAnalyzer(schema).analyze(program)
    print(render_abstract(abstract))
    print("access pattern sequence (Section 4.1):")
    print(render_sequence(access_pattern_sequence(abstract, schema)))
    return 0


def cmd_convert(args) -> int:
    """Convert one program for a restructuring (Figure 4.1), or -- with
    repeated ``--program`` or a ``--checkpoint`` -- a fault-isolated
    batch through the strategy fallback cascade, parallel across
    ``--jobs`` worker processes.  ``--trace`` and ``--profile`` run the
    conversion under a tracer (always through the cascade, so
    supervisor phases, cascade stages, and restructure operators all
    appear in the span tree)."""
    from repro import api

    schema = _load_schema(args)
    operator = parse_spec(_read(args.spec))
    programs = [parse_program(_read(path)) for path in args.program]
    tracing = bool(args.trace or args.profile)
    batch_mode = len(programs) > 1 or args.checkpoint or args.resume \
        or args.out_dir or args.report_json or tracing
    if batch_mode:
        if not tracing:
            return _cmd_convert_batch(args, schema, operator, programs)
        from repro.observe.export import render_profile, write_trace
        from repro.observe.tracing import Tracer

        tracer = Tracer()
        with tracer:
            code = _cmd_convert_batch(args, schema, operator, programs)
        if args.trace:
            path = write_trace(tracer, args.trace)
            print(f"wrote trace {path}", file=sys.stderr)
        if args.profile:
            print(render_profile(tracer), file=sys.stderr)
        return code

    program = programs[0]
    from repro.options import DEFAULT_OPTIMIZER_PASSES

    options = api.ConversionOptions(
        target_model=args.target_model,
        optimizer_passes=() if args.no_optimize
        else DEFAULT_OPTIMIZER_PASSES,
        rule_catalog=_load_rules(args),
    )
    report = api.convert(schema, operator, program, options)
    print(report.render(), file=sys.stderr)
    if report.target_program is None:
        return 1
    print(render_program(report.target_program), end="")
    return 0


def _cmd_convert_batch(args, schema, operator, programs) -> int:
    """Batch conversion: cascade per program, probe databases built
    from the optional ``--data`` loader, checkpointed, resumable, and
    parallel across ``--jobs`` workers."""
    from repro import api
    from repro.parallel import ParallelExecutionError

    options = api.ConversionOptions(
        checkpoint=args.checkpoint,
        resume=args.resume,
        report_json=args.report_json,
        inputs=_load_inputs(args),
        jobs=args.jobs,
        chunk_size=args.chunk_size,
        parallel_threshold=args.parallel_threshold,
        program_timeout=args.program_timeout,
        rule_catalog=_load_rules(args))
    cascade = api.build_cascade(schema, operator, data=args.data,
                                options=options)
    try:
        batch = api.convert_batch(cascade, programs, options)
    except ParallelExecutionError as error:
        print(f"error: {error}", file=sys.stderr)
        if args.checkpoint:
            print(f"parallel batch failed: progress journaled to "
                  f"{args.checkpoint}; rerun with --resume to finish",
                  file=sys.stderr)
        else:
            print("parallel batch failed (no --checkpoint: progress "
                  "discarded)", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        if args.checkpoint:
            print(f"interrupted: progress journaled to "
                  f"{args.checkpoint}; rerun with --resume to finish",
                  file=sys.stderr)
        else:
            print("interrupted (no --checkpoint: progress discarded)",
                  file=sys.stderr)
        return 130
    for report in batch.reports:
        print(report.render(), file=sys.stderr)
    print(batch.render(), file=sys.stderr)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for report in batch.reports:
            if report.target_program is not None:
                path = out_dir / f"{report.program_name}.cob"
                path.write_text(render_program(report.target_program))
    failed = [r for r in batch.reports if not r.converted]
    return 1 if failed else 0


def _load_rules(args):
    from repro import api

    if not getattr(args, "rules", None):
        return None
    return api.load_rule_catalog(Path(args.rules))


def _load_inputs(args):
    from repro.programs.interpreter import ProgramInputs

    terminal = []
    if getattr(args, "inputs", None):
        terminal = _read(args.inputs).splitlines()
    return ProgramInputs(terminal=terminal)


def _build_database(schema, data_path: str | None):
    from repro.network.database import NetworkDatabase
    from repro.programs.interpreter import run_program

    db = NetworkDatabase(schema)
    if data_path:
        loader = parse_program(_read(data_path))
        run_program(loader, db, consistent=False)
    return db


def cmd_run(args) -> int:
    """Load a database from a loader program and run an application
    program against it -- on the source schema, or (with --spec) on
    the restructured database after converting the program."""
    from repro.programs.interpreter import run_program
    from repro.restructure import restructure_database

    schema = _load_schema(args)
    program = parse_program(_read(args.program))
    db = _build_database(schema, args.data)
    inputs = _load_inputs(args)
    if args.spec:
        from repro.options import ConversionOptions

        operator = parse_spec(_read(args.spec))
        _target_schema, db = restructure_database(
            db, operator, target_model=args.target_model or "network")
        supervisor = ConversionSupervisor(schema, operator)
        report = supervisor.convert_program(
            program,
            options=ConversionOptions(target_model=args.target_model))
        print(report.render(), file=sys.stderr)
        if report.target_program is None:
            return 1
        program = report.target_program
    trace = run_program(program, db, inputs, consistent=False)
    print(trace.render())
    return 0


def cmd_check(args) -> int:
    """The Section 1.1 loop in one command: run the source program on
    the source database and the converted program on the restructured
    database, and compare the I/O traces."""
    from repro.core import check_equivalence
    from repro.restructure import restructure_database

    schema = _load_schema(args)
    operator = parse_spec(_read(args.spec))
    program = parse_program(_read(args.program))
    supervisor = ConversionSupervisor(schema, operator)
    report = supervisor.convert_program(program)
    print(report.render(), file=sys.stderr)
    if report.target_program is None:
        return 1
    source_db = _build_database(schema, args.data)
    _target_schema, target_db = restructure_database(
        _build_database(schema, args.data), operator)
    result = check_equivalence(program, source_db,
                               report.target_program, target_db,
                               inputs=_load_inputs(args),
                               warnings=tuple(report.warnings),
                               consistent=False)
    print(result.render())
    if not result.equivalent:
        print("source trace:", file=sys.stderr)
        print(result.source_trace.render(), file=sys.stderr)
        print("target trace:", file=sys.stderr)
        print(result.target_trace.render(), file=sys.stderr)
        return 1
    return 0


def cmd_trace_summarize(args) -> int:
    """Render the profile table of a trace file written by
    ``repro convert --trace``."""
    from repro.observe.export import load_trace, render_profile

    spans = load_trace(args.file)
    print(render_profile(spans, top=args.top))
    return 0


def cmd_serve(args) -> int:
    """Run the conversion service: a zero-dependency HTTP job server
    over the facade.  Jobs POSTed to /jobs run as checkpointed batch
    conversions on a bounded queue; progress streams as server-sent
    events; report and checkpoint artifacts download byte-identical to
    a ``repro convert`` run of the same inputs.  SIGTERM drains
    gracefully (resumable checkpoints) and exits 0."""
    from repro.service.server import serve

    return serve(args.spool, host=args.host, port=args.port,
                 queue_limit=args.queue_limit)


def cmd_rules_validate(args) -> int:
    """Load-time validate a rule-catalog file; a malformed catalog
    exits 2 with the offending file and line position."""
    from repro import api
    from repro.catalog import compile_catalog

    catalog = api.load_rule_catalog(Path(args.file))
    compiled = compile_catalog(catalog)
    print(f"catalog {catalog.name} version {catalog.version}: "
          f"{len(catalog.rules)} rule(s), "
          f"{len(catalog.templates)} template(s), "
          f"{len(catalog.algebra)} algebra rewrite(s)")
    print(f"identity {compiled.identity}")
    return 0


def cmd_rules_show(args) -> int:
    """Print a catalog in canonical text form (the builtin catalog by
    default) -- the starting point for writing a custom one."""
    from repro import api

    if args.file:
        catalog = api.load_rule_catalog(Path(args.file))
    else:
        catalog = api.default_catalog()
    print(catalog.render(), end="")
    return 0


def cmd_suggest_renames(args) -> int:
    """Propose rename hypotheses between two schemas."""
    source_schema = _load_schema(args)
    target_schema = parse_ddl(_read(args.target_ddl))
    suggestions = ConversionAnalyzer().suggest_renames(source_schema,
                                                       target_schema)
    if not suggestions:
        print("no rename hypotheses")
        return 0
    for suggestion in suggestions:
        print(suggestion.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Database program conversion framework "
                    "(CODASYL Systems Committee, 1979)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser(
        "validate-ddl", help="parse and reformat a Figure 4.3 DDL file")
    sub.add_argument("file")
    sub.set_defaults(handler=cmd_validate_ddl)

    sub = subparsers.add_parser(
        "changes",
        help="classify the changes of a restructuring specification")
    sub.add_argument("--ddl", required=True)
    sub.add_argument("--spec", required=True)
    sub.add_argument("--target-ddl", action="store_true",
                     help="also print the target schema DDL")
    sub.set_defaults(handler=cmd_changes)

    sub = subparsers.add_parser(
        "analyze",
        help="run the Program Analyzer over a source program")
    sub.add_argument("--ddl", required=True)
    sub.add_argument("--program", required=True)
    sub.set_defaults(handler=cmd_analyze)

    sub = subparsers.add_parser(
        "convert",
        help="convert a program (Figure 4.1); repeat --program for a "
             "fault-isolated, checkpointed batch",
        epilog="exit codes: 0 all programs converted; 1 some programs "
               "did not convert; 2 usage or input error; 3 the parallel "
               "worker pool failed mid-batch (progress is journaled to "
               "--checkpoint -- rerun with --resume); 130 interrupted. "
               "repro serve exit codes: 0 clean drain (SIGTERM/SIGINT; "
               "interrupted jobs leave resumable checkpoints); 2 usage "
               "error; 4 the listener or spool could not be set up")
    sub.add_argument("--ddl", required=True)
    sub.add_argument("--spec", required=True)
    sub.add_argument("--program", required=True, action="append",
                     help="source program file; repeat for a batch")
    sub.add_argument("--target-model", default=None,
                     choices=["network", "relational", "hierarchical"])
    sub.add_argument("--no-optimize", action="store_true",
                     help="single-program mode only")
    sub.add_argument("--rules",
                     help="rule-catalog file driving the Program "
                          "Converter (default: the shipped builtin "
                          "catalog; see 'repro rules show')")
    sub.add_argument("--data",
                     help="batch mode: loader program building the "
                          "probe databases")
    sub.add_argument("--inputs",
                     help="batch mode: terminal input lines for the "
                          "validation probes")
    sub.add_argument("--checkpoint",
                     help="batch mode: JSON checkpoint path; every "
                          "finished program is appended to "
                          "<path>.log, folded into <path> when the "
                          "batch ends")
    sub.add_argument("--resume", action="store_true",
                     help="batch mode: skip programs already journaled "
                          "in --checkpoint")
    sub.add_argument("--jobs", type=int, default=os.cpu_count(),
                     help="batch mode: worker processes (default: one "
                          "per CPU); 1 runs in-process")
    sub.add_argument("--chunk-size", type=int, default=None,
                     help="batch mode: programs per parallel dispatch "
                          "chunk (default: auto, ~8 chunks per worker)")
    sub.add_argument("--parallel-threshold", type=int, default=None,
                     help="batch mode: minimum pending programs before "
                          "a worker pool is spawned; smaller batches "
                          "run in-process (default: max(2*jobs, 32))")
    sub.add_argument("--program-timeout", type=float, default=None,
                     help="batch mode: cooperative per-program watchdog "
                          "deadline in seconds; a program exceeding it "
                          "fails deterministically with a timeout fault "
                          "(serial and parallel alike)")
    sub.add_argument("--report-json",
                     help="batch mode: write the batch-report summary "
                          "JSON here (atomic write; byte-identical to "
                          "a served job's report for the same inputs)")
    sub.add_argument("--out-dir",
                     help="batch mode: write converted programs here, "
                          "one <name>.cob each")
    sub.add_argument("--trace",
                     help="write a trace file (Chrome trace format plus "
                          "the native span tree) of the conversion")
    sub.add_argument("--profile", action="store_true",
                     help="print the per-phase/per-operator time table "
                          "to stderr")
    sub.set_defaults(handler=cmd_convert)

    sub = subparsers.add_parser(
        "run",
        help="load a database (loader program) and run a program; "
             "with --spec, convert and run on the restructured DB")
    sub.add_argument("--ddl", required=True)
    sub.add_argument("--program", required=True)
    sub.add_argument("--data", help="loader program (STOREs)")
    sub.add_argument("--inputs", help="terminal input lines, one per line")
    sub.add_argument("--spec")
    sub.add_argument("--target-model", default=None,
                     choices=["network", "relational", "hierarchical"])
    sub.set_defaults(handler=cmd_run)

    sub = subparsers.add_parser(
        "check",
        help="convert a program and verify I/O equivalence "
             "(Section 1.1) against a loaded instance")
    sub.add_argument("--ddl", required=True)
    sub.add_argument("--spec", required=True)
    sub.add_argument("--program", required=True)
    sub.add_argument("--data", help="loader program (STOREs)")
    sub.add_argument("--inputs", help="terminal input lines, one per line")
    sub.set_defaults(handler=cmd_check)

    sub = subparsers.add_parser(
        "trace",
        help="inspect trace files written by convert --trace")
    trace_subparsers = sub.add_subparsers(dest="trace_command",
                                          required=True)
    sub = trace_subparsers.add_parser(
        "summarize", help="render a trace file's profile table")
    sub.add_argument("file")
    sub.add_argument("--top", type=int, default=15,
                     help="show only the N hottest span names "
                          "(default: 15)")
    sub.set_defaults(handler=cmd_trace_summarize)

    sub = subparsers.add_parser(
        "serve",
        help="run the conversion service: an HTTP job server with "
             "SSE progress streaming over the batch facade",
        epilog="exit codes: 0 clean drain after SIGTERM/SIGINT (any "
               "interrupted job leaves a resumable checkpoint in the "
               "spool -- resubmit it with {\"resume\": \"<job-id>\"}); "
               "2 usage error; 4 the listener or spool could not be "
               "set up")
    sub.add_argument("--spool", required=True,
                     help="directory for job submissions, manifests "
                          "and checkpoints (created if missing; jobs "
                          "found in it on startup are reloaded)")
    sub.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    sub.add_argument("--port", type=int, default=8979,
                     help="TCP port; 0 binds an ephemeral port "
                          "(default: 8979)")
    sub.add_argument("--queue-limit", type=int, default=16,
                     help="maximum queued jobs before POST /jobs "
                          "answers 503 (default: 16)")
    sub.set_defaults(handler=cmd_serve)

    sub = subparsers.add_parser(
        "rules",
        help="inspect and validate conversion-rule catalogs")
    rules_subparsers = sub.add_subparsers(dest="rules_command",
                                          required=True)
    sub = rules_subparsers.add_parser(
        "validate",
        help="load-time validate a rule-catalog file (exit 2 with "
             "file/line position on the first violation)")
    sub.add_argument("file")
    sub.set_defaults(handler=cmd_rules_validate)
    sub = rules_subparsers.add_parser(
        "show",
        help="print a catalog in canonical form (default: the "
             "shipped builtin catalog)")
    sub.add_argument("file", nargs="?", default=None)
    sub.set_defaults(handler=cmd_rules_show)

    sub = subparsers.add_parser(
        "suggest-renames",
        help="propose rename hypotheses between two schemas")
    sub.add_argument("--ddl", required=True)
    sub.add_argument("--target-ddl", required=True)
    sub.set_defaults(handler=cmd_suggest_renames)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
