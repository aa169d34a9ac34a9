"""Exception hierarchy for the conversion framework.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  The hierarchy mirrors the subsystem
layering: engine errors, schema/DDL errors, data-model DML errors,
restructuring errors, and conversion errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class EngineError(ReproError):
    """Base class for storage-engine errors."""


class RecordNotFound(EngineError):
    """A record id does not exist (or was deleted)."""


class DuplicateKey(EngineError):
    """An index with unique keys rejected a duplicate entry."""


class SavepointMismatch(EngineError):
    """A savepoint token was offered to an object that did not issue it
    (or whose structure changed since it was issued)."""


# ---------------------------------------------------------------------------
# Schema / DDL
# ---------------------------------------------------------------------------


class SchemaError(ReproError):
    """Base class for schema-definition errors."""


class DDLSyntaxError(SchemaError):
    """The DDL text could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownRecordType(SchemaError):
    """A record type name is not declared in the schema."""


class UnknownField(SchemaError):
    """A field name is not declared on the record type."""


class UnknownSetType(SchemaError):
    """A set type name is not declared in the schema."""


class NoAccessPath(SchemaError):
    """No chain of associations joins two record types within the hop
    limit (the Section 4.1 access path graph)."""


# ---------------------------------------------------------------------------
# Integrity
# ---------------------------------------------------------------------------


class IntegrityError(ReproError):
    """A database operation would violate a declared integrity constraint.

    The paper's Section 1.1 requires that every database program take the
    database from one consistent state to another; the engines raise this
    error whenever an operation (or a run-unit commit) would break that
    guarantee.
    """

    def __init__(self, message: str, constraint: object | None = None):
        self.constraint = constraint
        super().__init__(message)


class ExistenceViolation(IntegrityError):
    """A referenced owner/parent instance does not exist (Section 3.1)."""


class UniquenessViolation(IntegrityError):
    """A tuple/record duplicates a declared key (Section 3.1)."""


class MandatoryViolation(IntegrityError):
    """A MANDATORY set member would be left without an owner."""


# ---------------------------------------------------------------------------
# DML (all three data models)
# ---------------------------------------------------------------------------


class DMLError(ReproError):
    """Base class for data-manipulation errors."""


class CurrencyError(DMLError):
    """A navigational DML verb was issued without the needed currency."""


class QueryError(DMLError):
    """A SEQUEL/CDML query is malformed or refers to unknown names."""


# ---------------------------------------------------------------------------
# Restructuring
# ---------------------------------------------------------------------------


class RestructureError(ReproError):
    """A schema transformation cannot be applied."""


class NotInvertible(RestructureError):
    """The restructuring has no inverse mapping (Housel's restriction)."""


class InformationLoss(RestructureError):
    """The restructuring discards source information (Section 1.1 warns
    that conversion without information preservation is a different and
    harder problem)."""


# ---------------------------------------------------------------------------
# Rule catalogs
# ---------------------------------------------------------------------------


class CatalogError(ReproError):
    """A rule-catalog document failed load-time validation.

    Every violation -- unknown directive or key, unknown change kind
    or primitive, dangling record/set/field reference, template
    placeholder mismatch -- is a hard error carrying the file and line
    position of the offending entry, in the same ``line N:`` idiom as
    :class:`DDLSyntaxError`.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None):
        self.path = path
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Conversion pipeline
# ---------------------------------------------------------------------------


class ConversionError(ReproError):
    """Base class for Figure 4.1 pipeline failures.

    Carries optional structured context so batch fault reports can say
    *where* a conversion died: the program being converted, the
    pipeline phase (``analyze`` / ``convert`` / ``optimize`` /
    ``generate`` / a strategy name), and the statement being processed.
    All three default to None; the supervisor fills in whatever the
    raise site did not know.
    """

    def __init__(self, message: str, *, program: str | None = None,
                 phase: str | None = None,
                 statement: str | None = None):
        self.program = program
        self.phase = phase
        self.statement = statement
        super().__init__(message)

    def context(self) -> dict[str, str]:
        """The non-None context fields, for structured fault reports."""
        out = {}
        for name in ("program", "phase", "statement"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def __str__(self) -> str:
        base = super().__str__()
        context = self.context()
        if not context:
            return base
        rendered = ", ".join(f"{k}={v}" for k, v in context.items())
        return f"{base} [{rendered}]"


class AnalysisError(ConversionError):
    """The program analyzer could not derive an abstract representation."""


class GenerationError(ConversionError):
    """The program generator cannot express an abstract operation in
    the target data model's DML."""


class UnconvertiblePattern(ConversionError):
    """No transformation rule covers an access pattern under the given
    schema change; the supervisor reports these to the analyst."""


class PipelineFault(ConversionError):
    """An *unexpected* exception escaped a pipeline phase.

    The supervisor wraps stray exceptions (engine bugs, injected
    faults) in this class -- always ``raise ... from exc`` -- so batch
    conversion can isolate the failing program while keeping the
    chained root cause."""


def annotate(error: ConversionError, *, program: str | None = None,
             phase: str | None = None,
             statement: str | None = None) -> ConversionError:
    """Fill in context fields the raise site did not know, without
    overwriting anything it did.  Returns the same error object so
    ``raise annotate(error, ...)`` reads naturally."""
    if error.program is None:
        error.program = program
    if error.phase is None:
        error.phase = phase
    if error.statement is None:
        error.statement = statement
    return error
