"""The rule-catalog data model.

A :class:`RuleCatalog` is the declarative, versioned description of a
conversion ruleset: which :class:`~repro.schema.diff.SchemaChange`
kinds are handled, by which primitive combinator, with which analyst
message templates, cost hints, and applicability guards -- plus the
language templates the Program Generator may emit, the Michigan
algebra rewrites, and the optimizer passes the catalog permits.

Everything here is a frozen dataclass of strings and tuples, so a
catalog pickles with the cascade to parallel workers and hashes to a
stable :meth:`RuleCatalog.identity`.  The service's ``pool_key``
hashes a submission's catalog text with the artifacts the cascade is
built from, so two jobs share a cascade and its warm pool only when
they submit the same catalog.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import repro.schema.diff as schema_diff
from repro.schema.diff import SchemaChange

#: Current catalog format version (the ``CATALOG <name> VERSION <n>``
#: header).  Bump when the text format changes incompatibly.
CATALOG_VERSION = 1

#: Change kind name -> dataclass, built from the Section 4 taxonomy.
#: The loader validates every ``ON`` clause against this registry.
CHANGE_KINDS: dict[str, type[SchemaChange]] = {
    name: value
    for name, value in vars(schema_diff).items()
    if isinstance(value, type)
    and issubclass(value, SchemaChange)
    and value is not SchemaChange
}

#: Network-model language templates the Program Generator can emit;
#: a catalog's TEMPLATE entries gate which of these are available.
NETWORK_TEMPLATES = (
    "locate",
    "scan",
    "keyed-scan",
    "process-first",
    "owner-hop",
)

#: Data models a TEMPLATE entry may target.
TEMPLATE_MODELS = ("network", "relational", "hierarchical")


@dataclass(frozen=True)
class Guard:
    """One applicability guard: the entry matches a change only when
    ``getattr(change, attr)`` equals ``value`` (membership for tuple
    attributes)."""

    attr: str
    value: str

    def matches(self, change: SchemaChange) -> bool:
        actual = getattr(change, self.attr, None)
        if isinstance(actual, tuple):
            return self.value in actual
        if isinstance(actual, str):
            return actual == self.value
        return str(actual) == self.value


@dataclass(frozen=True)
class RuleEntry:
    """One catalog rule: change kind -> primitive + message templates."""

    name: str
    on: str
    using: str
    notes: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    refusal: str | None = None
    cost: int | None = None
    guards: tuple[Guard, ...] = ()
    #: Source line of the ``RULE`` directive (0 for programmatic
    #: entries); excluded from equality so a reloaded render compares
    #: equal to the original.
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class TemplateEntry:
    """One language template the generator may emit for the model."""

    name: str
    model: str = "network"
    doc: str | None = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class AlgebraEntry:
    """One Michigan-algebra rewrite binding: change kind -> rewrite."""

    name: str
    on: str
    rewrite: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class DomainDecl:
    """Optional declared vocabulary for dangling-reference checks:
    guard values naming records/sets/fields outside this vocabulary
    are load-time errors."""

    records: tuple[tuple[str, tuple[str, ...]], ...] = ()
    sets: tuple[str, ...] = ()

    def record_names(self) -> frozenset[str]:
        return frozenset(name for name, _fields in self.records)

    def field_names(self, record: str | None = None) -> frozenset[str]:
        out: set[str] = set()
        for name, fields in self.records:
            if record is None or name == record:
                out.update(fields)
        return frozenset(out)


@dataclass(frozen=True)
class RuleCatalog:
    """A parsed, validated rule catalog (see :mod:`repro.catalog`)."""

    name: str
    version: int
    rules: tuple[RuleEntry, ...]
    templates: tuple[TemplateEntry, ...] = ()
    algebra: tuple[AlgebraEntry, ...] = ()
    passes: tuple[str, ...] | None = None
    domain: DomainDecl | None = None

    def rule(self, name: str) -> RuleEntry:
        for entry in self.rules:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def render(self) -> str:
        """Canonical text form; ``load_catalog_text(render())`` yields
        an equal catalog (the round-trip contract the parity tests
        pin)."""
        lines = [f"CATALOG {self.name} VERSION {self.version}", ""]
        if self.domain is not None:
            lines.append("DOMAIN")
            for record, fields in self.domain.records:
                suffix = f" FIELDS {', '.join(fields)}" if fields else ""
                lines.append(f"  RECORD {record}{suffix}")
            for set_name in self.domain.sets:
                lines.append(f"  SET {set_name}")
            lines.extend(("END", ""))
        for entry in self.rules:
            lines.append(f"RULE {entry.name}")
            lines.append(f"  ON {entry.on}")
            lines.append(f"  USING {entry.using}")
            if entry.cost is not None:
                lines.append(f"  COST {entry.cost}")
            for guard in entry.guards:
                lines.append(f"  ONLY {guard.attr} {guard.value}")
            for note in entry.notes:
                lines.append(f"  NOTE {quote(note)}")
            for warning in entry.warnings:
                lines.append(f"  WARN {quote(warning)}")
            if entry.refusal is not None:
                lines.append(f"  REFUSE {quote(entry.refusal)}")
            lines.extend(("END", ""))
        for template in self.templates:
            lines.append(f"TEMPLATE {template.name}")
            lines.append(f"  MODEL {template.model}")
            if template.doc is not None:
                lines.append(f"  DOC {quote(template.doc)}")
            lines.extend(("END", ""))
        for algebra in self.algebra:
            lines.append(f"ALGEBRA {algebra.name}")
            lines.append(f"  ON {algebra.on}")
            lines.append(f"  REWRITE {algebra.rewrite}")
            lines.extend(("END", ""))
        if self.passes is not None:
            lines.extend((f"PASSES {', '.join(self.passes)}", ""))
        return "\n".join(lines[:-1] if lines[-1] == "" else lines) + "\n"

    def identity(self) -> str:
        """A stable content hash of the canonical rendering -- the
        catalog identity the compiled rules carry into worker pickles
        (:attr:`repro.catalog.compile.CompiledRules.identity`)."""
        return hashlib.sha256(self.render().encode("utf-8")).hexdigest()


def quote(text: str) -> str:
    """Render one message template as a catalog string literal."""
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


__all__ = [
    "AlgebraEntry",
    "CATALOG_VERSION",
    "CHANGE_KINDS",
    "DomainDecl",
    "Guard",
    "NETWORK_TEMPLATES",
    "RuleCatalog",
    "RuleEntry",
    "TEMPLATE_MODELS",
    "TemplateEntry",
    "quote",
]
