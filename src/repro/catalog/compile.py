"""Compile a validated catalog into the conversion machinery.

:func:`compile_catalog` instantiates each catalog entry through its
primitive's factory, yielding a :class:`CompiledRules`: the object the
Program Converter dispatches through (:meth:`CompiledRules.rule_for`),
the Optimizer gates passes against, the Program Generator gates
language templates against, and the Michigan template converter takes
its algebra bindings from.

:func:`default_catalog` / :func:`default_rules` load the shipped
``data/builtin.rules`` -- the declarative re-expression of every rule
that used to be hardcoded in :mod:`repro.core.rules` -- once per
process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

from repro.catalog.loader import load_catalog_file, validate_catalog
from repro.catalog.model import (
    CHANGE_KINDS,
    NETWORK_TEMPLATES,
    RuleCatalog,
    RuleEntry,
)
from repro.catalog.primitives import PRIMITIVES
from repro.core.code_templates import DEFAULT_ALGEBRA_MAP
from repro.core.rules import TransformationRule
from repro.errors import UnconvertiblePattern
from repro.schema.diff import SchemaChange


@dataclass(frozen=True)
class CompiledRules:
    """A catalog instantiated into :class:`TransformationRule` objects.

    ``entries[i]`` describes ``rules[i]``; dispatch walks them in
    catalog order, so a guarded entry listed before a general one acts
    as a kind-specific override.  The whole object pickles with the
    cascade to parallel workers.
    """

    catalog: RuleCatalog
    rules: tuple[TransformationRule, ...]
    entries: tuple[RuleEntry, ...]
    #: Network language templates the generator may emit.
    templates: frozenset[str]
    #: (change kind, rewrite name) bindings for the Michigan algebra.
    algebra: tuple[tuple[str, str], ...]
    #: Optimizer passes the catalog permits (None: no gating).
    passes: tuple[str, ...] | None
    #: The catalog's content hash (:meth:`RuleCatalog.identity`).
    identity: str

    def rule_for(self, change: SchemaChange) -> TransformationRule:
        """The first entry whose kind and guards match ``change``."""
        kind = change.kind
        for entry, rule in zip(self.entries, self.rules):
            if entry.on != kind:
                continue
            if all(guard.matches(change) for guard in entry.guards):
                return rule
        raise UnconvertiblePattern(
            f"no transformation rule for change kind {kind}"
        )

    def gate_passes(self, passes: tuple[str, ...]) -> tuple[str, ...]:
        """Intersect the caller's pass list with the catalog's PASSES
        grant, preserving the caller's order."""
        if self.passes is None:
            return tuple(passes)
        allowed = set(self.passes)
        return tuple(name for name in passes if name in allowed)

    def algebra_map(self) -> dict[str, str]:
        """Change kind -> rewrite name, for ``convert_algebra``."""
        return dict(self.algebra)


def compile_catalog(catalog: RuleCatalog) -> CompiledRules:
    """Validate and instantiate ``catalog``."""
    validate_catalog(catalog)
    rules = tuple(
        PRIMITIVES[entry.using].factory(entry, CHANGE_KINDS[entry.on])
        for entry in catalog.rules
    )
    if catalog.templates:
        templates = frozenset(
            entry.name for entry in catalog.templates
            if entry.model == "network"
        )
    else:
        templates = frozenset(NETWORK_TEMPLATES)
    if catalog.algebra:
        algebra = tuple(
            (entry.on, entry.rewrite) for entry in catalog.algebra)
    else:
        algebra = tuple(DEFAULT_ALGEBRA_MAP.items())
    return CompiledRules(catalog, rules, catalog.rules, templates,
                         algebra, catalog.passes, catalog.identity())


@functools.cache
def default_catalog() -> RuleCatalog:
    """The shipped builtin catalog, loaded once per process."""
    return load_catalog_file(Path(__file__).with_name("data")
                             / "builtin.rules")


@functools.cache
def default_rules() -> CompiledRules:
    """The builtin catalog, compiled once per process."""
    return compile_catalog(default_catalog())


__all__ = [
    "CompiledRules",
    "compile_catalog",
    "default_catalog",
    "default_rules",
]
