"""The Conversion Analyzer (Figure 4.1).

"The Conversion Analyzer analyzes the source and target databases in
order to classify the types of changes that have been made and to
encode the descriptions in suitable internal representations."

Input is either a restructuring operator (the paper's "definition of a
restructuring") or just the two schemas (name-diff inference).  Output
is a :class:`ChangeCatalog`: the classified change list and the two
schemas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.restructure.operators import RestructuringOperator
from repro.schema.diff import (
    FieldAdded,
    FieldRemoved,
    RecordAdded,
    RecordRemoved,
    SchemaChange,
    diff_schemas,
)
from repro.schema.model import Schema


@dataclass(frozen=True)
class RenameSuggestion:
    """A remove+add pair the analyzer believes is really a rename;
    the Conversion Analyst confirms or rejects it."""

    kind: str       # 'record' | 'field'
    old_name: str
    new_name: str
    evidence: str

    def render(self) -> str:
        return (f"{self.kind} {self.old_name} -> {self.new_name}? "
                f"({self.evidence})")


@dataclass
class ChangeCatalog:
    """Classified changes plus source/target schemas."""

    source_schema: Schema
    target_schema: Schema
    changes: list[SchemaChange] = field(default_factory=list)

    def is_information_preserving(self) -> bool:
        """No record/field removal -- the Section 1.1 precondition for
        full convertibility."""
        return not any(
            isinstance(change, (RecordRemoved, FieldRemoved))
            for change in self.changes
        )

    def summary(self) -> str:
        lines = [f"{len(self.changes)} classified change(s):"]
        lines.extend(f"  - {change.describe()}" for change in self.changes)
        return "\n".join(lines)


class ConversionAnalyzer:
    """Builds ChangeCatalogs from operators or schema pairs."""

    def analyze_operator(self, source_schema: Schema,
                         operator: RestructuringOperator) -> ChangeCatalog:
        """The primary mode: the restructuring definition is given."""
        target_schema = operator.apply_schema(source_schema)
        changes = operator.changes(source_schema)
        return ChangeCatalog(source_schema, target_schema, changes)

    def analyze_schemas(self, source_schema: Schema,
                        target_schema: Schema) -> ChangeCatalog:
        """Fallback mode: infer changes by name-diffing two schemas.

        Structural transformations (renames, interpositions) cannot be
        inferred this way; they show up as remove+add pairs that the
        converter will flag for the analyst.  Use
        :meth:`suggest_renames` to turn matching remove+add pairs into
        analyst-confirmable rename hypotheses.
        """
        changes = diff_schemas(source_schema, target_schema)
        return ChangeCatalog(source_schema, target_schema, changes)

    def suggest_renames(self, source_schema: Schema,
                        target_schema: Schema) -> list["RenameSuggestion"]:
        """Propose rename hypotheses for remove+add pairs.

        A removed record type whose stored-field *signature* (names +
        PIC types + CALC keys) matches exactly one added record type is
        probably a rename -- Section 5.1's "classes of meaningful
        changes" studied so the analyst confirms instead of redesigns.
        The same matching applies to fields within a shared record
        (same PIC type, removed and added together).
        """
        changes = diff_schemas(source_schema, target_schema)
        suggestions: list[RenameSuggestion] = []

        removed_records = [c.record for c in changes
                           if isinstance(c, RecordRemoved)]
        added_records = [c.record for c in changes
                         if isinstance(c, RecordAdded)]

        def record_signature(schema: Schema, name: str) -> tuple:
            record = schema.record(name)
            return (
                tuple((f.name, f.type.pic, f.is_virtual)
                      for f in record.fields),
                record.calc_keys,
            )

        for old_name in removed_records:
            signature = record_signature(source_schema, old_name)
            matches = [
                new_name for new_name in added_records
                if record_signature(target_schema, new_name) == signature
            ]
            if len(matches) == 1:
                suggestions.append(RenameSuggestion(
                    "record", old_name, matches[0],
                    "identical field signature and CALC keys",
                ))

        # Field renames within a record present on both sides.
        removed_fields = [(c.record, c.field_name) for c in changes
                          if isinstance(c, FieldRemoved)]
        added_fields = [(c.record, c.field_name) for c in changes
                        if isinstance(c, FieldAdded)]
        for record_name, old_field in removed_fields:
            if record_name not in target_schema.records:
                continue
            old_type = source_schema.record(record_name).field(
                old_field).type
            matches = [
                new_field for new_record, new_field in added_fields
                if new_record == record_name
                and target_schema.record(record_name).field(
                    new_field).type == old_type
            ]
            if len(matches) == 1:
                suggestions.append(RenameSuggestion(
                    "field", f"{record_name}.{old_field}",
                    f"{record_name}.{matches[0]}",
                    f"only type-compatible candidate (PIC "
                    f"{old_type.pic})",
                ))
        return suggestions
