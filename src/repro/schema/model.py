"""Records, fields, owner-coupled sets, and the Schema container.

This is the paper's "representation free" structure description
(Section 3.1): record types with typed fields, and owner-coupled set
types relating them.  Each data model interprets the same description:

* network   -- records and sets literally (CODASYL);
* relational -- one relation per record type, one foreign-key field per
  set membership (the set name doubles as the implicit FK column);
* hierarchical -- the forest induced by non-SYSTEM sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, TYPE_CHECKING

from repro.errors import (
    SchemaError,
    UnknownField,
    UnknownRecordType,
    UnknownSetType,
)
from repro.schema.types import FieldType, parse_pic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.schema.constraints import Constraint

#: Pseudo owner name for SYSTEM-owned (singular) sets, the entry points
#: of a CODASYL database (Figure 4.3: ``OWNER IS SYSTEM``).
SYSTEM = "SYSTEM"


class Insertion(enum.Enum):
    """CODASYL set insertion class (Section 3.1)."""

    AUTOMATIC = "AUTOMATIC"
    MANUAL = "MANUAL"


class Retention(enum.Enum):
    """CODASYL set retention class (Section 3.1)."""

    MANDATORY = "MANDATORY"
    OPTIONAL = "OPTIONAL"


@dataclass(frozen=True)
class Field:
    """One field of a record type.

    A *virtual* field (Figure 4.3: ``DIV-NAME VIRTUAL VIA DIV-EMP USING
    DIV-NAME``) is not stored in the member record; reads follow the
    named set to the owner and return the named owner field.
    """

    name: str
    type: FieldType
    virtual_via: str | None = None
    virtual_using: str | None = None

    @property
    def is_virtual(self) -> bool:
        return self.virtual_via is not None

    def __post_init__(self) -> None:
        if (self.virtual_via is None) != (self.virtual_using is None):
            raise SchemaError(
                f"field {self.name}: VIRTUAL requires both VIA and USING"
            )


@dataclass(frozen=True)
class RecordType:
    """A record type: ordered fields plus an optional CALC key.

    ``calc_keys`` names the fields used for direct (hashed) location --
    CODASYL ``LOCATION MODE IS CALC`` -- which the optimizer exploits
    when selecting access paths (Section 5.4).
    """

    name: str
    fields: tuple[Field, ...]
    calc_keys: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        by_name: dict[str, Field] = {}
        for fld in self.fields:
            if fld.name in by_name:
                raise SchemaError(
                    f"record {self.name}: duplicate field {fld.name}"
                )
            by_name[fld.name] = fld
        for key in self.calc_keys:
            if key not in by_name:
                raise SchemaError(
                    f"record {self.name}: CALC key {key} is not a field"
                )
        # Field by name, built once: field(), has_field() and
        # validate_values() run once per field of every record read or
        # written.  Not a dataclass field, so equality, hashing and
        # repr still see only the declared ones.
        object.__setattr__(self, "_by_name", by_name)

    def __reduce__(self) -> tuple:
        # Pickle the declared fields only; unpickling builds the map.
        return (type(self), (self.name, self.fields, self.calc_keys))

    def field_names(self) -> list[str]:
        return [fld.name for fld in self.fields]

    def stored_field_names(self) -> list[str]:
        """Field names excluding virtual fields."""
        return [fld.name for fld in self.fields if not fld.is_virtual]

    def field(self, name: str) -> Field:
        fld = self._by_name.get(name)
        if fld is None:
            raise UnknownField(f"record {self.name} has no field {name}")
        return fld

    def has_field(self, name: str) -> bool:
        return name in self._by_name

    def with_fields(self, fields: Iterable[Field]) -> "RecordType":
        return replace(self, fields=tuple(fields))

    def validate_values(self, values: dict[str, Any]) -> dict[str, Any]:
        """Type-check stored values; unknown names raise, virtuals raise."""
        out: dict[str, Any] = {}
        for name, value in values.items():
            fld = self.field(name)
            if fld.is_virtual:
                raise SchemaError(
                    f"record {self.name}: field {name} is VIRTUAL and "
                    "cannot be stored"
                )
            out[name] = fld.type.validate(value)
        return out


@dataclass(frozen=True)
class SetType:
    """An owner-coupled set type (Section 4.2's DDL semantics).

    One owner record type (or SYSTEM), one member record type, member
    ordering by ``order_keys`` (insertion order when empty), and the
    CODASYL insertion/retention classes.  ``allow_duplicates`` is False
    per the Maryland DDL ("Duplicates are not allowed within a set
    occurrence"): duplicate means equal order-key values.
    """

    name: str
    owner: str
    member: str
    order_keys: tuple[str, ...] = ()
    insertion: Insertion = Insertion.AUTOMATIC
    retention: Retention = Retention.OPTIONAL
    allow_duplicates: bool = True

    @property
    def system_owned(self) -> bool:
        return self.owner == SYSTEM

    def __post_init__(self) -> None:
        if self.owner == self.member:
            raise SchemaError(
                f"set {self.name}: owner and member must differ "
                "(recursive sets are out of scope)"
            )


@dataclass
class Schema:
    """A named collection of record types, set types, and constraints."""

    name: str
    records: dict[str, RecordType] = field(default_factory=dict)
    sets: dict[str, SetType] = field(default_factory=dict)
    constraints: list["Constraint"] = field(default_factory=list)

    # -- construction -------------------------------------------------

    def add_record(self, record: RecordType) -> RecordType:
        if record.name in self.records:
            raise SchemaError(f"duplicate record type {record.name}")
        self.records[record.name] = record
        return record

    def add_set(self, set_type: SetType) -> SetType:
        if set_type.name in self.sets:
            raise SchemaError(f"duplicate set type {set_type.name}")
        self.sets[set_type.name] = set_type
        return set_type

    def add_constraint(self, constraint: "Constraint") -> "Constraint":
        self.constraints.append(constraint)
        return constraint

    def define_record(self, name: str, fields: dict[str, str],
                      calc_keys: Iterable[str] = ()) -> RecordType:
        """Shorthand: field name -> PIC string."""
        record = RecordType(
            name,
            tuple(Field(fname, parse_pic(pic)) for fname, pic in fields.items()),
            tuple(calc_keys),
        )
        return self.add_record(record)

    def define_set(self, name: str, owner: str, member: str,
                   order_keys: Iterable[str] = (),
                   insertion: Insertion = Insertion.AUTOMATIC,
                   retention: Retention = Retention.OPTIONAL,
                   allow_duplicates: bool = True) -> SetType:
        """Shorthand for building a set type with validation."""
        set_type = SetType(
            name, owner, member, tuple(order_keys),
            insertion, retention, allow_duplicates,
        )
        self.validate_set(set_type)
        return self.add_set(set_type)

    # -- lookup -------------------------------------------------------

    def record(self, name: str) -> RecordType:
        try:
            return self.records[name]
        except KeyError:
            raise UnknownRecordType(
                f"schema {self.name} has no record type {name}"
            ) from None

    def set_type(self, name: str) -> SetType:
        try:
            return self.sets[name]
        except KeyError:
            raise UnknownSetType(
                f"schema {self.name} has no set type {name}"
            ) from None

    def sets_owned_by(self, record_name: str) -> list[SetType]:
        return [s for s in self.sets.values() if s.owner == record_name]

    def sets_with_member(self, record_name: str) -> list[SetType]:
        return [s for s in self.sets.values() if s.member == record_name]

    def sets_of(self, record_name: str) -> list[SetType]:
        """Set types ``record_name`` owns or belongs to, in schema
        order."""
        return [s for s in self.sets.values()
                if record_name in (s.owner, s.member)]

    def system_sets(self) -> list[SetType]:
        return [s for s in self.sets.values() if s.system_owned]

    def sets_between(self, owner: str, member: str) -> list[SetType]:
        return [
            s for s in self.sets.values()
            if s.owner == owner and s.member == member
        ]

    # -- validation ---------------------------------------------------

    def validate_set(self, set_type: SetType) -> None:
        """Check a set type's references against this schema."""
        if not set_type.system_owned:
            owner = self.record(set_type.owner)
            del owner
        member = self.record(set_type.member)
        for key in set_type.order_keys:
            member.field(key)

    def validate(self) -> None:
        """Check cross-references of the whole schema."""
        for set_type in self.sets.values():
            self.validate_set(set_type)
        for record in self.records.values():
            for fld in record.fields:
                if not fld.is_virtual:
                    continue
                via = self.set_type(fld.virtual_via)
                if via.member != record.name:
                    raise SchemaError(
                        f"record {record.name}: virtual field {fld.name} "
                        f"VIA {via.name}, but {record.name} is not its member"
                    )
                if via.system_owned:
                    raise SchemaError(
                        f"record {record.name}: virtual field {fld.name} "
                        f"cannot be VIA a SYSTEM set"
                    )
                owner = self.record(via.owner)
                owner.field(fld.virtual_using)
        for constraint in self.constraints:
            constraint.validate_against(self)

    # -- utility ------------------------------------------------------

    def copy(self, name: str | None = None) -> "Schema":
        """A structural copy (record/set objects are immutable, shared)."""
        return Schema(
            name if name is not None else self.name,
            dict(self.records),
            dict(self.sets),
            list(self.constraints),
        )

    def is_hierarchical(self) -> bool:
        """True when non-SYSTEM sets form a forest (each record has at
        most one non-SYSTEM set membership and there are no cycles)."""
        parent: dict[str, str] = {}
        for set_type in self.sets.values():
            if set_type.system_owned:
                continue
            if set_type.member in parent:
                return False
            parent[set_type.member] = set_type.owner
        for start in parent:
            seen = {start}
            node = parent.get(start)
            while node is not None:
                if node in seen:
                    return False
                seen.add(node)
                node = parent.get(node)
        return True
