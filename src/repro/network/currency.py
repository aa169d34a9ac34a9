"""Currency indicators.

CODASYL navigation is stateful: every successful FIND/STORE updates the
*current of run-unit*, the *current of record type*, and the *current of
set* for every set the record participates in.  Section 2.1.2 singles
out currency as what makes DML emulation "extremely complicated" -- the
conversion software "may require ... status values (e.g., currency)" --
so the model keeps the full table explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.database import NetworkDatabase
    from repro.schema.model import Schema


@dataclass(frozen=True)
class CurrencyPosition:
    """A currency value: which record, of which type.

    For currents-of-set the position may also be the *owner* of the set
    occurrence (after FIND OWNER), so the record type name matters.
    """

    record_name: str
    rid: int


@dataclass
class CurrencyTable:
    """All currency indicators of one run unit."""

    run_unit: CurrencyPosition | None = None
    records: dict[str, CurrencyPosition] = field(default_factory=dict)
    sets: dict[str, CurrencyPosition] = field(default_factory=dict)

    def note(self, schema: Schema | NetworkDatabase, record_name: str,
             rid: int, retain_sets: frozenset[str] = frozenset()) -> None:
        """Register a successful access to (record_name, rid).

        Updates run-unit, record-type, and set currencies, except for
        sets named in ``retain_sets`` (the DBTG ``RETAINING CURRENCY``
        option, which converted programs sometimes need to preserve
        source navigation behavior).  ``schema.sets_of`` names the sets
        concerned: a :class:`~repro.schema.model.Schema` searches its
        sets, a database (what the DML session passes) looks them up.
        """
        position = CurrencyPosition(record_name, rid)
        self.run_unit = position
        self.records[record_name] = position
        for set_type in schema.sets_of(record_name):
            if set_type.name not in retain_sets:
                self.sets[set_type.name] = position

    def forget_record(self, record_name: str, rid: int) -> None:
        """Clear every indicator pointing at a deleted record."""
        position = CurrencyPosition(record_name, rid)
        if self.run_unit == position:
            self.run_unit = None
        self.records = {
            name: pos for name, pos in self.records.items()
            if pos != position
        }
        self.sets = {
            name: pos for name, pos in self.sets.items()
            if pos != position
        }

    def of_set(self, set_name: str) -> CurrencyPosition | None:
        return self.sets.get(set_name)

    def of_record(self, record_name: str) -> CurrencyPosition | None:
        return self.records.get(record_name)

    def clear(self) -> None:
        self.run_unit = None
        self.records.clear()
        self.sets.clear()
