"""Access path graphs (Section 4.1).

Su's "data model dependent representation, called an 'access path
graph', is used to describe how a data traversal can be interpreted in
the relational, network, or hierarchical model."  Here the graph's
nodes are record types and its edges are the associations (set types),
annotated per data model with how the hop is realized:

* network      -- owner->member set traversal / member->owner FIND OWNER
* relational   -- equi-join on the foreign-key columns
* hierarchical -- parent->child GNP / child->parent re-GU

The graph answers two framework questions: *is* there an access path
between two entity types (and through which associations), and is the
path *ambiguous* -- multiple distinct paths, which Figure 4.1 says the
supervisor must resolve interactively ("if ... multiple data paths can
be found to carry out an access then these issues can be resolved
interactively").

The search is the standard library's alone: an adjacency map of record
types (neighbours in first-insertion order, one entry however many
sets join a pair) and a depth-first enumeration of simple node paths,
each expanded into one hop list per choice of parallel set.
``shortest_path`` raises :class:`~repro.errors.NoAccessPath` when two
record types are not connected within the hop limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import NoAccessPath
from repro.relational.database import fk_columns
from repro.schema.model import Schema


@dataclass(frozen=True)
class PathHop:
    """One edge of an access path."""

    set_name: str
    from_record: str
    to_record: str
    direction: str  # 'down' (owner->member) or 'up' (member->owner)

    def realization(self, model: str, schema: Schema) -> str:
        """How this hop executes in a given data model."""
        if model == "network":
            if self.direction == "down":
                return f"FIND NEXT {self.to_record} WITHIN {self.set_name}"
            return f"FIND OWNER WITHIN {self.set_name}"
        if model == "relational":
            set_type = schema.set_type(self.set_name)
            columns = fk_columns(schema, set_type)
            return (f"join {self.from_record} and {self.to_record} "
                    f"on ({', '.join(columns)})")
        if model == "hierarchical":
            if self.direction == "down":
                return f"GNP {self.to_record}"
            return f"GU {self.to_record} (re-establish parentage)"
        raise ValueError(f"unknown model {model!r}")


class AccessPathGraph:
    """Record types and their associations as an undirected multigraph."""

    def __init__(self, schema: Schema):
        self.schema = schema
        # record type -> neighbouring record types, in the order the
        # schema first joins them; parallel sets share one entry.
        self.adjacent: dict[str, dict[str, None]] = {
            record_name: {} for record_name in schema.records
        }
        for set_type in schema.sets.values():
            if set_type.system_owned:
                continue
            owner, member = set_type.owner, set_type.member
            self.adjacent.setdefault(owner, {})[member] = None
            self.adjacent.setdefault(member, {})[owner] = None

    def paths(self, source: str, target: str,
              max_hops: int = 6) -> list[list[PathHop]]:
        """All simple association paths between two record types."""
        self.schema.record(source)
        self.schema.record(target)
        if source == target:
            return [[]]
        found: list[list[PathHop]] = []
        for node_path in self._node_paths(source, target, max_hops):
            found.extend(self._expand_edges(node_path))
        return found

    def _node_paths(self, source: str, target: str,
                    max_hops: int) -> Iterator[list[str]]:
        """Simple node paths of at most ``max_hops`` edges, depth first.

        Neighbours are tried in adjacency order and a path stops at
        ``target``, so no node path is found twice.
        """
        if max_hops < 1:
            return
        path = [source]
        pending = [iter(self.adjacent[source])]
        while pending:
            node = next((n for n in pending[-1] if n not in path), None)
            if node is None:
                pending.pop()
                path.pop()
            elif node == target:
                yield path + [node]
            elif len(path) < max_hops:
                path.append(node)
                pending.append(iter(self.adjacent[node]))

    def _expand_edges(self, node_path: list[str]) -> list[list[PathHop]]:
        """A node path may cross parallel sets; enumerate each choice."""
        options: list[list[PathHop]] = [[]]
        for from_record, to_record in zip(node_path, node_path[1:]):
            hops: list[PathHop] = []
            for set_type in self.schema.sets.values():
                if set_type.system_owned:
                    continue
                if (set_type.owner == from_record
                        and set_type.member == to_record):
                    hops.append(PathHop(set_type.name, from_record,
                                        to_record, "down"))
                elif (set_type.member == from_record
                      and set_type.owner == to_record):
                    hops.append(PathHop(set_type.name, from_record,
                                        to_record, "up"))
            options = [
                prefix + [hop] for prefix in options for hop in hops
            ]
        return options

    def is_ambiguous(self, source: str, target: str) -> bool:
        """Multiple distinct access paths exist -- an analyst question."""
        return len(self.paths(source, target)) > 1

    def shortest_path(self, source: str, target: str) -> list[PathHop]:
        """The (hop-count) shortest path; raises when none exists."""
        candidates = self.paths(source, target)
        if not candidates:
            raise NoAccessPath(
                f"no access path between {source} and {target}"
            )
        return min(candidates, key=len)

    def entry_points(self) -> list[str]:
        """Record types reachable directly (SYSTEM sets or CALC keys)."""
        entries = {
            set_type.member for set_type in self.schema.system_sets()
        }
        entries.update(
            name for name, record in self.schema.records.items()
            if record.calc_keys
        )
        return sorted(entries)
