"""The access path graph's search on generated schemas.

``AccessPathGraph`` enumerates simple association paths with a
standard-library depth-first search.  It must return what the
networkx search it replaced returned: the deduplicated
``all_simple_paths`` node paths, each expanded over its parallel sets,
in the same order.  networkx is not a dependency, so that comparison
runs only where it is installed; a brute-force enumerator kept here
checks the same set of paths everywhere.
"""

from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.access_path_graph import AccessPathGraph, PathHop
from repro.errors import NoAccessPath
from repro.schema import Schema
from repro.schema.model import SYSTEM

NAMES = [f"R{i}" for i in range(6)]
HOP_LIMITS = range(0, 7)


@st.composite
def shapes(draw):
    """A record count and a list of (owner, member) sets over them.

    Set pairs are drawn from at most six records, so parallel sets
    (either way round), SYSTEM-owned sets and records that no set
    joins are all common.
    """
    names = NAMES[:draw(st.integers(1, len(NAMES)))]
    owners = st.sampled_from([SYSTEM, *names])
    members = st.sampled_from(names)
    sets = draw(st.lists(
        st.tuples(owners, members).filter(lambda pair: pair[0] != pair[1]),
        max_size=10,
    ))
    return len(names), sets


def build_schema(shape):
    count, sets = shape
    schema = Schema("GENERATED")
    for name in NAMES[:count]:
        schema.define_record(name, {"X": "X(1)"})
    for index, (owner, member) in enumerate(sets):
        schema.define_set(f"S{index}", owner, member)
    return schema


def hop_choices(schema, node_path):
    """Every hop list along a node path, one per choice of parallel
    set, in schema order."""
    steps = []
    for from_record, to_record in zip(node_path, node_path[1:]):
        steps.append([
            PathHop(s.name, from_record, to_record,
                    "down" if s.owner == from_record else "up")
            for s in schema.sets.values()
            if {s.owner, s.member} == {from_record, to_record}
        ])
    return [list(hops) for hops in product(*steps)]


def brute_force_paths(schema, source, target, max_hops):
    """Every simple path, found by trying each ordered choice of
    intermediate record types."""
    if source == target:
        return [[]]
    others = [name for name in schema.records if name not in (source, target)]
    found = []
    for middle in range(max_hops):
        for inner in permutations(others, middle):
            found.extend(hop_choices(schema, [source, *inner, target]))
    return found


def networkx_paths(nx, schema, source, target, max_hops):
    """The networkx search ``AccessPathGraph`` used to run."""
    if source == target:
        return [[]]
    graph = nx.MultiGraph()
    graph.add_nodes_from(schema.records)
    for set_type in schema.sets.values():
        if not set_type.system_owned:
            graph.add_edge(set_type.owner, set_type.member,
                           key=set_type.name)
    node_paths = []
    for node_path in nx.all_simple_paths(graph, source, target,
                                         cutoff=max_hops):
        if node_path not in node_paths:
            node_paths.append(node_path)
    return [hops for node_path in node_paths
            for hops in hop_choices(schema, node_path)]


def shortest_or_none(graph, source, target):
    try:
        return graph.shortest_path(source, target)
    except NoAccessPath:
        return None


def as_keys(paths):
    return Counter(
        tuple((h.set_name, h.from_record, h.to_record, h.direction)
              for h in path)
        for path in paths
    )


# Two records joined both ways round plus a SYSTEM set, beside a
# record no set joins; and a triangle with one pair doubled.
SHAPES = [
    (3, [("R0", "R1"), ("R1", "R0"), (SYSTEM, "R0")]),
    (4, [("R0", "R1"), ("R1", "R2"), ("R2", "R0"), ("R0", "R1")]),
]


@example(SHAPES[0])
@example(SHAPES[1])
@settings(max_examples=100, deadline=None)
@given(shapes())
def test_paths_match_brute_force(shape):
    schema = build_schema(shape)
    graph = AccessPathGraph(schema)
    for source, target in product(schema.records, repeat=2):
        for max_hops in HOP_LIMITS:
            expected = brute_force_paths(schema, source, target, max_hops)
            assert as_keys(graph.paths(source, target, max_hops)) == \
                as_keys(expected)
        expected = brute_force_paths(schema, source, target, 6)
        assert graph.is_ambiguous(source, target) == (len(expected) > 1)
        shortest = shortest_or_none(graph, source, target)
        if not expected:
            assert shortest is None
        else:
            assert shortest in expected
            assert len(shortest) == min(len(path) for path in expected)


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


@example(shape=SHAPES[0])
@example(shape=SHAPES[1])
@settings(max_examples=100, deadline=None)
@given(shape=shapes())
def test_answers_match_networkx(nx, shape):
    schema = build_schema(shape)
    graph = AccessPathGraph(schema)
    for source, target in product(schema.records, repeat=2):
        for max_hops in HOP_LIMITS:
            assert graph.paths(source, target, max_hops) == \
                networkx_paths(nx, schema, source, target, max_hops)
        expected = networkx_paths(nx, schema, source, target, 6)
        assert graph.is_ambiguous(source, target) == (len(expected) > 1)
        shortest = min(expected, key=len) if expected else None
        assert shortest_or_none(graph, source, target) == shortest

