"""Snapshot adjacency indexes: correctness against the linear-scan
reference, invalidation under mutation, copy-on-write isolation, and
the O(n) access-path guarantee of the bulk hierarchical load.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.restructure import (
    AddField,
    Composite,
    RenameField,
    extract_snapshot,
    load_hierarchical,
)
from repro.restructure.translator import DataSnapshot
from repro.workloads import company
from repro.workloads.chain import build_snapshot, perf_schema, size_split


def naive_owner_of(snapshot, set_name, member_id):
    """The seed's linear scan, kept as the reference semantics."""
    for owner_id, linked_member in snapshot.links.get(set_name, []):
        if linked_member == member_id:
            return owner_id
    return None


def naive_members_of(snapshot, set_name, owner_id):
    return [
        member_id
        for linked_owner, member_id in snapshot.links.get(set_name, [])
        if linked_owner == owner_id
    ]


# ---------------------------------------------------------------------------
# Randomized agreement with the reference
# ---------------------------------------------------------------------------


@st.composite
def snapshots(draw):
    """A random snapshot: 2 record types, 1-3 sets, arbitrary links
    (including system-owned pairs and duplicate member entries)."""
    n_owner = draw(st.integers(min_value=1, max_value=6))
    n_member = draw(st.integers(min_value=1, max_value=8))
    snapshot = DataSnapshot()
    snapshot.rows["O"] = [{"K": index} for index in range(n_owner)]
    snapshot.rows["M"] = [{"V": index} for index in range(n_member)]
    set_names = draw(st.lists(st.sampled_from(["S1", "S2", "S3"]),
                              min_size=1, max_size=3, unique=True))
    owner_ids = st.one_of(
        st.none(),
        st.integers(0, n_owner - 1).map(lambda i: ("O", i)),
    )
    member_ids = st.integers(0, n_member - 1).map(lambda i: ("M", i))
    for set_name in set_names:
        pairs = draw(st.lists(st.tuples(owner_ids, member_ids),
                              max_size=12))
        snapshot.links[set_name] = pairs
    return snapshot


def assert_agrees(snapshot):
    for set_name in list(snapshot.links):
        for index in range(len(snapshot.rows["M"])):
            member_id = ("M", index)
            assert snapshot.owner_of(set_name, member_id) == \
                naive_owner_of(snapshot, set_name, member_id)
        owners = [None] + [("O", i) for i in range(len(snapshot.rows["O"]))]
        for owner_id in owners:
            assert snapshot.members_of(set_name, owner_id) == \
                naive_members_of(snapshot, set_name, owner_id)
    # Unknown sets answer empty, matching the reference.
    assert snapshot.owner_of("NO-SUCH-SET", ("M", 0)) is None
    assert snapshot.members_of("NO-SUCH-SET", None) == []


@given(snapshots())
@settings(max_examples=60, deadline=None)
def test_indexed_lookups_agree_with_linear_reference(snapshot):
    assert_agrees(snapshot)


@given(snapshots(), st.data())
@settings(max_examples=60, deadline=None)
def test_indexes_invalidate_under_mutation(snapshot, data):
    assert_agrees(snapshot)  # force index builds before mutating
    set_name = data.draw(st.sampled_from(sorted(snapshot.links)))
    action = data.draw(st.sampled_from(
        ["replace", "pop", "append_in_place", "rename"]))
    if action == "replace":
        pairs = snapshot.links[set_name]
        snapshot.links[set_name] = list(reversed(pairs))
    elif action == "pop":
        snapshot.links.pop(set_name)
    elif action == "append_in_place":
        pairs = snapshot.links_for_write(set_name)
        pairs.append((None, ("M", 0)))
    elif action == "rename":
        snapshot.rename_links_key(set_name, "RENAMED")
    assert_agrees(snapshot)


@given(snapshots())
@settings(max_examples=40, deadline=None)
def test_share_isolates_source_from_derived_writes(snapshot):
    baseline = snapshot.copy()
    derived = snapshot.share()
    for row in derived.rows_for_write("M"):
        row["V"] = "MUTATED"
    for set_name in list(derived.links):
        derived.links[set_name] = []
    assert snapshot.rows == baseline.rows
    assert snapshot.links == baseline.links
    assert_agrees(snapshot)


# ---------------------------------------------------------------------------
# Operator chains over a real workload
# ---------------------------------------------------------------------------


def test_operator_chain_preserves_source_snapshot():
    db = company.company_db(divisions=2, employees_per_division=8)
    snapshot = extract_snapshot(db)
    baseline = snapshot.copy()
    operator = Composite((
        company.figure_44_operator(),
        RenameField("EMP", "AGE", "EMP-AGE"),
        AddField("EMP", "TAG", "X(1)", default="T"),
    ))
    target_schema = operator.apply_schema(db.schema)
    translated = operator.translate(snapshot, db.schema, target_schema)
    # Structural sharing must not leak writes back into the source.
    assert snapshot.rows == baseline.rows
    assert snapshot.links == baseline.links
    assert "DEPT" in translated.rows
    assert all("DEPT-NAME" not in row for row in translated.rows["EMP"])


def test_interpose_translate_matches_pre_index_seed_output():
    db = company.company_db(divisions=3, employees_per_division=10)
    snapshot = extract_snapshot(db)
    operator = company.figure_44_operator()
    target_schema = operator.apply_schema(db.schema)
    indexed = operator.translate(snapshot.copy(), db.schema, target_schema)
    linear_source = snapshot.copy()
    linear_source.use_indexes = False
    linear = operator.translate(linear_source, db.schema, target_schema)
    assert indexed.rows == linear.rows
    assert indexed.links == linear.links


# ---------------------------------------------------------------------------
# O(n) access-path guarantee (ISSUE 1 acceptance criterion)
# ---------------------------------------------------------------------------


def test_hierarchical_load_10k_is_linear_in_link_lookups():
    """Loading a 10k-row, 3-level snapshot must do one index probe per
    non-root row and zero linear link scans: one O(links) index build
    per parent set, O(1) per lookup afterwards."""
    snapshot = build_snapshot(10_000)
    schema = perf_schema()
    db = load_hierarchical(schema, snapshot)
    split = size_split(10_000)
    non_root_rows = split["DEPT"] + split["EMP"]
    assert db.count("EMP") == split["EMP"]
    assert snapshot.stats.link_scans == 0
    assert snapshot.stats.index_probes == non_root_rows
    # One owner-index build per parent set (DIV-DEPT and DEPT-EMP).
    assert snapshot.stats.index_builds == 2


def test_linear_fallback_counts_scans_not_probes():
    snapshot = build_snapshot(300)
    snapshot.use_indexes = False
    schema = perf_schema()
    load_hierarchical(schema, snapshot)
    assert snapshot.stats.index_probes == 0
    split = size_split(300)
    assert snapshot.stats.link_scans == split["DEPT"] + split["EMP"]
