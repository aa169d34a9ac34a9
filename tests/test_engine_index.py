"""Unit tests for the hash index."""

import pytest

from repro.engine import HashIndex, Metrics
from repro.errors import DuplicateKey


class TestHashIndex:
    def test_lookup_returns_insertion_order(self):
        index = HashIndex("t")
        index.insert("A", 1)
        index.insert("A", 2)
        assert index.lookup("A") == [1, 2]

    def test_lookup_missing_is_empty(self):
        index = HashIndex("t")
        assert index.lookup("NOPE") == []

    def test_unique_rejects_duplicates(self):
        index = HashIndex("t", unique=True)
        index.insert("A", 1)
        with pytest.raises(DuplicateKey):
            index.insert("A", 2)

    def test_remove(self):
        index = HashIndex("t")
        index.insert("A", 1)
        index.insert("A", 2)
        index.remove("A", 1)
        assert index.lookup("A") == [2]
        index.remove("A", 2)
        assert index.lookup("A") == []
        assert "A" not in index.keys()

    def test_remove_absent_is_noop(self):
        index = HashIndex("t")
        index.remove("A", 1)  # no error

    def test_contains_and_len(self):
        index = HashIndex("t")
        index.insert(("A", 1), 1)
        assert index.contains(("A", 1))
        assert not index.contains(("A", 2))
        assert len(index) == 1

    def test_probes_are_counted(self):
        metrics = Metrics()
        index = HashIndex("t", metrics=metrics)
        index.insert("A", 1)
        index.lookup("A")
        index.contains("B")
        assert metrics.index_probes == 2
