"""Tests for the memoization table."""

import pytest

from repro.longitudinal.memoization import MemoizationTable


class TestMemoizationTable:
    def test_factory_called_once_per_key(self):
        table = MemoizationTable()
        calls = []
        value, created = table.get_or_create("a", lambda: calls.append(1) or 7)
        assert created and value == 7
        value, created = table.get_or_create("a", lambda: calls.append(1) or 9)
        assert not created and value == 7
        assert len(calls) == 1

    def test_distinct_keys_and_order(self):
        table = MemoizationTable()
        table.get_or_create("b", lambda: 1)
        table.get_or_create("a", lambda: 2)
        table.get_or_create("b", lambda: 3)
        assert table.distinct_keys == 2
        assert table.first_use_order == ("b", "a")

    def test_contains_and_len(self):
        table = MemoizationTable()
        table.get_or_create(5, lambda: "x")
        assert 5 in table
        assert 6 not in table
        assert len(table) == 1

    def test_max_keys_enforced(self):
        table = MemoizationTable(max_keys=2)
        table.get_or_create(1, lambda: 1)
        table.get_or_create(2, lambda: 2)
        with pytest.raises(RuntimeError):
            table.get_or_create(3, lambda: 3)

    def test_snapshot_is_a_copy(self):
        table = MemoizationTable()
        table.get_or_create("a", lambda: 1)
        snapshot = table.snapshot()
        snapshot["a"] = 99
        value, _ = table.get_or_create("a", lambda: 0)
        assert value == 1
