from array import array

import pytest

import trace_kit.class_numbers as cn


@pytest.fixture
def empty_class_tables(monkeypatch):
    """A function that drops the swept class-number tables and empties the
    per-D memo, so that every read of a D > 0 walks it; the tables held
    before come back after the test."""

    def empty():
        monkeypatch.setattr(cn, "_twelve_h", array("q", [0]))
        monkeypatch.setattr(cn, "_prim", array("q", [0]))
        cn._walk.cache_clear()

    return empty
