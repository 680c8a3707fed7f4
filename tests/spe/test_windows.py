"""The keyed sliding window: the engine's one kind of operator state."""

import math

import pytest

from repro.spe.windows import KeyedWindow, WindowError


def fill(window, *timestamps, key=()):
    for ts in timestamps:
        window.insert(key, ts, ts)


class TestInsertion:
    def test_in_order_accepted(self):
        window = KeyedWindow(10)
        fill(window, 1, 1, 2)  # equal timestamps fine
        assert len(window) == 3

    def test_out_of_order_rejected(self):
        window = KeyedWindow(10)
        fill(window, 5)
        with pytest.raises(WindowError):
            window.insert((), 4, "late")

    def test_out_of_order_rejected_across_keys(self):
        window = KeyedWindow(10)
        window.insert("a", 5, "x")
        with pytest.raises(WindowError):
            window.insert("b", 4, "late")

    def test_negative_size_rejected(self):
        with pytest.raises(WindowError):
            KeyedWindow(-1)


class TestExpiry:
    def test_expire_drops_old(self):
        window = KeyedWindow(10)
        fill(window, 0, 5)
        window.expire(12)
        assert list(window.probe(())) == [5]
        assert len(window) == 1

    def test_boundary_tuple_stays(self):
        # At now=10 with size 10, the ts=0 tuple is exactly on the edge.
        window = KeyedWindow(10)
        fill(window, 0)
        window.expire(10)
        assert len(window) == 1

    def test_now_window_keeps_only_same_instant(self):
        window = KeyedWindow(0)
        fill(window, 1, 2)
        window.expire(2)
        assert list(window.probe(())) == [2]

    def test_unbounded_never_expires(self):
        window = KeyedWindow(math.inf)
        fill(window, 0)
        window.expire(1e15)
        assert len(window) == 1

    def test_probe_after_expiry_reads_what_is_visible(self):
        window = KeyedWindow(5)
        fill(window, 0, 4)
        window.expire(7)
        assert list(window.probe(())) == [4]


class TestBuckets:
    def test_insert_and_probe(self):
        window = KeyedWindow(100.0)
        window.insert((1,), 0.0, "a")
        window.insert((2,), 1.0, "b")
        window.insert((1,), 2.0, "c")
        assert list(window.probe((1,))) == ["a", "c"]  # arrival order
        assert list(window.probe((9,))) == []
        assert len(window) == 3

    def test_expiry_takes_the_head_of_the_right_bucket(self):
        window = KeyedWindow(5.0)
        window.insert((1,), 0.0, "a")
        window.insert((2,), 1.0, "b")
        window.insert((1,), 4.0, "c")
        window.expire(5.5)
        assert list(window.probe((1,))) == ["c"]
        assert list(window.probe((2,))) == ["b"]

    def test_expiry_cleans_buckets(self):
        window = KeyedWindow(5.0)
        window.insert((1,), 0.0, "a")
        window.expire(10.0)
        assert list(window.probe((1,))) == []
        assert len(window) == 0
        assert window._buckets == {}

    def test_equal_keys_of_different_numeric_type_share_a_bucket(self):
        # hash and == agree across int and float, as the predicate's == does
        window = KeyedWindow(5.0)
        window.insert((1,), 0.0, "int")
        window.insert((1.0,), 0.0, "float")
        window.insert(("1",), 0.0, "str")
        assert list(window.probe((1,))) == ["int", "float"]
        assert list(window.probe(("1",))) == ["str"]
