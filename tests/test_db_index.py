"""The ordered attribute index: correctness, and equivalence with a plain
sorted list of (key, oid) postings under random workloads."""

from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.index import OrderedIndex
from repro.db.objects import OID
from repro.errors import QueryError


def oid(i):
    return OID("T", i)


class TestBasics:
    def test_insert_eq(self):
        tree = OrderedIndex()
        tree.insert(5, oid(1))
        tree.insert(5, oid(2))
        tree.insert(7, oid(3))
        assert tree.eq(5) == {oid(1), oid(2)}
        assert tree.eq(7) == {oid(3)}
        assert tree.eq(6) == set()
        assert len(tree) == 3

    def test_none_keys_ignored(self):
        tree = OrderedIndex()
        tree.insert(None, oid(1))
        tree.remove(None, oid(1))
        assert len(tree) == 0

    def test_duplicate_posting_not_double_counted(self):
        tree = OrderedIndex()
        tree.insert(1, oid(1))
        tree.insert(1, oid(1))
        assert len(tree) == 1

    def test_range_bounds(self):
        tree = OrderedIndex()
        for k in range(20):
            tree.insert(k, oid(k))
        assert tree.range(lo=5, hi=8) == {oid(k) for k in (5, 6, 7, 8)}
        assert tree.range(lo=5, hi=8, include_lo=False) == {oid(k) for k in (6, 7, 8)}
        assert tree.range(lo=5, hi=8, include_hi=False) == {oid(k) for k in (5, 6, 7)}
        assert tree.range(hi=2) == {oid(k) for k in (0, 1, 2)}
        assert tree.range(lo=18) == {oid(18), oid(19)}
        assert tree.range() == {oid(k) for k in range(20)}
        with pytest.raises(QueryError):
            tree.range(lo=9, hi=3)


class TestDelete:
    def test_remove_posting_keeps_key_until_empty(self):
        tree = OrderedIndex()
        tree.insert(4, oid(1))
        tree.insert(4, oid(2))
        tree.remove(4, oid(1))
        assert tree.eq(4) == {oid(2)}
        tree.remove(4, oid(2))
        assert tree.eq(4) == set()
        assert list(tree.items()) == []

    def test_remove_absent_is_noop(self):
        tree = OrderedIndex()
        tree.insert(1, oid(1))
        tree.remove(2, oid(9))
        tree.remove(1, oid(9))
        assert len(tree) == 1

    def test_clear_empties(self):
        tree = OrderedIndex()
        for k in range(5):
            tree.insert(k, oid(k))
        tree.clear()
        assert len(tree) == 0 and list(tree.items()) == []
        tree.insert(3, oid(3))
        assert tree.range() == {oid(3)}


class TestEquivalenceProperties:
    @given(st.lists(
        st.tuples(st.sampled_from(["insert", "remove"]),
                  st.integers(0, 30), st.integers(0, 5)),
        min_size=1, max_size=200,
    ), st.one_of(st.none(), st.integers(-1, 31)),
       st.one_of(st.none(), st.integers(-1, 31)))
    @settings(max_examples=60)
    def test_matches_sorted_list_baseline(self, operations, lo, hi):
        tree = OrderedIndex()
        baseline = []  # sorted, duplicate-free (key, serial) postings
        for op, key, serial in operations:
            i = bisect_left(baseline, (key, serial))
            present = i < len(baseline) and baseline[i] == (key, serial)
            if op == "insert":
                tree.insert(key, oid(serial))
                if not present:
                    baseline.insert(i, (key, serial))
            else:
                tree.remove(key, oid(serial))
                if present:
                    del baseline[i]
        assert len(tree) == len(baseline)
        keys = sorted({key for key, _ in baseline})
        assert list(tree.items()) == \
            [(k, {oid(s) for key, s in baseline if key == k}) for k in keys]
        for key in range(-1, 32):
            assert tree.eq(key) == {oid(s) for k, s in baseline if k == key}
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        for include_lo in (True, False):
            for include_hi in (True, False):
                assert tree.range(lo, hi, include_lo, include_hi) == {
                    oid(s) for k, s in baseline
                    if (lo is None or k > lo or (k == lo and include_lo))
                    and (hi is None or k < hi or (k == hi and include_hi))}

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_invariants_hold_under_bulk_insert(self, keys):
        tree = OrderedIndex()
        for i, key in enumerate(keys):
            tree.insert(key, oid(i))
        items = list(tree.items())
        in_order = [k for k, _ in items]
        assert in_order == sorted(set(keys))
        assert in_order[0] == min(keys) and in_order[-1] == max(keys)
        assert all(bucket for _, bucket in items)
        assert len(tree) == len(keys)
        for key, bucket in items:
            assert bucket == {oid(i) for i, k in enumerate(keys) if k == key}


def _build(keys):
    """One bucket per key, two OIDs in every third, inserted in reverse."""
    tree = OrderedIndex()
    for i, k in reversed(list(enumerate(sorted(set(keys))))):
        for o in [oid(2 * i), oid(2 * i + 1)][: 2 if i % 3 == 0 else 1]:
            tree.insert(k, o)
    return tree


def _reference(tree, lo, hi, include_lo, include_hi):
    """What range must return: the full in-order walk, filtered key by key."""
    out = set()
    for key, bucket in tree.items():
        if lo is not None and (key < lo or (key == lo and not include_lo)):
            continue
        if hi is not None and (key > hi or (key == hi and not include_hi)):
            continue
        out |= bucket
    return out


class TestScanEqualsReference:
    """The bisecting range walk against a filter of ``items()``."""

    @given(st.lists(st.integers(0, 300), max_size=250),
           st.one_of(st.none(), st.integers(-5, 305)),
           st.one_of(st.none(), st.integers(-5, 305)))
    @settings(max_examples=120)
    def test_every_bound_combination(self, keys, lo, hi):
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        tree = _build(keys)
        for include_lo in (True, False):
            for include_hi in (True, False):
                assert tree.range(lo, hi, include_lo, include_hi) == \
                    _reference(tree, lo, hi, include_lo, include_hi)

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 9)),
                    min_size=1, max_size=200),
           st.integers(-1, 41), st.integers(-1, 41))
    @settings(max_examples=80)
    def test_prefix_bounds_on_interval_keys(self, spans, a, b):
        # (start, end, serial) triples bounded by 1-tuples: (t,) sorts
        # below every (t, ., .).
        keys = [(float(s), float(s + length), serial)
                for serial, (s, length) in enumerate(spans)]
        tree = _build(keys)
        lo, hi = float(min(a, b)), float(max(a, b))

        def starting(test):
            return {o for key, bucket in tree.items() if test(key[0])
                    for o in bucket}

        assert tree.range(lo=(lo,), hi=(hi,), include_hi=False) == \
            starting(lambda start: lo <= start < hi)
        assert tree.range(lo=(hi,)) == starting(lambda start: start >= hi)
        assert tree.range(hi=(lo,), include_hi=False) == \
            starting(lambda start: start < lo)
