"""The B-tree index: correctness, invariants, equivalence with the
sorted-list baseline under random workloads."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.btree import BTreeIndex
from repro.db.index import OrderedIndex
from repro.db.objects import OID
from repro.errors import QueryError


def oid(i):
    return OID("T", i)


class TestBasics:
    def test_insert_eq(self):
        tree = BTreeIndex("T", "n", min_degree=2)
        tree.insert(5, oid(1))
        tree.insert(5, oid(2))
        tree.insert(7, oid(3))
        assert tree.eq(5) == {oid(1), oid(2)}
        assert tree.eq(7) == {oid(3)}
        assert tree.eq(6) == set()
        assert len(tree) == 3

    def test_none_keys_ignored(self):
        tree = BTreeIndex("T", "n")
        tree.insert(None, oid(1))
        tree.remove(None, oid(1))
        assert len(tree) == 0

    def test_duplicate_posting_not_double_counted(self):
        tree = BTreeIndex("T", "n")
        tree.insert(1, oid(1))
        tree.insert(1, oid(1))
        assert len(tree) == 1

    def test_min_max(self):
        tree = BTreeIndex("T", "n", min_degree=2)
        assert tree.min_key() is None
        for k in (9, 3, 7, 1, 5):
            tree.insert(k, oid(k))
        assert tree.min_key() == 1
        assert tree.max_key() == 9

    def test_splits_build_depth(self):
        tree = BTreeIndex("T", "n", min_degree=2)
        for k in range(100):
            tree.insert(k, oid(k))
        tree.check_invariants()
        assert not tree._root.leaf  # really split
        assert tree.range(lo=10, hi=19) == {oid(k) for k in range(10, 20)}

    def test_range_bounds(self):
        tree = BTreeIndex("T", "n", min_degree=2)
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

    def test_invalid_degree(self):
        with pytest.raises(QueryError):
            BTreeIndex("T", "n", min_degree=1)


class TestDelete:
    def test_remove_posting_keeps_key_until_empty(self):
        tree = BTreeIndex("T", "n", min_degree=2)
        tree.insert(4, oid(1))
        tree.insert(4, oid(2))
        tree.remove(4, oid(1))
        assert tree.eq(4) == {oid(2)}
        tree.remove(4, oid(2))
        assert tree.eq(4) == set()
        tree.check_invariants()

    def test_remove_absent_is_noop(self):
        tree = BTreeIndex("T", "n")
        tree.insert(1, oid(1))
        tree.remove(2, oid(9))
        tree.remove(1, oid(9))
        assert len(tree) == 1

    def test_delete_through_rebalancing(self):
        tree = BTreeIndex("T", "n", min_degree=2)
        keys = list(range(64))
        for k in keys:
            tree.insert(k, oid(k))
        # Delete in an adversarial order: evens then odds.
        for k in keys[::2] + keys[1::2]:
            tree.remove(k, oid(k))
            tree.check_invariants()
        assert len(tree) == 0
        assert tree.min_key() is None

    def test_root_collapse(self):
        tree = BTreeIndex("T", "n", min_degree=2)
        for k in range(10):
            tree.insert(k, oid(k))
        for k in range(10):
            tree.remove(k, oid(k))
        assert tree._root.leaf


class TestEquivalenceProperties:
    @given(st.lists(
        st.tuples(st.sampled_from(["insert", "remove"]),
                  st.integers(0, 30), st.integers(0, 5)),
        min_size=1, max_size=200,
    ))
    @settings(max_examples=60)
    def test_matches_sorted_list_baseline(self, operations):
        tree = BTreeIndex("T", "n", min_degree=2)
        baseline = OrderedIndex("T", "n")
        for op, key, serial in operations:
            if op == "insert":
                tree.insert(key, oid(serial))
                # The baseline tolerates duplicates differently; guard it.
                if oid(serial) not in baseline.eq(key):
                    baseline.insert(key, oid(serial))
            else:
                tree.remove(key, oid(serial))
                baseline.remove(key, oid(serial))
        tree.check_invariants()
        for key in range(31):
            assert tree.eq(key) == baseline.eq(key), f"eq({key}) diverged"
        assert tree.range(lo=5, hi=25) == baseline.range(lo=5, hi=25)
        assert tree.min_key() == baseline.min_key()
        assert tree.max_key() == baseline.max_key()

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=300),
           st.integers(2, 8))
    @settings(max_examples=40)
    def test_invariants_hold_under_bulk_insert(self, keys, degree):
        tree = BTreeIndex("T", "n", min_degree=degree)
        for i, key in enumerate(keys):
            tree.insert(key, oid(i))
        tree.check_invariants()
        assert tree.min_key() == min(keys)
        assert tree.max_key() == max(keys)
        in_order = [k for k, _ in tree.items()]
        assert in_order == sorted(set(keys))


def _build(keys, degree):
    """One bucket per key, two OIDs in every third, inserted in reverse."""
    tree = BTreeIndex("T", "n", min_degree=degree)
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

    @given(st.lists(st.integers(0, 300), max_size=250), st.integers(2, 16),
           st.one_of(st.none(), st.integers(-5, 305)),
           st.one_of(st.none(), st.integers(-5, 305)))
    @settings(max_examples=120)
    def test_every_bound_combination(self, keys, degree, lo, hi):
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        tree = _build(keys, degree)
        for include_lo in (True, False):
            for include_hi in (True, False):
                assert tree.range(lo, hi, include_lo, include_hi) == \
                    _reference(tree, lo, hi, include_lo, include_hi)

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 9)),
                    min_size=1, max_size=200),
           st.integers(2, 16), st.integers(-1, 41), st.integers(-1, 41))
    @settings(max_examples=80)
    def test_prefix_bounds_on_interval_keys(self, spans, degree, a, b):
        # (start, end, serial) triples bounded by 1-tuples: (t,) sorts
        # below every (t, ., .).
        keys = [(float(s), float(s + length), serial)
                for serial, (s, length) in enumerate(spans)]
        tree = _build(keys, degree)
        lo, hi = float(min(a, b)), float(max(a, b))

        def starting(test):
            return {o for key, bucket in tree.items() if test(key[0])
                    for o in bucket}

        assert tree.range(lo=(lo,), hi=(hi,), include_hi=False) == \
            starting(lambda start: lo <= start < hi)
        assert tree.range(lo=(hi,)) == starting(lambda start: start >= hi)
        assert tree.range(hi=(lo,), include_hi=False) == \
            starting(lambda start: start < lo)
