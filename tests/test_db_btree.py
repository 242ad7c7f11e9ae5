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
    @settings(max_examples=60, deadline=None)
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
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_under_bulk_insert(self, keys, degree):
        tree = BTreeIndex("T", "n", min_degree=degree)
        for i, key in enumerate(keys):
            tree.insert(key, oid(i))
        tree.check_invariants()
        assert tree.min_key() == min(keys)
        assert tree.max_key() == max(keys)
        in_order = [k for k, _ in tree.items()]
        assert in_order == sorted(set(keys))


class TestScan:
    def _tree(self, n=50, degree=2):
        tree = BTreeIndex("T", "n", min_degree=degree)
        for k in range(n):
            tree.insert(k, oid(k))
        return tree

    def test_yields_ordered_pairs(self):
        tree = self._tree()
        assert [k for k, _ in tree.scan()] == list(range(50))
        assert all(oids == (oid(k),) for k, oids in tree.scan())

    def test_bounds_match_range(self):
        tree = self._tree()
        for lo, hi, ilo, ihi in [(5, 20, True, True), (5, 20, False, False),
                                 (None, 10, True, False),
                                 (30, None, False, True)]:
            lazy = {o for _, oids in tree.scan(lo, hi, ilo, ihi)
                    for o in oids}
            assert lazy == tree.range(lo, hi, ilo, ihi)

    def test_bucket_oids_sorted(self):
        tree = BTreeIndex("T", "n", min_degree=2)
        for serial in (9, 1, 5):
            tree.insert(42, oid(serial))
        [(key, oids)] = list(tree.scan())
        assert key == 42 and oids == (oid(1), oid(5), oid(9))

    def test_on_visit_fires_before_each_yield(self):
        tree = self._tree(10)
        seen = []
        out = list(tree.scan(on_visit=lambda k, oids: seen.append(k)))
        assert seen == [k for k, _ in out] == list(range(10))

    def test_mutation_mid_scan_raises(self):
        tree = self._tree()
        scan = tree.scan()
        next(scan)
        tree.insert(99, oid(99))
        with pytest.raises(QueryError, match="mutated during"):
            next(scan)

    def test_remove_mid_scan_raises(self):
        tree = self._tree()
        scan = tree.scan()
        next(scan)
        tree.remove(25, oid(25))
        with pytest.raises(QueryError, match="mutated during"):
            list(scan)

    def test_bad_bounds_raise_eagerly(self):
        with pytest.raises(QueryError, match="exceeds"):
            self._tree().scan(lo=9, hi=3)


class TestBulkLoad:
    @pytest.mark.parametrize("n", [0, 1, 5, 31, 32, 63, 64, 200, 5000])
    @pytest.mark.parametrize("degree", [2, 4, 16])
    def test_matches_insert_built_tree(self, n, degree):
        loaded = BTreeIndex("T", "n", min_degree=degree)
        loaded.bulk_load((k, [oid(k)]) for k in range(n))
        grown = BTreeIndex("T", "n", min_degree=degree)
        for k in range(n):
            grown.insert(k, oid(k))
        loaded.check_invariants()
        assert len(loaded) == len(grown) == n
        assert list(loaded.items()) == list(grown.items())
        assert list(loaded.scan()) == list(grown.scan())

    def test_multi_oid_buckets(self):
        tree = BTreeIndex("T", "n", min_degree=2)
        tree.bulk_load([(1, [oid(1), oid(2)]), (2, [oid(3)])])
        assert tree.eq(1) == {oid(1), oid(2)}
        assert len(tree) == 3

    def test_rejects_nonempty_tree(self):
        tree = BTreeIndex("T", "n")
        tree.insert(1, oid(1))
        with pytest.raises(QueryError, match="empty tree"):
            tree.bulk_load([(2, [oid(2)])])

    def test_rejects_unsorted_and_duplicate_keys(self):
        for keys in ([3, 1], [2, 2]):
            tree = BTreeIndex("T", "n")
            with pytest.raises(QueryError, match="strictly increasing"):
                tree.bulk_load((k, [oid(k)]) for k in keys)

    def test_rejects_empty_bucket(self):
        tree = BTreeIndex("T", "n")
        with pytest.raises(QueryError, match="empty"):
            tree.bulk_load([(1, [])])

    def test_loaded_tree_accepts_further_inserts(self):
        tree = BTreeIndex("T", "n", min_degree=2)
        tree.bulk_load((k, [oid(k)]) for k in range(0, 100, 2))
        for k in range(1, 100, 2):
            tree.insert(k, oid(k))
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == list(range(100))

    @given(st.sets(st.integers(-10_000, 10_000), min_size=1, max_size=400),
           st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_invariants_across_shapes(self, keys, degree):
        tree = BTreeIndex("T", "n", min_degree=degree)
        tree.bulk_load((k, [oid(i)]) for i, k in enumerate(sorted(keys)))
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == sorted(keys)


def _build(keys, degree, bulk):
    """One bucket per key, two OIDs in every third, built either way."""
    keys = sorted(set(keys))
    tree = BTreeIndex("T", "n", min_degree=degree)
    postings = [(k, [oid(2 * i), oid(2 * i + 1)][: 2 if i % 3 == 0 else 1])
                for i, k in enumerate(keys)]
    if bulk:
        tree.bulk_load(postings)
    else:
        for k, oids in reversed(postings):
            for o in oids:
                tree.insert(k, o)
    return tree


def _reference(tree, lo, hi, include_lo, include_hi):
    """What scan must yield: the full in-order walk, filtered key by key."""
    out = []
    for key, bucket in tree.items():
        if lo is not None and (key < lo or (key == lo and not include_lo)):
            continue
        if hi is not None and (key > hi or (key == hi and not include_hi)):
            continue
        out.append((key, tuple(sorted(bucket))))
    return out


class TestScanEqualsReference:
    """The bisecting walker against a filter of ``items()``."""

    @given(st.lists(st.integers(0, 300), max_size=250), st.integers(2, 16),
           st.booleans(),
           st.one_of(st.none(), st.integers(-5, 305)),
           st.one_of(st.none(), st.integers(-5, 305)))
    @settings(max_examples=120, deadline=None)
    def test_every_bound_combination(self, keys, degree, bulk, lo, hi):
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        tree = _build(keys, degree, bulk)
        for include_lo in (True, False):
            for include_hi in (True, False):
                visited = []
                got = list(tree.scan(
                    lo, hi, include_lo, include_hi,
                    on_visit=lambda k, oids: visited.append((k, oids))))
                assert got == _reference(tree, lo, hi, include_lo, include_hi)
                assert visited == got
                assert tree.range(lo, hi, include_lo, include_hi) == {
                    o for _, oids in got for o in oids}

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 9)),
                    min_size=1, max_size=200),
           st.integers(2, 16), st.booleans(),
           st.integers(-1, 41), st.integers(-1, 41))
    @settings(max_examples=80, deadline=None)
    def test_prefix_bounds_on_interval_keys(self, spans, degree, bulk, a, b):
        # (start, end, serial) triples bounded by 1-tuples, as in
        # repro.annotations.intervals: (t,) sorts below every (t, ., .).
        keys = [(float(s), float(s + length), serial)
                for serial, (s, length) in enumerate(spans)]
        tree = _build(keys, degree, bulk)
        lo, hi = float(min(a, b)), float(max(a, b))
        got = [k for k, _ in tree.scan(lo=(lo,), hi=(hi,), include_hi=False)]
        assert got == sorted(k for k in keys if lo <= k[0] < hi)
        assert [k for k, _ in tree.scan(lo=(hi,))] == sorted(
            k for k in keys if k[0] >= hi)
        assert [k for k, _ in tree.scan(hi=(lo,), include_hi=False)] == \
            sorted(k for k in keys if k[0] < lo)

    @pytest.mark.parametrize("bulk", [False, True])
    @pytest.mark.parametrize("degree", [2, 3, 16])
    def test_mutation_between_any_two_steps_raises(self, degree, bulk):
        n = 70
        internal = _build(range(n), degree, bulk)._root.keys
        assert internal and len(internal) < n  # some steps are separators
        for taken in range(1, n):
            tree = _build(range(n), degree, bulk)
            scan = tree.scan()
            for _ in range(taken):
                next(scan)
            tree.insert(1000, oid(1000))
            with pytest.raises(QueryError, match="mutated during"):
                next(scan)
