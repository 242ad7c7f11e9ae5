"""A B-tree ordered index.

The classic disk-friendly ordered index (Bayer/McCreight): nodes hold up
to ``2t - 1`` keys; inserts split full children on the way down, deletes
borrow/merge on the way down, so the tree never needs back-tracking and
stays balanced — every leaf at the same depth.  Keys map to *sets* of
OIDs (attribute values are not unique across objects).

The database builds every ordered attribute index as one of these.  It
exposes the same interface as :class:`~repro.db.index.OrderedIndex`
(``insert`` / ``remove`` / ``eq`` / ``range`` / ``min_key`` /
``max_key``), the sorted-list reference implementation it is tested
against; ``benchmarks/bench_ablation_index.py`` compares the two.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Set, Tuple

from repro.db.objects import OID
from repro.errors import QueryError


class _Node:
    __slots__ = ("keys", "buckets", "children")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.buckets: List[Set[OID]] = []
        self.children: List["_Node"] = []

    @property
    def leaf(self) -> bool:
        return not self.children


class BTreeIndex:
    """Ordered (key -> set of OIDs) index backed by a B-tree."""

    def __init__(self, class_name: str, attribute: str,
                 min_degree: int = 16) -> None:
        if min_degree < 2:
            raise QueryError(f"B-tree degree must be >= 2, got {min_degree}")
        self.class_name = class_name
        self.attribute = attribute
        self._t = min_degree
        self._root = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- insert ----------------------------------------------------------
    def insert(self, key: Any, oid: OID) -> None:
        """Add one (key, oid) posting (None keys are not indexed)."""
        if key is None:
            return
        root = self._root
        if len(root.keys) == 2 * self._t - 1:
            new_root = _Node()
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
        self._insert_nonfull(self._root, key, oid)

    def _split_child(self, parent: _Node, index: int) -> None:
        t = self._t
        child = parent.children[index]
        sibling = _Node()
        parent.keys.insert(index, child.keys[t - 1])
        parent.buckets.insert(index, child.buckets[t - 1])
        sibling.keys = child.keys[t:]
        sibling.buckets = child.buckets[t:]
        child.keys = child.keys[: t - 1]
        child.buckets = child.buckets[: t - 1]
        if not child.leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]
        parent.children.insert(index + 1, sibling)

    def _insert_nonfull(self, node: _Node, key: Any, oid: OID) -> None:
        while True:
            position = self._position(node, key)
            if position < len(node.keys) and node.keys[position] == key:
                if oid not in node.buckets[position]:
                    node.buckets[position].add(oid)
                    self._size += 1
                return
            if node.leaf:
                node.keys.insert(position, key)
                node.buckets.insert(position, {oid})
                self._size += 1
                return
            child = node.children[position]
            if len(child.keys) == 2 * self._t - 1:
                self._split_child(node, position)
                if node.keys[position] == key:
                    continue  # the promoted key is ours
                if key > node.keys[position]:
                    position += 1
            node = node.children[position]

    @staticmethod
    def _position(node: _Node, key: Any) -> int:
        return bisect_left(node.keys, key)

    # -- lookup ----------------------------------------------------------
    def eq(self, key: Any) -> Set[OID]:
        """OIDs stored under exactly ``key``."""
        node = self._root
        while True:
            position = self._position(node, key)
            if position < len(node.keys) and node.keys[position] == key:
                return set(node.buckets[position])
            if node.leaf:
                return set()
            node = node.children[position]

    def items(self) -> Iterator[Tuple[Any, Set[OID]]]:
        """All (key, bucket) pairs in ascending key order."""
        yield from self._walk(self._root)

    def _walk(self, node: _Node) -> Iterator[Tuple[Any, Set[OID]]]:
        for i, key in enumerate(node.keys):
            if not node.leaf:
                yield from self._walk(node.children[i])
            yield key, node.buckets[i]
        if not node.leaf:
            yield from self._walk(node.children[-1])

    def range(self, lo: Optional[Any] = None, hi: Optional[Any] = None,
              include_lo: bool = True, include_hi: bool = True) -> Set[OID]:
        """OIDs whose key falls inside the (optionally open) range."""
        if lo is not None and hi is not None and lo > hi:
            raise QueryError(f"range lower bound {lo!r} exceeds upper bound {hi!r}")
        result: Set[OID] = set()
        for buckets in self._runs(lo, hi, include_lo, include_hi):
            result.update(*buckets)
        return result

    def _runs(self, lo, hi, include_lo, include_hi
              ) -> Iterator[List[Set[OID]]]:
        """The one range walk: the buckets of ``[lo, hi]``, a run at a time.

        A flat in-order traversal that hands over one run per leaf: the
        separator an ancestor owes, then the leaf's in-range keys.  Each
        node is cut to its in-range keys by bisection, and only along
        the two edges of the range: a subtree hanging between two
        in-range keys is in range whole and is never compared at all.
        ``stack`` holds the ancestors that still owe keys; a node whose
        in-range keys are spent is not pushed, so once the range closes
        the stack drains and the walk ends.
        """
        cut_lo = bisect_left if include_lo else bisect_right
        cut_hi = bisect_right if include_hi else bisect_left
        # May this subtree hold keys below ``lo`` / above ``hi``?
        lower, upper = lo is not None, hi is not None
        stack: List[Tuple[_Node, int, int, bool]] = []
        owed: List[Set[OID]] = []
        node = self._root
        while True:
            while True:  # down to the leftmost leaf with in-range keys
                keys = node.keys
                i = cut_lo(keys, lo) if lower else 0
                end = cut_hi(keys, hi) if upper else len(keys)
                if not node.children:
                    break
                if i < end:
                    # children[i] lies wholly below keys[i] <= hi.
                    stack.append((node, i, end, upper))
                    upper = False
                node = node.children[i]
            yield owed + node.buckets[i:end]
            if not stack:
                return
            node, i, end, upper = stack.pop()
            owed = node.buckets[i:i + 1]
            i += 1
            if i < end:
                stack.append((node, i, end, upper))
                upper = False
            lower = False  # everything rightward is above keys[i - 1] >= lo
            node = node.children[i]

    def min_key(self) -> Any:
        """Smallest indexed key, or None when empty."""
        node = self._root
        if not node.keys:
            return None
        while not node.leaf:
            node = node.children[0]
        return node.keys[0]

    def max_key(self) -> Any:
        """Largest indexed key, or None when empty."""
        node = self._root
        if not node.keys:
            return None
        while not node.leaf:
            node = node.children[-1]
        return node.keys[-1]

    # -- remove ----------------------------------------------------------
    def remove(self, key: Any, oid: OID) -> None:
        """Drop one posting; the key vanishes when its bucket empties."""
        if key is None:
            return
        bucket = self._find_bucket(self._root, key)
        if bucket is None or oid not in bucket:
            return
        bucket.discard(oid)
        self._size -= 1
        if not bucket:
            self._delete_key(self._root, key)
            if not self._root.keys and self._root.children:
                self._root = self._root.children[0]

    def _find_bucket(self, node: _Node, key: Any) -> Optional[Set[OID]]:
        while True:
            position = self._position(node, key)
            if position < len(node.keys) and node.keys[position] == key:
                return node.buckets[position]
            if node.leaf:
                return None
            node = node.children[position]

    # Classic CLRS delete with pre-emptive borrow/merge on descent.
    def _delete_key(self, node: _Node, key: Any) -> None:
        t = self._t
        position = self._position(node, key)
        if position < len(node.keys) and node.keys[position] == key:
            if node.leaf:
                node.keys.pop(position)
                node.buckets.pop(position)
                return
            left, right = node.children[position], node.children[position + 1]
            if len(left.keys) >= t:
                pred_key, pred_bucket = self._max_entry(left)
                node.keys[position] = pred_key
                node.buckets[position] = pred_bucket
                self._delete_key(left, pred_key)
            elif len(right.keys) >= t:
                succ_key, succ_bucket = self._min_entry(right)
                node.keys[position] = succ_key
                node.buckets[position] = succ_bucket
                self._delete_key(right, succ_key)
            else:
                self._merge(node, position)
                self._delete_key(left, key)
            return
        if node.leaf:
            return  # key not present
        child = node.children[position]
        if len(child.keys) == t - 1:
            position = self._fill(node, position)
            child = node.children[position]
        self._delete_key(child, key)

    def _max_entry(self, node: _Node) -> Tuple[Any, Set[OID]]:
        while not node.leaf:
            node = node.children[-1]
        return node.keys[-1], node.buckets[-1]

    def _min_entry(self, node: _Node) -> Tuple[Any, Set[OID]]:
        while not node.leaf:
            node = node.children[0]
        return node.keys[0], node.buckets[0]

    def _merge(self, parent: _Node, index: int) -> None:
        left = parent.children[index]
        right = parent.children.pop(index + 1)
        left.keys.append(parent.keys.pop(index))
        left.buckets.append(parent.buckets.pop(index))
        left.keys.extend(right.keys)
        left.buckets.extend(right.buckets)
        left.children.extend(right.children)

    def _fill(self, parent: _Node, index: int) -> int:
        """Give child ``index`` >= t keys; returns the (possibly moved)
        child position after a merge."""
        t = self._t
        child = parent.children[index]
        if index > 0 and len(parent.children[index - 1].keys) >= t:
            left = parent.children[index - 1]
            child.keys.insert(0, parent.keys[index - 1])
            child.buckets.insert(0, parent.buckets[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            parent.buckets[index - 1] = left.buckets.pop()
            if not left.leaf:
                child.children.insert(0, left.children.pop())
            return index
        if index < len(parent.children) - 1 and \
                len(parent.children[index + 1].keys) >= t:
            right = parent.children[index + 1]
            child.keys.append(parent.keys[index])
            child.buckets.append(parent.buckets[index])
            parent.keys[index] = right.keys.pop(0)
            parent.buckets[index] = right.buckets.pop(0)
            if not right.leaf:
                child.children.append(right.children.pop(0))
            return index
        if index < len(parent.children) - 1:
            self._merge(parent, index)
            return index
        self._merge(parent, index - 1)
        return index - 1

    # -- invariants (used by property tests) ------------------------------
    def check_invariants(self) -> None:
        """Assert B-tree structural invariants; raises AssertionError."""
        def depth_of(node: _Node) -> int:
            keys = node.keys
            assert keys == sorted(keys), "node keys out of order"
            if node is not self._root:
                assert len(keys) >= self._t - 1, "underfull node"
            assert len(keys) <= 2 * self._t - 1, "overfull node"
            assert len(node.buckets) == len(keys)
            if node.leaf:
                return 1
            assert len(node.children) == len(keys) + 1
            depths = {depth_of(c) for c in node.children}
            assert len(depths) == 1, "leaves at different depths"
            return depths.pop() + 1

        depth_of(self._root)
        ordered = [k for k, _ in self.items()]
        assert ordered == sorted(ordered), "in-order walk out of order"
        assert all(bucket for _, bucket in self.items()), "empty bucket retained"
