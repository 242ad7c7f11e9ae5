"""Pluggable eviction policies for :class:`~repro.cache.block.BlockCache`.

Two policies ship, compared head-to-head by
``benchmarks/bench_cache_goodput.py``:

* :class:`LRUPolicy` — classic recency order.  Cheap and good when the
  working set fits; under a Zipf flash crowd it can thrash, because one
  scan of a cold asset evicts the entire hot set.
* :class:`CostAwarePolicy` — GreedyDual-Size-Frequency.  Each block
  carries a priority ``L + frequency * cost``; eviction takes the
  minimum and advances the clock ``L`` to it, so a block must keep
  earning hits to stay resident and popular (viral) content outlives
  one-shot scans.

Both are fully deterministic: ties break on insertion sequence, never on
iteration order of a set or on wall-clock time.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from typing import Hashable

from repro.errors import CacheError


class EvictionPolicy:
    """Victim-selection strategy; the cache calls these hooks.

    Keys are opaque and hashable.  ``cost`` is the policy's notion of
    how expensive a miss on this block is (the cache passes the block
    size in bytes); LRU ignores it.
    """

    name = "base"

    def admitted(self, key: Hashable, cost: float) -> None:
        raise NotImplementedError

    def touched(self, key: Hashable) -> None:
        raise NotImplementedError

    def victim(self) -> Hashable:
        """Choose (and forget) the next block to evict."""
        raise NotImplementedError

    def forgot(self, key: Hashable) -> None:
        """The cache dropped ``key`` outside eviction (invalidation)."""
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Least-recently-used: victim is the stalest block."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    def admitted(self, key: Hashable, cost: float) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def touched(self, key: Hashable) -> None:
        if key in self._order:
            self._order.move_to_end(key)

    def victim(self) -> Hashable:
        if not self._order:
            raise LookupError("LRU policy has no blocks to evict")
        key, _ = self._order.popitem(last=False)
        return key

    def forgot(self, key: Hashable) -> None:
        self._order.pop(key, None)


class CostAwarePolicy(EvictionPolicy):
    """GreedyDual-Size-Frequency: popularity- and cost-aware eviction.

    Priority of a block is ``L + hits * cost`` where ``L`` is a clock
    that rises to each evicted priority.  Frequently-hit blocks float
    above the clock; blocks touched once sink back to it and are evicted
    first, which is exactly the protection a Zipf hot set needs against
    a cold scan.  Implemented as a lazy heap: stale heap entries are
    skipped at pop time, ties break on admission sequence.
    """

    name = "cost-aware"

    def __init__(self) -> None:
        self._clock = 0.0
        self._seq = itertools.count()
        #: key -> (hits, cost, current priority)
        self._blocks: dict = {}
        self._heap: list = []  # (priority, seq, key)

    def _push(self, key: Hashable) -> None:
        hits, cost, priority = self._blocks[key]
        heapq.heappush(self._heap, (priority, next(self._seq), key))

    def admitted(self, key: Hashable, cost: float) -> None:
        self._blocks[key] = (1, cost, self._clock + cost)
        self._push(key)

    def touched(self, key: Hashable) -> None:
        entry = self._blocks.get(key)
        if entry is None:
            return
        hits, cost, _ = entry
        hits += 1
        self._blocks[key] = (hits, cost, self._clock + hits * cost)
        self._push(key)

    def victim(self) -> Hashable:
        while self._heap:
            priority, _, key = heapq.heappop(self._heap)
            entry = self._blocks.get(key)
            if entry is None or entry[2] != priority:
                continue  # stale heap entry (re-touched or invalidated)
            del self._blocks[key]
            self._clock = priority
            return key
        raise CacheError("cost-aware policy has no blocks to evict")

    def forgot(self, key: Hashable) -> None:
        self._blocks.pop(key, None)


POLICIES = {
    LRUPolicy.name: LRUPolicy,
    CostAwarePolicy.name: CostAwarePolicy,
}


def make_policy(name: str) -> EvictionPolicy:
    try:
        return POLICIES[name]()
    except KeyError:
        raise CacheError(
            f"unknown eviction policy {name!r} "
            f"(have {sorted(POLICIES)})"
        ) from None
