"""Rendezvous (highest-random-weight) hashing for shard placement.

Every (shard key, node name) pair gets a deterministic pseudo-random
score; a shard's replicas live on the R highest-scoring nodes.  The two
properties that matter for a storage cluster fall out directly:

* **balance** — scores are uniform, so shards spread evenly without a
  central directory;
* **minimal reshuffle** — adding a node only moves the shards whose new
  top-R set includes it; removing a node only re-homes the shards it
  held.  No other placement changes, which is what keeps
  rebalance-after-join traffic proportional to the capacity change.

Scores come from SHA-256, *not* the built-in ``hash()`` — Python
randomizes string hashing per process, which would make placement differ
between runs and break every determinism guarantee in this repo.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import List, Sequence


@lru_cache(maxsize=4096)
def score(key: str, node: str) -> int:
    """The rendezvous weight of ``node`` for ``key`` (64-bit, stable).

    Pure in ``(key, node)``: the bounded memo spares a pass-through
    stream, which re-ranks the same edges on every read, the hashing.
    """
    digest = hashlib.sha256(f"{key}|{node}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rank(key: str, nodes: Sequence[str]) -> List[str]:
    """Node names ordered best-first for ``key`` (ties broken by name)."""
    return sorted(nodes, key=lambda name: (-score(key, name), name))


def top(key: str, nodes: Sequence[str], r: int) -> List[str]:
    """The ``r`` highest-weight nodes for ``key``."""
    return rank(key, nodes)[:r]
