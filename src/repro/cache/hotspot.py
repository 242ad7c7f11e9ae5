"""Flash-crowd detection over a sliding virtual-time window.

The detector is purely access-driven: every :class:`EdgeStream` read
notes its placement, the note prunes the key's event window, and a key
crossing ``hot_threshold`` accesses inside :data:`WINDOW_S` makes
:meth:`~HotContentDetector.note` return True, exactly once per hot
episode; the tier that asked then acts on it.  Cooling is the
tier's job (a per-key watcher process polls :meth:`recent` on the same
window), because cooling needs virtual time to pass with *no* accesses
— an access-driven hook alone would never fire.

Everything is deterministic: windows are virtual-time, thresholds are
counts, and no wall clock or unseeded randomness is involved.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Set

from repro.errors import CacheError
from repro.sim import Simulator

#: the sliding access window, in virtual seconds.
WINDOW_S = 0.5


class HotContentDetector:
    """Marks placements hot when a Zipf crowd lands on them."""

    def __init__(self, simulator: Simulator, hot_threshold: int) -> None:
        if hot_threshold < 1:
            raise CacheError(
                f"hot threshold must be >= 1, got {hot_threshold}"
            )
        self.simulator = simulator
        self.window_s = WINDOW_S
        self.hot_threshold = hot_threshold
        self.episodes = 0
        self._events: Dict[str, Deque[float]] = {}
        self._hot: Set[str] = set()
        metrics = simulator.obs.metrics
        self._m_hot = metrics.counter("cache.hot_episodes")
        self._m_hot_now = metrics.gauge("cache.hot_values")

    def note(self, placement) -> bool:
        """Record one access; True when it flips the placement hot."""
        key = placement.key
        window = self._events.get(key)
        if window is None:
            window = self._events[key] = deque()
        now = self.simulator.now_s
        window.append(now)
        horizon = now - self.window_s
        while window and window[0] < horizon:
            window.popleft()
        if key not in self._hot and len(window) >= self.hot_threshold:
            self._hot.add(key)
            self.episodes += 1
            self._m_hot.inc()
            self._m_hot_now.set(len(self._hot))
            return True
        return False

    def recent(self, key: str) -> int:
        """Accesses inside the window ending now (prunes as it counts)."""
        window = self._events.get(key)
        if not window:
            return 0
        horizon = self.simulator.now_s - self.window_s
        while window and window[0] < horizon:
            window.popleft()
        return len(window)

    @property
    def hot_keys(self) -> Set[str]:
        return set(self._hot)

    def cooled(self, key: str) -> None:
        """The tier's watcher decided the crowd passed."""
        self._hot.discard(key)
        self._m_hot_now.set(len(self._hot))

    def __repr__(self) -> str:
        return (f"HotContentDetector({len(self._hot)} hot, "
                f"threshold={self.hot_threshold}/{self.window_s}s)")
