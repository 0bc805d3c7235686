"""The one 1-in-N sampler and bounded ring under every sampled buffer.

The trace buffer, the profile buffer and the slow-query log all keep
"every Nth candidate, the newest *maxlen* of those, newest first".  The
counter is deterministic — never a coin flip — so a test run and a
replay sample exactly the same requests.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, List, Optional


def head(items: List[Any], n: Optional[int]) -> List[Any]:
    """The first *n* of *items* (all for ``None``, none for ``n <= 0``)."""
    return items if n is None else items[: max(n, 0)]


class SampledRing:
    """A thread-safe 1-in-N counter in front of a bounded ring.

    :meth:`sampled` decides and :meth:`keep` retains: profiles sample
    before the work and keep after it, traces do both on completion
    (:meth:`offer`), and the slow-query log uses the counter alone.
    """

    def __init__(self, what: str, maxlen: int = 64, sample: int = 1, seed: int = 0):
        if maxlen < 1:
            raise ValueError(f"{what} buffer needs maxlen >= 1, got {maxlen}")
        if sample < 1:
            raise ValueError(f"{what} sample must be >= 1, got {sample}")
        if seed < 0:
            raise ValueError(f"{what} sampler seed must be >= 0, got {seed}")
        self.sample = sample
        self.seed = seed
        self._lock = threading.Lock()
        self._items: Deque[Any] = deque(maxlen=maxlen)
        self._offered = 0
        self._recorded = 0

    def sampled(self) -> bool:
        """Count one candidate: true for the ``seed+1``-th and every
        ``sample``-th after it."""
        with self._lock:
            self._offered += 1
            return (self._offered - 1 + self.seed) % self.sample == 0

    def offer(self, item: Any) -> bool:
        """Count *item* as a candidate and retain it if it is sampled:
        :meth:`sampled` then :meth:`keep`, under one lock acquisition."""
        with self._lock:
            self._offered += 1
            if (self._offered - 1 + self.seed) % self.sample:
                return False
            self._items.append(item)
            self._recorded += 1
        return True

    def keep(self, item: Any) -> bool:
        """Retain *item*, evicting the oldest past *maxlen*."""
        with self._lock:
            self._items.append(item)
            self._recorded += 1
        return True

    @property
    def offered(self) -> int:
        """Candidates counted over the ring's lifetime (sampled or not)."""
        with self._lock:
            return self._offered

    @property
    def recorded(self) -> int:
        """Items retained over the ring's lifetime (before eviction)."""
        with self._lock:
            return self._recorded

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def items(self) -> List[Any]:
        """The retained items, oldest first."""
        with self._lock:
            return list(self._items)

    def newest(self, n: Optional[int] = None) -> List[Any]:
        """The retained items, newest first (at most *n*)."""
        return head(self.items()[::-1], n)

    def clear(self) -> None:
        with self._lock:
            self._items.clear()
