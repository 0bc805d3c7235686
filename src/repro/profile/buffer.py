"""The bounded, sampled ring of completed :class:`QueryProfile` trees.

Always-on profiling cannot mean profiling *every* publish — per-operator
estimate computation costs real time on the hot path.  The
:class:`ProfileBuffer` therefore owns two decisions:

* **whether** to profile the next publish (:meth:`should_sample`, a
  deterministic 1-in-N counter — the slow-query-log idiom, never a coin
  flip, so test runs and replays profile exactly the same requests; a
  *seed* shifts which publish in each stride fires, letting two services
  sample disjoint request sets);
* **what to keep** (:meth:`record` into a bounded ring, newest evicting
  oldest), exported newest-first by :meth:`recent` and worst
  operator-q-error-first by :meth:`worst` — the bodies behind the
  ``/profiles/recent`` and ``/profiles/worst`` admin routes.

The sampling decision is made *before* execution, so an unsampled
publish records no operator at all (its tree is not profiled, and
backends skip every operator node and estimate); the dict export
happens at read time, keeping the per-profile recording cost to a
counter bump and a list append.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..obs.ring import SampledRing, head
from .view import QueryProfile


class ProfileBuffer(SampledRing):
    """Thread-safe sampler + ring of the profiles a service retained."""

    def __init__(self, maxlen: int = 64, sample: int = 1, seed: int = 0):
        super().__init__("profile", maxlen, sample, seed)

    def should_sample(self) -> bool:
        """Decide (deterministically) whether the next publish is profiled.

        Fires on the ``seed+1``-th publish and every ``sample``-th after
        it: ``sample=1`` profiles everything, ``sample=10`` one in ten.
        Called once per publish *before* execution so unsampled requests
        pay nothing beyond this counter bump.
        """
        return self.sampled()

    def record(self, profile: QueryProfile) -> bool:
        """Retain one completed profile; returns whether it was kept."""
        if profile is None or not profile.root.enabled:
            return False
        return self.keep(profile)

    def recent(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The retained profiles as dicts, newest first (at most *n*)."""
        return [profile.to_dict() for profile in self.newest(n)]

    def worst(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """Retained profiles as dicts, largest worst-operator q-error first."""
        profiles = self.items()
        profiles.sort(key=lambda profile: profile.worst_q_error(), reverse=True)
        return [profile.to_dict() for profile in head(profiles, n)]

    def worst_q_error(self) -> float:
        """The largest per-operator q-error across retained profiles."""
        return max(
            (profile.worst_q_error() for profile in self.items()), default=1.0
        )
