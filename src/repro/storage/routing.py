"""A backend's routing decision for a plan, naming its units by position
(the modes are described in :mod:`repro.shard.router`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..logical.queries import ConjunctiveQuery

MODE_SINGLE = "single"
MODE_SCATTER = "scatter"
MODE_GATHER = "gather"


@dataclass(frozen=True)
class RoutingDecision:
    """How one conjunctive query executes across the shard set."""

    mode: str
    #: Shards the query itself runs on (``single``/``scatter``); empty for
    #: ``gather``, whose work is described by :attr:`fetch_shards`.
    shards: Tuple[int, ...]
    #: ``gather`` only: ``(table, shards-to-fetch-the-fragment-from)`` pairs.
    fetch_shards: Tuple[Tuple[str, Tuple[int, ...]], ...]
    reason: str
    #: Modeled cost of the chosen mode (``None`` without a cost model).
    estimated_cost: Optional[float] = None
    #: The sound-but-rejected mode and its modeled cost, when the decision
    #: was a cost comparison (co-partitioned scatter vs gather).
    alternative_mode: Optional[str] = None
    alternative_cost: Optional[float] = None
    #: Whether a cost comparison (not a fixed rule) picked the mode.
    cost_based: bool = False

    def profile_attributes(self) -> Dict[str, object]:
        """The decision as JSON-able profile-node attributes.

        This is how the router's choice — and the rejected alternative's
        cost — travels into :class:`~repro.profile.QueryProfile` trees.
        """
        attributes: Dict[str, object] = {
            "mode": self.mode,
            "reason": self.reason,
            "cost_based": self.cost_based,
        }
        if self.mode == MODE_GATHER:
            attributes["fetch_shards"] = [
                [table, list(shards)] for table, shards in self.fetch_shards
            ]
        else:
            attributes["shards"] = list(self.shards)
        if self.estimated_cost is not None:
            attributes["estimated_cost"] = round(self.estimated_cost, 3)
        if self.alternative_mode is not None:
            attributes["rejected_mode"] = self.alternative_mode
            if self.alternative_cost is not None:
                attributes["rejected_cost"] = round(self.alternative_cost, 3)
        return attributes

    @property
    def needed_shards(self) -> Tuple[int, ...]:
        """Every shard this decision touches (execution or fragment fetch)."""
        if self.mode != MODE_GATHER:
            return self.shards
        touched: Set[int] = set()
        for _table, shards in self.fetch_shards:
            touched.update(shards)
        return tuple(sorted(touched))


@dataclass(frozen=True)
class RoutePlan:
    """The routing decision for a plan, as its one ``(query, decision)`` pair."""

    decisions: Tuple[Tuple[ConjunctiveQuery, RoutingDecision], ...]

    @property
    def needed_shards(self) -> Tuple[int, ...]:
        touched: Set[int] = set()
        for _query, decision in self.decisions:
            touched.update(decision.needed_shards)
        return tuple(sorted(touched))
