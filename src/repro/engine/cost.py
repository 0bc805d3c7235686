"""The plug-in cost-estimator seam of the C&B engine (paper Figure 2).

MARS does not commit to a particular cost model; it requires only that the
model be *monotone* -- adding atoms to a query never makes it cheaper --
because that is what makes restricting attention to minimal reformulations
safe (paper section 1) and what makes the backchase's cost-based pruning
correct (paper section 2.3).

:class:`CostEstimator` is that seam: what ``MarsSystem(estimator=)`` and
``CBEngine(estimator=)`` accept.  The default :class:`SimpleCostEstimator`
owns no arithmetic; it asks :mod:`repro.cost` for the monotone bound of a
statistics catalog.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from ..cost.model import CostModel
from ..cost.statistics import StatisticsCatalog
from ..logical.queries import ConjunctiveQuery


class CostEstimator(ABC):
    """Interface of the plug-in cost estimator (paper Figure 2)."""

    @abstractmethod
    def estimate(self, query: ConjunctiveQuery) -> float:
        """Return an abstract cost for executing *query*; lower is better."""


class SimpleCostEstimator(CostEstimator):
    """Monotone cost: :meth:`repro.cost.model.CostModel.lower_bound`."""

    def __init__(self, statistics: Optional[StatisticsCatalog] = None):
        self.model = CostModel(statistics)

    def estimate(self, query: ConjunctiveQuery) -> float:
        return self.model.lower_bound(query)
