"""Per-operator EXPLAIN ANALYZE: structured profiles of real executions.

This package shows what execution actually *did*, operator by operator,
so a cardinality misestimate can be localized to the join step, shard or
replica that produced it rather than blamed on a whole fingerprint — and
``explain()`` prints exactly that, for one run of the plan.
The operators are nodes of the request's one execution tree
(:mod:`repro.obs.trace`), recorded when the tree is profiled:

* :mod:`repro.profile.view` — the operator kinds (``scan`` /
  ``join-step`` / ``shard-fragment`` /
  ``replica-read`` / ``merge`` / ``statement``) and the
  :class:`QueryProfile` view of a tree (each operator with
  ``estimated_rows``, ``actual_rows``, ``elapsed_seconds`` and a
  per-operator ``q_error``); the tree's other view is the trace;
* :mod:`repro.profile.buffer` — the deterministic 1-in-N sampler and
  bounded ring (:class:`ProfileBuffer`) behind the service's always-on
  sampled profiling and the ``/profiles/recent`` / ``/profiles/worst``
  admin routes.

Every storage backend opens operator nodes under the ambient node
(``repro.obs.current_span()``) when its tree is profiled;
``PublishingService.explain(query)`` forces one profiled execution and
renders its :class:`QueryProfile` (``analyze=True`` returns it).  See the "Query
profiling" section of ``docs/OBSERVABILITY.md``.
"""

from .buffer import ProfileBuffer
from .view import (
    EXECUTE,
    JOIN_STEP,
    MERGE,
    REPLICA_READ,
    SCAN,
    SHARD_FRAGMENT,
    STATEMENT,
    QueryProfile,
)

__all__ = [
    "EXECUTE",
    "JOIN_STEP",
    "MERGE",
    "ProfileBuffer",
    "QueryProfile",
    "REPLICA_READ",
    "SCAN",
    "SHARD_FRAGMENT",
    "STATEMENT",
]
