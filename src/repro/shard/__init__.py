"""Horizontal partitioning: sharded storage with routing and scatter/gather.

The subsystem splits the proprietary relational store over N child
backends (any registered engine per shard — mixed ``memory``/``sqlite``
deployments are first class):

* :mod:`repro.shard.partitioner` — hash/range partitioners and the
  per-table :class:`PartitionSpec`; unlisted tables are broadcast;
* :mod:`repro.shard.router` — prunes the shard set per query: bound
  partition keys execute on exactly one shard, co-partitioned joins
  scatter, arbitrary cross-shard joins gather pruned fragments.  With a
  cost model attached (``ShardedBackend.refresh_statistics()``) the
  scatter-vs-gather choice is priced from collected statistics instead of
  fixed rules, with chosen-vs-alternative estimates on every decision;
* :mod:`repro.shard.backend` — :class:`ShardedBackend`, registered as
  backend name ``"sharded"``; runs a scatter's shards in turn on the
  request's own thread and merges their answers under set/bag semantics
  (:func:`merge_rows`); keeps a gather's fetched tables until the next
  write; merges child statistics catalogs and feeds the router's cost
  model.

Entry points: ``create_backend("sharded", shards=N, children=...,
partition_keys={...})``, or ``MarsConfiguration.backend = "sharded"`` with
``configuration.set_partition_key(table, column)``.
"""

from .backend import ShardedBackend, ShardStats, default_shard_count, merge_rows
from .partitioner import (
    HashPartitioner,
    Partitioner,
    PartitionSpec,
    RangePartitioner,
    stable_hash,
)
from .router import (
    MODE_GATHER,
    MODE_SCATTER,
    MODE_SINGLE,
    RoutePlan,
    RouterStats,
    RoutingDecision,
    ShardRouter,
)

__all__ = [
    "HashPartitioner",
    "MODE_GATHER",
    "MODE_SCATTER",
    "MODE_SINGLE",
    "PartitionSpec",
    "Partitioner",
    "RangePartitioner",
    "RoutePlan",
    "RouterStats",
    "RoutingDecision",
    "ShardRouter",
    "ShardStats",
    "ShardedBackend",
    "default_shard_count",
    "merge_rows",
    "stable_hash",
]
