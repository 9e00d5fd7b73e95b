"""Worker pool and batch lifting for the engine, plus a sharding library.

The tractable classes the paper maps out (acyclic, bounded treewidth,
bounded variables) are exactly the queries whose evaluation cost is
dominated by data access rather than combinatorics — which makes them
partitionable.  Two pieces of this package are on a serving route:

* batch lifting (:func:`lift_batch_group`) — the engine's N-wide
  execution of same-shape query batches through a parameter relation;
* :class:`WorkerPool` — the thread pool the service dispatches requests
  on (the engine itself runs on the thread that calls it).

The rest is a library off the engine's route (``docs/parallel.md`` says
why it is still here):

* :class:`ShardedRelation` — hash-partitioned relations with a
  co-partitioning contract for traffic-free shard-by-shard joins;
* shard-parallel operator drivers (:func:`parallel_semijoin`,
  :func:`parallel_hash_join`, :func:`parallel_select_eq`) built on
  bucket-centric per-shard kernels;
* :class:`ParallelYannakakisEvaluator` — level-parallel, sharded
  Yannakakis passes for acyclic queries.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "LiftedBatch": "batch",
        "lift_batch_group": "batch",
        "ParallelYannakakisEvaluator": "executor",
        "DEFAULT_SHARD_COUNT": "ops",
        "bucket_semijoin": "ops",
        "parallel_hash_join": "ops",
        "parallel_select_eq": "ops",
        "parallel_semijoin": "ops",
        "WorkerPool": "pool",
        "default_worker_count": "pool",
        "ShardedRelation": "sharding",
        "shard_relation": "sharding",
    },
)
