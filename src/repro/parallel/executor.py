"""Shard-parallel Yannakakis evaluation for acyclic queries.

A library off the engine's route: ``QueryEngine`` evaluates every acyclic
plan with the sequential
:class:`~repro.evaluation.yannakakis.YannakakisEvaluator`, which beats
this evaluator on every measured workload (``docs/performance.md``).  It
stays because the e2e benchmark's tracer names its entry points
(``docs/parallel.md``).

Durand–Grandjean show acyclic conjunctive queries are evaluable in
essentially linear time; operationally that means the Yannakakis passes are
*data-parallel* — every per-edge semijoin of one join-tree level touches a
disjoint (parent, child) pair, and within one edge the co-partitioned
shards are independent.  :class:`ParallelYannakakisEvaluator` exploits both
axes:

* **level scheduling** — tree edges are grouped by child depth; within a
  level, edges are grouped by parent (a parent absorbs its children
  sequentially, which is the semijoin chain) and the per-parent groups fan
  out across the worker pool;
* **sharded semijoins** — each sufficiently large semijoin runs through
  :func:`repro.parallel.ops.parallel_semijoin`: co-partitioned hash shards,
  bucket-centric per-shard kernels, empty-partner pruning;
* **semijoin-shaped upward joins** — an upward join-project edge whose kept
  columns all exist in the parent (``keep ⊆ parent attributes``, the common
  case for small heads) *is* a semijoin, and runs sharded instead of
  through the row-materializing fused join;
* **head-aware rooting** — before the passes, the join tree is re-rooted at
  the node covering the most head variables (sound for any root: the join
  tree property is a property of the undirected tree).  With the head
  concentrated at the root, upward edges stop dragging head columns
  through every intermediate — they become semijoin-shaped, i.e. exactly
  the shard-parallel operations — instead of materializing
  cross-product-sized carriers.

Results are identical to :class:`~repro.evaluation.yannakakis.YannakakisEvaluator`
— ``tests/test_parallel_engine.py`` pins this — and the evaluator degrades
to the sequential kernels on small inputs (``min_shard_rows``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..evaluation.instantiation import answers_relation
from ..evaluation.yannakakis import YannakakisEvaluator, acyclic_program
from ..hypergraph.join_tree import JoinTree
from ..query.conjunctive import ConjunctiveQuery
from ..relational.database import Database
from ..relational.relation import Relation
from ..resilience.token import check_cancelled
from .ops import DEFAULT_SHARD_COUNT, parallel_semijoin
from .pool import WorkerPool

#: Below this cardinality the sequential kernel semijoin is used as-is —
#: sharding overhead would exceed the bucket-level savings.
DEFAULT_MIN_SHARD_ROWS = 512


class ParallelYannakakisEvaluator(YannakakisEvaluator):
    """Yannakakis with sharded semijoin passes and level-parallel fan-out.

    Parameters
    ----------
    pool:
        Worker pool for level fan-out (defaults to a one-worker pool; the
        sharded kernels carry the single-core win on their own).
    shard_count:
        Default hash-shard fan-in per semijoin; callers may override it
        per call.
    min_shard_rows:
        Probe-side cardinality under which semijoins stay sequential.
    """

    def __init__(
        self,
        pool: Optional[WorkerPool] = None,
        shard_count: int = DEFAULT_SHARD_COUNT,
        min_shard_rows: int = DEFAULT_MIN_SHARD_ROWS,
    ) -> None:
        super().__init__()
        self._pool = pool or WorkerPool(max_workers=1)
        self._default_shard_count = shard_count
        self._min_shard_rows = min_shard_rows

    # ------------------------------------------------------------------
    # Public API (signature-compatible with the sequential evaluator)
    # ------------------------------------------------------------------

    def decide(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
        shard_count: Optional[int] = None,
    ) -> bool:
        """Is Q(d) nonempty?  One level-parallel bottom-up pass."""
        return (
            self.reduce_bottom_up(
                query, database, join_tree, shard_count=shard_count
            )
            is not None
        )

    def reduce_bottom_up(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
        root: Optional[int] = None,
        shard_count: Optional[int] = None,
    ) -> Optional[Relation]:
        """Reduced root relation after a level-parallel bottom-up pass.

        The sharded counterpart of
        :meth:`~repro.evaluation.yannakakis.YannakakisEvaluator.reduce_bottom_up`:
        same contract (re-root, one upward pass, survivors participate in a
        global match), with per-parent semijoin chains fanned across the
        pool and large semijoins sharded.
        """
        program = self._program(
            query, None if join_tree is None else acyclic_program(query, join_tree)
        )
        relations = self._candidates(query, database, program)
        if relations is None:
            return None
        tree = program.tree
        if root is not None and root != tree.root:
            tree = tree.rooted_at(root)
        shards = shard_count or self._default_shard_count
        for level in _levels(tree):
            # Level boundaries are the natural cancellation check-points:
            # all of a level's tasks have been committed, none of the
            # next level's have started.
            check_cancelled()
            groups = _by_parent(tree, level)
            for (parent, _), result in zip(
                groups, self._reduce_level(relations, groups, shards)
            ):
                if result.is_empty():
                    return None
                relations[parent] = result
        reduced = relations[tree.root]
        return None if reduced.is_empty() else reduced

    def evaluate(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
        shard_count: Optional[int] = None,
    ) -> Relation:
        """Q(d) — full reduction, then the upward join-project pass."""
        program = self._program(
            query, None if join_tree is None else acyclic_program(query, join_tree)
        )
        relations = self._candidates(query, database, program)
        head_names = tuple(v.name for v in query.head_variables())
        if relations is None:
            return answers_relation(query.head_terms, Relation.from_rows(head_names))
        tree = program.tree  # rooted where the head lives
        shards = shard_count or self._default_shard_count

        relations = self.full_reduction(relations, tree, shard_count=shards)
        if relations[tree.root].is_empty():
            return answers_relation(query.head_terms, Relation.from_rows(head_names))

        head_set = set(head_names)
        for level in _levels(tree):
            check_cancelled()
            for parent, children in _by_parent(tree, level):
                for node in children:
                    parent_rel = relations[parent]
                    child_rel = relations[node]
                    parent_vars = set(parent_rel.attributes)
                    keep = tuple(
                        a
                        for a in child_rel.attributes
                        if a in parent_vars or a in head_set
                    )
                    if all(a in parent_vars for a in keep):
                        # keep ⊆ parent: the join adds no columns — it *is*
                        # a semijoin, so the sharded kernel applies.
                        relations[parent] = self._semijoin(
                            parent_rel, child_rel, shards
                        )
                    else:
                        relations[parent] = parent_rel._join_keep(child_rel, keep)

        root = relations[tree.root]
        answer_vars = root.project(
            tuple(a for a in root.attributes if a in head_set)
        ).project(head_names)
        return answers_relation(query.head_terms, answer_vars)

    # ------------------------------------------------------------------

    def full_reduction(
        self,
        relations: Dict[int, Relation],
        tree: JoinTree,
        shard_count: Optional[int] = None,
    ) -> Dict[int, Relation]:
        """Semijoin full reducer, one join-tree level at a time.

        Bottom-up, per-parent semijoin chains within a level run as
        independent pool tasks; the top-down pass fans per-edge tasks out
        the same way (every child is written exactly once).
        """
        shards = shard_count or self._default_shard_count
        reduced = dict(relations)
        for level in _levels(tree):
            check_cancelled()
            groups = _by_parent(tree, level)
            for (parent, _), result in zip(
                groups, self._reduce_level(reduced, groups, shards)
            ):
                reduced[parent] = result

        for level in reversed(_levels(tree)):
            check_cancelled()
            edges = [(node, tree.parent(node)) for node in level]

            def reduce_child(edge: Tuple[int, int]) -> Relation:
                node, parent = edge
                return self._semijoin(reduced[node], reduced[parent], shards)

            results = self._pool.map(reduce_child, edges)
            for (node, _), result in zip(edges, results):
                reduced[node] = result
        return reduced

    # ------------------------------------------------------------------

    def _reduce_level(
        self,
        relations: Dict[int, Relation],
        groups: List[Tuple[int, Tuple[int, ...]]],
        shards: int,
    ) -> List[Relation]:
        """One bottom-up level: each parent's semijoin chain over its
        children, the per-parent chains fanned across the pool.  Tasks only
        read *relations*; the caller commits the returned results."""

        def reduce_parent(group: Tuple[int, Tuple[int, ...]]) -> Relation:
            parent, children = group
            current = relations[parent]
            for node in children:
                current = self._semijoin(current, relations[node], shards)
            return current

        return self._pool.map(reduce_parent, groups)

    def _semijoin(self, left: Relation, right: Relation, shards: int) -> Relation:
        # Shard-map step check-point: per-edge granularity inside a
        # level's per-parent chain (tokens ride into thread workers).
        check_cancelled()
        if left.cardinality < self._min_shard_rows:
            return left.semijoin(right)
        return parallel_semijoin(left, right, shard_count=shards, pool=self._pool)


# ----------------------------------------------------------------------
# Tree level scheduling
# ----------------------------------------------------------------------


def _levels(tree: JoinTree) -> List[List[int]]:
    """Non-root nodes grouped by depth, deepest group first.

    Processing level ``d`` after level ``d+1`` preserves the bottom-up
    invariant: every node has already absorbed its own children when its
    edge to its parent runs.
    """
    depth: Dict[int, int] = {tree.root: 0}
    for node in tree.top_down_order():
        parent = tree.parent(node)
        if parent is not None:
            depth[node] = depth[parent] + 1
    if len(depth) <= 1:
        return []
    deepest = max(depth.values())
    levels: List[List[int]] = [[] for _ in range(deepest)]
    for node, d in depth.items():
        if d > 0:
            levels[deepest - d].append(node)
    return [sorted(level) for level in levels]


def _by_parent(tree: JoinTree, level: List[int]) -> List[Tuple[int, Tuple[int, ...]]]:
    """The level's edges grouped as (parent, its children in this level)."""
    grouped: Dict[int, List[int]] = {}
    for node in level:
        parent = tree.parent(node)
        assert parent is not None
        grouped.setdefault(parent, []).append(node)
    return [(parent, tuple(children)) for parent, children in sorted(grouped.items())]
