"""The :class:`QueryEngine` facade: plan, cache, dispatch, batch.

The engine is the production entry point the ROADMAP asks for on top of the
PR 1 kernel: callers stop hand-picking among ``NaiveEvaluator``,
``YannakakisEvaluator``, ``TreewidthEvaluator`` and the Theorem 2 machinery
and instead say ``engine.execute(query, database)``.  Internally:

1. the *analyzer* classifies the query's structure (acyclic / bounded
   treewidth / bounded variables / general — the paper's tractability map);
2. the *planner* turns the analysis plus kernel statistics into an
   explainable :class:`QueryPlan`;
3. the *plan cache* (LRU, keyed on query shape + schema) lets repeated and
   parameterized queries skip both steps — every constant binding of one
   prepared shape reuses the same plan;
4. the *executor* dispatches to the chosen evaluator — one per
   structural class; every acyclic plan runs through the one
   :class:`~repro.evaluation.yannakakis.YannakakisEvaluator`;
5. ``run_batch`` groups same-shape operations under one plan key:
   identical members share one execution, a large constant-variant group
   of an acyclic ``execute`` / ``decide`` is *lifted* into a single N-wide
   execution through a parameter relation, and everything else is a plain
   loop over the members.

After every planned execution the engine records the actual result
cardinality on the plan (``QueryPlan.runtime``) and feeds a bounded
per-shape ledger; ``stats()`` exposes both together with the plan cache's
hit/miss counters.  When the observed cardinality drifts ≥
``replan_drift_threshold``× from the plan's estimate, the engine
*re-plans* the shape with the observation as corrected statistics;
re-plan events surface in ``explain`` and ``stats()``.  Row counts are
the only feedback the planner takes — recorded latencies are
observability, so a plan is a function of the query and the data, never
of which requests arrived first or how fast they ran.  ``explain``
returns the plan rendering (with cache status and estimate-vs-actual
feedback) without executing anything; passing
``evaluator=...`` to ``execute``/``decide`` forces a specific engine,
which keeps the benchmark suite on a single code path even where a fixed
evaluator is the point of the measurement.

The engine is safe to share across threads — the async service front-end
(:mod:`repro.service`) multiplexes every concurrent caller onto one
engine: plan cache, ledger and plan runtimes are locked, kernel cache
fills are convergent, and the evaluators themselves are stateless across
calls.

Evaluation runs on the thread that called the engine and nowhere else:
the engine owns no pool.  Constructing with ``parallel=False`` turns the
N-wide batch lifting off; single operations take the same route either
way.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import QueryError
from ..evaluation.bounded_variable import parameter_v_transform
from ..evaluation.counting import (
    CountingYannakakisEvaluator,
    grouped_count_reference,
    head_domain_size,
)
from ..evaluation.naive import NaiveEvaluator
from ..evaluation.treewidth_eval import TreewidthEvaluator
from ..evaluation.yannakakis import YannakakisEvaluator
from ..inequalities.evaluator import AcyclicInequalityEvaluator
from ..operations import (
    AGG_COUNT,
    AGG_EXISTS,
    AGG_FORALL,
    AGG_GROUP,
    Operation,
    OperationFacade,
    operations_of,
)
from ..operations import (
    AGGREGATE as OP_AGGREGATE,
    COUNT as OP_COUNT,
    DECIDE as OP_DECIDE,
    EXECUTE as OP_EXECUTE,
    EXPLAIN as OP_EXPLAIN,
)
from ..parallel.batch import lift_batch_group
from ..query.conjunctive import ConjunctiveQuery
from ..relational.database import Database
from ..relational.relation import Relation
from ..resilience.token import check_cancelled
from ..telemetry import ShapeLedger
from .analysis import (
    ACYCLIC,
    COUNT_BOOLEAN,
    DEFAULT_TREEWIDTH_THRESHOLD,
    FAST_COUNTING_MODES,
    plan_cache_key,
    variable_layout,
)
from .cache import PlanCache
from .plan import (
    BOUNDED_VARIABLE,
    EVALUATORS,
    INEQUALITY,
    NAIVE,
    QueryPlan,
    TREEWIDTH,
    YANNAKAKIS,
)
from .planner import Planner

#: Same-shape groups at least this large are executed N-wide (lifted).
DEFAULT_BATCH_WIDE_THRESHOLD = 8

#: Estimate-vs-actual cardinality ratio at which a cached plan is dropped
#: and the shape is re-planned with observed statistics.
DEFAULT_REPLAN_DRIFT = 10.0

#: Most re-plans one cached shape entry may accumulate.  A stable workload
#: corrects once and settles; a workload whose parameterizations genuinely
#: oscillate ≥ drift× (hub vs leaf constants under one shape) would
#: otherwise re-plan on *every* execution, turning the plan cache into a
#: per-request planner on exactly the parameterized hot path it exists
#: for.  The cap bounds that waste; a data-scale change re-keys the shape
#: (schema signature) and starts a fresh entry with a fresh budget.
DEFAULT_REPLAN_LIMIT = 5


class QueryEngine(OperationFacade):
    """Adaptive evaluation of conjunctive queries with plan caching.

    Parameters
    ----------
    plan_cache_size:
        Capacity of the LRU plan cache (number of distinct shapes).
    treewidth_threshold:
        Maximum heuristic decomposition width for which a cyclic query is
        still routed through the bounded-treewidth evaluator.
    planner:
        Optional custom planner (tests inject instrumented ones).
    parallel:
        N-wide batch lifting on or off, and nothing else: ``False`` runs
        the members of every ``run_batch`` group one at a time.  Nothing
        in the engine runs on another thread either way.
    replan_drift_threshold:
        Estimate-vs-actual cardinality ratio at which the cached plan is
        invalidated and the shape re-planned with observed statistics
        (``None`` disables adaptive re-planning).
    """

    def __init__(
        self,
        plan_cache_size: int = 128,
        treewidth_threshold: int = DEFAULT_TREEWIDTH_THRESHOLD,
        planner: Optional[Planner] = None,
        parallel: bool = True,
        replan_drift_threshold: Optional[float] = DEFAULT_REPLAN_DRIFT,
    ) -> None:
        self._cache = PlanCache(plan_cache_size)
        self._ledger = ShapeLedger()
        self._planner = planner or Planner(treewidth_threshold)
        self._replan_drift = replan_drift_threshold
        self._naive = NaiveEvaluator()
        self._yannakakis = YannakakisEvaluator()
        self._treewidth = TreewidthEvaluator()
        self._inequality = AcyclicInequalityEvaluator()
        self._lift_batches = parallel
        self._counting = CountingYannakakisEvaluator()
        # The per-layer dispatch table the Operation API rides on: adding
        # an operation kind means one entry here (plus its thin facade),
        # not a parallel copy of the plan/record/batch plumbing.
        self._op_runners = {
            OP_EXECUTE: self._op_execute,
            OP_DECIDE: self._op_decide,
            OP_EXPLAIN: self._op_explain,
            OP_COUNT: self._op_count,
            OP_AGGREGATE: self._op_aggregate,
        }

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan_for(self, query: ConjunctiveQuery, database: Database) -> QueryPlan:
        """The (possibly cached) plan the engine would execute."""
        plan, _, _ = self._plan_entry(query, database)
        return plan

    def _plan_entry(
        self,
        query: ConjunctiveQuery,
        database: Database,
        key: Optional[Tuple] = None,
    ) -> Tuple[QueryPlan, str, Tuple]:
        if key is None:
            key = plan_cache_key(query, database)
        cached = self._cache.get(key)
        if cached is not None:
            return cached, "hit", key
        plan = self._planner.plan(query, database)
        # First-wins publication: a concurrent planner of the same shape
        # (or a re-plan that corrected it meanwhile) keeps its entry.
        plan = self._cache.put_if_absent(key, plan)
        return plan, "miss", key

    # ------------------------------------------------------------------
    # The generic Operation path (OperationFacade's methods route here)
    # ------------------------------------------------------------------

    def run(self, operation: Operation, database: Database) -> Any:
        """Run one :class:`~repro.operations.Operation` — the single entry
        point every facade method routes through.  Dispatches on the
        operation kind via the engine's runner table."""
        return self._run(operation, database, None)

    def _run(
        self, operation: Operation, database: Database, key: Optional[Tuple]
    ) -> Any:
        # *key* is the operation's plan-cache key when the caller already
        # has it (``run_batch`` groups by it), else ``None``.
        runner = self._op_runners.get(operation.kind)
        if runner is None:
            raise QueryError(
                f"engine has no runner for operation kind {operation.kind!r}"
            )
        return runner(operation, database, key)

    def run_batch(
        self, operations: Sequence[Operation], database: Database
    ) -> List[Any]:
        """Run many operations, grouped by (kind, options, shape).

        Results come back in input order, equal to running each operation
        on its own.
        """
        groups: Dict[Tuple, List[int]] = {}
        for position, operation in enumerate(operations):
            key = (
                operation.kind,
                operation.options,
                plan_cache_key(operation.query, database),
            )
            groups.setdefault(key, []).append(position)
        results: List[Any] = [None] * len(operations)
        for (_, _, plan_key), positions in groups.items():
            members = [operations[position] for position in positions]
            group_results = self._run_group(plan_key, members, database)
            for position, result in zip(positions, group_results):
                results[position] = result
        return results

    def _run_group(
        self, key: Tuple, members: List[Operation], database: Database
    ) -> List[Any]:
        """One group of same-kind, same-options, same-shape operations.

        Identical members share one execution (one ledger/runtime entry,
        however many members it served); a large constant-variant group of
        an acyclic ``execute`` / ``decide`` runs N-wide, recording only the
        *lifted* query under its own shape; everything else is a plain
        loop, each member recorded as if it had been run on its own.
        """
        first = members[0]
        if all(member == first for member in members[1:]):
            return [self._run(first, database, key)] * len(members)
        if (
            self._lift_batches
            and len(members) >= DEFAULT_BATCH_WIDE_THRESHOLD
            and first.kind in (OP_EXECUTE, OP_DECIDE)
            and first.option("evaluator") is None
        ):
            plan, _, _ = self._plan_entry(first.query, database, key=key)
            if plan.structural_class == ACYCLIC:
                lifted = self._run_lifted(
                    [member.query for member in members],
                    database,
                    decide=(first.kind == OP_DECIDE),
                )
                if lifted is not None:
                    return lifted
        return [self._run(member, database, key) for member in members]

    # ------------------------------------------------------------------
    # Per-kind runners (the dispatch table's targets)
    # ------------------------------------------------------------------

    def _op_execute(
        self, operation: Operation, database: Database, key: Optional[Tuple]
    ) -> Relation:
        query = operation.query
        forced = operation.option("evaluator")
        if forced is not None:
            return self._dispatch(forced, None, query, database, decide=False)
        plan, _, key = self._plan_entry(query, database, key)
        start = perf_counter()
        result = self._dispatch(plan.evaluator, plan, query, database, decide=False)
        self._record(
            key, plan, perf_counter() - start, result.cardinality, query, database
        )
        return result

    def _op_decide(
        self, operation: Operation, database: Database, key: Optional[Tuple]
    ) -> bool:
        query = operation.query
        forced = operation.option("evaluator")
        if forced is not None:
            return self._dispatch(forced, None, query, database, decide=True)
        plan, _, key = self._plan_entry(query, database, key)
        start = perf_counter()
        result = self._dispatch(plan.evaluator, plan, query, database, decide=True)
        self._record(key, plan, perf_counter() - start, None, query, database)
        return result

    def _op_explain(
        self, operation: Operation, database: Database, key: Optional[Tuple]
    ) -> str:
        plan, status, _ = self._plan_entry(operation.query, database, key)
        cache = self._cache.stats()
        footer = (
            f"  cache    : {status} "
            f"(hits={cache['hits']}, misses={cache['misses']}, "
            f"evictions={cache['evictions']}, "
            f"size={cache['size']}/{cache['capacity']})"
        )
        return plan.explain(cache_status=status) + "\n" + footer

    def _op_count(
        self, operation: Operation, database: Database, key: Optional[Tuple]
    ) -> int:
        query = operation.query
        plan, _, key = self._plan_entry(query, database, key)
        start = perf_counter()
        total = self._count_with_plan(plan, query, database)
        # count *is* |Q(d)|, so it feeds estimate-vs-actual drift exactly
        # like an execute's cardinality does.
        self._record(key, plan, perf_counter() - start, total, query, database)
        return total

    def _op_aggregate(
        self, operation: Operation, database: Database, key: Optional[Tuple]
    ) -> Any:
        mode = operation.option("mode")
        query = operation.query
        if mode == AGG_COUNT:
            return self._op_count(operation, database, key)
        if mode == AGG_EXISTS:
            return self._op_decide(Operation(OP_DECIDE, query), database, key)
        plan, _, key = self._plan_entry(query, database, key)
        start = perf_counter()
        if mode == AGG_FORALL:
            # ∀-check: the count reaches the product of the head variables'
            # candidate domains iff every candidate head tuple is an answer
            # (vacuously true when a domain is empty).
            total = self._count_with_plan(plan, query, database)
            result: Any = total == head_domain_size(query, database)
            rows: Optional[int] = total
        else:  # AGG_GROUP — operation validation admits nothing else
            group_by = operation.option("group_by")
            result = self._grouped_count_with_plan(plan, query, database, group_by)
            rows = result.cardinality
        self._record(key, plan, perf_counter() - start, rows, query, database)
        return result

    # ------------------------------------------------------------------
    # Counting strategies (trichotomy-aware)
    # ------------------------------------------------------------------

    def _count_with_plan(
        self, plan: QueryPlan, query: ConjunctiveQuery, database: Database
    ) -> int:
        mode = plan.count_mode
        if mode == COUNT_BOOLEAN:
            # Counting IS deciding here, and the plan's decide path works
            # on every structural class (the annotated pass would not —
            # a boolean head can sit on a cyclic body).
            return int(
                self._dispatch(plan.evaluator, plan, query, database, decide=True)
            )
        if mode in FAST_COUNTING_MODES:
            reusable = plan.analysis.variable_layout == variable_layout(query)
            tree = plan.analysis.join_tree if reusable else None
            return self._counting.count(
                query, database, join_tree=tree, mode=mode
            ).total
        # Hard modes (uncovered projection, cyclic core, constraints):
        # evaluate through the plan's evaluator and read the cardinality.
        return self._dispatch(
            plan.evaluator, plan, query, database, decide=False
        ).cardinality

    def _grouped_count_with_plan(
        self,
        plan: QueryPlan,
        query: ConjunctiveQuery,
        database: Database,
        group_by: Tuple[str, ...],
    ) -> Relation:
        mode = plan.count_mode
        if mode in FAST_COUNTING_MODES:
            reusable = plan.analysis.variable_layout == variable_layout(query)
            tree = plan.analysis.join_tree if reusable else None
            fast = self._counting.grouped_count(
                query, database, group_by, join_tree=tree, mode=mode
            )
            if fast is not None:
                return fast
        answers = self._dispatch(plan.evaluator, plan, query, database, decide=False)
        return grouped_count_reference(query, answers, group_by)

    # ------------------------------------------------------------------
    # Engine-only facades (the per-kind ones come from OperationFacade)
    # ------------------------------------------------------------------

    def contains(
        self,
        query: ConjunctiveQuery,
        database: Database,
        candidate: Sequence[Any],
    ) -> bool:
        """The paper's decision problem: is *candidate* ∈ Q(d)?

        Substitutes the candidate's constants (the decision instance) and
        decides emptiness adaptively.  All decision instances of one query
        share a plan-cache entry — this is the parameterized-query fast
        path the cache exists for.
        """
        try:
            decided = query.decision_instance(candidate)
        except QueryError:
            return False
        return self.decide(decided, database)

    def count_batch(
        self,
        queries: Sequence[ConjunctiveQuery],
        database: Database,
    ) -> List[int]:
        """|Q(d)| for many queries — duplicates share one count."""
        return self.run_batch(operations_of(OP_COUNT, queries), database)

    def _run_lifted(
        self, members: List[ConjunctiveQuery], database: Database, decide: bool
    ) -> Optional[List[Any]]:
        """Every member's answer from one N-wide execution, or ``None``.

        Declines (the caller falls back to the per-member loop) when the
        members are not constant-variants of one template, and — for
        ``decide``, whose pass walks a join tree — when the lifted query,
        the member template plus the parameter atom, is not itself
        acyclic.
        """
        lifted = lift_batch_group(members, database)
        if lifted is None:
            return None
        if not decide:
            return lifted.distribute(self.execute(lifted.query, lifted.database))
        plan, _, key = self._plan_entry(lifted.query, lifted.database)
        if plan.structural_class != ACYCLIC or plan.analysis.join_tree is None:
            return None
        reusable = plan.analysis.variable_layout == variable_layout(lifted.query)
        tree = plan.analysis.join_tree if reusable else None
        root = len(lifted.query.atoms) - 1  # the parameter atom
        start = perf_counter()
        reduced = self._yannakakis.reduce_bottom_up(
            lifted.query, lifted.database, join_tree=tree, root=root
        )
        decisions = lifted.decide_members(reduced)
        self._record(
            key, plan, perf_counter() - start, None, lifted.query, lifted.database
        )
        return decisions

    # ------------------------------------------------------------------
    # Dispatch table
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        evaluator: str,
        plan: Optional[QueryPlan],
        query: ConjunctiveQuery,
        database: Database,
        decide: bool,
    ):
        # Cancellation check-point at dispatch: an expired deadline or an
        # already-abandoned request aborts before planning or evaluation
        # spends anything.
        check_cancelled()
        # A cached plan's join tree / decomposition name the variables of
        # the query it was planned from; they are reusable for this query
        # only when the variable layout matches (true for the parameterized
        # decision instances the cache targets, false for α-renamed shape
        # twins, which just rebuild the structure).
        reusable = plan is not None and plan.analysis.variable_layout == (
            variable_layout(query)
        )
        if evaluator == YANNAKAKIS:
            # Reuse the plan's join tree: a cache hit must not pay for the
            # GYO reduction again.
            tree = plan.analysis.join_tree if reusable else None
            engine = self._yannakakis
            return (
                engine.decide(query, database, join_tree=tree)
                if decide
                else engine.evaluate(query, database, join_tree=tree)
            )
        if evaluator == TREEWIDTH:
            decomposition = plan.analysis.decomposition if reusable else None
            engine = self._treewidth
            return (
                engine.decide(query, database, decomposition=decomposition)
                if decide
                else engine.evaluate(query, database, decomposition=decomposition)
            )
        if evaluator == INEQUALITY:
            engine = self._inequality
            return (
                engine.decide(query, database)
                if decide
                else engine.evaluate(query, database)
            )
        if evaluator == BOUNDED_VARIABLE:
            grouped_query, grouped_database = parameter_v_transform(query, database)
            return (
                self._naive.decide(grouped_query, grouped_database)
                if decide
                else self._naive.evaluate(grouped_query, grouped_database)
            )
        if evaluator == NAIVE:
            order = plan.join_order if plan is not None else None
            return (
                self._naive.decide(query, database, atom_order=order)
                if decide
                else self._naive.evaluate(query, database, atom_order=order)
            )
        raise QueryError(
            f"unknown evaluator {evaluator!r}; expected one of {EVALUATORS}"
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _record(
        self,
        key: Tuple,
        plan: QueryPlan,
        seconds: float,
        rows: Optional[int],
        query: Optional[ConjunctiveQuery] = None,
        database: Optional[Database] = None,
    ) -> None:
        plan.runtime.record(rows)
        self._ledger.record(key, plan, seconds, rows)
        if query is not None and database is not None:
            self._maybe_replan(key, rows, query, database)

    def _maybe_replan(
        self,
        key: Tuple,
        rows: Optional[int],
        query: ConjunctiveQuery,
        database: Database,
    ) -> None:
        """Adaptive re-planning: drop a drifted plan, re-plan with actuals.

        When the observed cardinality is ≥ ``replan_drift_threshold``× off
        the cached plan's estimate (in either direction), the cache entry
        is invalidated and the shape planned again with the observation as
        corrected statistics.  The new plan's estimate equals the
        observation, so a stable workload re-plans once and settles; only
        a workload that genuinely oscillates beyond the threshold keeps
        re-planning, which is then the right call.  Drift is always
        measured against the *currently cached* plan, so concurrent
        recordings of one shape do not cascade into repeated re-plans, and
        each shape entry holds at most :data:`DEFAULT_REPLAN_LIMIT`
        corrections — parameterizations that genuinely oscillate beyond
        the threshold (hub vs leaf constants under one shape) stop
        burning planner work once the budget is spent, instead of turning
        the plan cache into a per-request planner.
        """
        threshold = self._replan_drift
        if threshold is None or rows is None:
            return
        plan = self._cache.peek(key)
        if plan is None or plan.replans >= DEFAULT_REPLAN_LIMIT:
            return
        actual = max(float(rows), 1.0)
        expected = max(plan.estimated_rows, 1.0)
        drift = actual / expected if actual >= expected else expected / actual
        if drift < threshold:
            return
        corrected = float(rows)
        new_plan = self._planner.plan(query, database, observed_rows=corrected)
        new_plan = replace(new_plan, replans=plan.replans + 1, corrected_rows=corrected)
        # Seed the fresh runtime with the observation that triggered the
        # re-plan, so explain's estimate-vs-actual line survives the swap.
        new_plan.runtime.record(rows)
        # Plain put — the corrected plan must *replace* the drifted entry
        # (there is no invalidate-then-put window: a concurrent cold miss
        # cannot slip a stale plan in between, because cold misses publish
        # first-wins through put_if_absent against this entry).
        self._cache.put(key, new_plan)
        self._ledger.note_replan(key, new_plan)

    def stats(self) -> Dict[str, Any]:
        """Engine-wide totals, plan-cache counters and one row per tracked
        shape: the ``engine`` section of the wire ``stats`` document."""
        return {**self._ledger.snapshot(), "cache": self._cache.stats()}

    def clear_cache(self) -> None:
        self._cache.clear()
        self._ledger.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """The lifecycle hook owners call when done with the engine.  It
        holds no thread, file or socket, so there is nothing to release;
        the engine stays usable."""

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
