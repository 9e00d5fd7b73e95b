"""The :class:`QueryEngine` facade: plan, cache, dispatch, batch.

The engine is the production entry point the ROADMAP asks for on top of the
PR 1 kernel: callers stop hand-picking between ``NaiveEvaluator`` and
``YannakakisEvaluator`` and instead say ``engine.execute(query,
database)``.  Internally:

1. the *analyzer* asks the one structural question the routes depend on
   — acyclic and constraint-free, or not (the paper's §5 island);
2. the *planner* turns the analysis plus kernel statistics into an
   explainable :class:`QueryPlan`;
3. the *shape table* (LRU, keyed on query shape + schema) lets repeated
   and parameterized queries skip both steps — every constant binding of
   one prepared shape reuses the same plan;
4. the *executor* dispatches to one of two routes: an acyclic plan runs
   its program through the one
   :class:`~repro.evaluation.yannakakis.YannakakisEvaluator`, every other
   shape the generated search in the plan's join order (the class
   evaluators of the other islands — ``TreewidthEvaluator``, the Theorem 2
   machinery, the parameter-v transform — stay library evaluators);
5. ``run_batch`` groups same-shape operations under one plan key:
   identical members share one execution, a large constant-variant group
   of an acyclic ``execute`` / ``decide`` is *lifted* into a single N-wide
   execution through a parameter relation, and everything else is a plain
   loop over the members.

After every execution, forced or not, the engine records the time and
the actual result cardinality in the shape's entry of the table
(:class:`~repro.engine.cache.ShapeTable`), the one record ``explain``
and ``stats()`` both read.  When the observed cardinality drifts ≥
:data:`~repro.engine.cache.DEFAULT_REPLAN_DRIFT`× from the plan's
estimate, the engine *re-plans* the shape with the observation as
corrected statistics; re-plan events surface in ``explain`` and
``stats()``.  Row counts are
the only feedback the planner takes — recorded latencies choose no plan
(the service reads a shape's p95, through :meth:`QueryEngine.runs_within`,
only to pick the thread a warm group runs on), so a plan is a function of
the query and the data, never of which requests arrived first or how fast
they ran.  ``explain``
returns the plan rendering (with cache status and estimate-vs-actual
feedback) without executing anything.  Passing ``evaluator=...`` to
``execute``/``decide`` overrides the route and nothing else: the request
still looks up (or plans) its shape, runs the plan's prepared artefacts —
the acyclic program, the join order — under the forced evaluator, and is
recorded like any other run.  So a benchmark that forces each evaluator in
turn times the path a served request takes.

The engine is safe to share across threads — the async service front-end
(:mod:`repro.service`) multiplexes every concurrent caller onto one
engine: the shape table is locked, plans are immutable values, kernel
cache fills are convergent, and the evaluators themselves are stateless across
calls.

Evaluation runs on the thread that called the engine and nowhere else:
the engine owns no pool.  Constructing with ``parallel=False`` turns the
N-wide batch lifting off; single operations take the same route either
way.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import QueryError
from ..evaluation.counting import (
    COUNT_BOOLEAN,
    FAST_COUNTING_MODES,
    CountingYannakakisEvaluator,
    group_tree,
    grouped_count_reference,
    head_domain_size,
)
from ..evaluation.naive import NaiveEvaluator
from ..evaluation.yannakakis import AcyclicProgram, YannakakisEvaluator
from ..operations import (
    COUNT as OP_COUNT,
    DECIDE as OP_DECIDE,
    EXECUTE as OP_EXECUTE,
    EXPLAIN as OP_EXPLAIN,
    FORALL as OP_FORALL,
    GROUPED_COUNT as OP_GROUPED_COUNT,
    Operation,
    OperationFacade,
)
from ..parallel.batch import lift_batch_group
from ..query.conjunctive import ConjunctiveQuery
from ..relational.database import Database
from ..relational.relation import Relation
from ..resilience.token import check_cancelled
from .analysis import ACYCLIC, plan_cache_key, variable_layout
from .cache import Shape, ShapeTable
from .plan import EVALUATORS, YANNAKAKIS, QueryPlan
from .planner import Planner

#: Same-shape groups at least this large are executed N-wide (lifted).
DEFAULT_BATCH_WIDE_THRESHOLD = 8


def _program(plan: QueryPlan, query: ConjunctiveQuery) -> Optional[AcyclicProgram]:
    """*plan*'s acyclic program when *query* can run it, else ``None`` (the
    evaluator builds one).  The program names the variables of the query
    the plan was made for, so only when the variable layout matches (true
    for the parameterized decision instances the cache targets, false for
    α-renamed shape twins)."""
    if plan.analysis.variable_layout != variable_layout(query):
        return None
    return plan.program


class QueryEngine(OperationFacade):
    """Adaptive evaluation of conjunctive queries with plan caching.

    Parameters
    ----------
    plan_cache_size:
        Capacity of the LRU shape table (number of distinct shapes whose
        plans and rows it keeps).
    planner:
        Optional custom planner (tests inject instrumented ones).
    parallel:
        N-wide batch lifting on or off, and nothing else: ``False`` runs
        the members of every ``run_batch`` group one at a time.  Nothing
        in the engine runs on another thread either way.
    """

    def __init__(
        self,
        plan_cache_size: int = 512,
        planner: Optional[Planner] = None,
        parallel: bool = True,
    ) -> None:
        self._table = ShapeTable(plan_cache_size)
        self._planner = planner or Planner()
        self._naive = NaiveEvaluator()
        self._yannakakis = YannakakisEvaluator()
        self._lift_batches = parallel
        self._counting = CountingYannakakisEvaluator()
        # The per-layer dispatch table the Operation API rides on: adding
        # an operation kind means one entry here (plus its thin facade),
        # not a parallel copy of the plan/record/batch plumbing.
        self._op_runners = {
            OP_EXECUTE: partial(self._op_answer, decide=False),
            OP_DECIDE: partial(self._op_answer, decide=True),
            OP_EXPLAIN: self._op_explain,
            OP_COUNT: self._op_count,
            OP_GROUPED_COUNT: self._op_grouped_count,
            OP_FORALL: self._op_forall,
        }

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan_for(self, query: ConjunctiveQuery, database: Database) -> QueryPlan:
        """The (possibly cached) plan the engine would execute."""
        return self._shape(query, database)[0].plan

    def _shape(
        self,
        query: ConjunctiveQuery,
        database: Database,
        key: Optional[Tuple] = None,
    ) -> Tuple[Shape, str, Tuple]:
        """The shape's table entry, whether it was a hit or a miss, and
        its key."""
        if key is None:
            key = plan_cache_key(query, database)
        shape = self._table.get(key)
        if shape is not None:
            return shape, "hit", key
        # First-wins publication: a concurrent planner of the same shape
        # (or a re-plan that corrected it meanwhile) keeps its entry.
        shape = self._table.publish(key, self._planner.plan(query, database))
        return shape, "miss", key

    def runs_within(self, key: Tuple, seconds: float) -> bool:
        """Whether a run of the shape keyed *key* is known to end within
        *seconds*: the shape's recent p95 latency is below it (so some run
        was recorded).  Both routes poll the cancel token as they go (per
        edge, per stride of search steps), so a time slice stops a run that
        does not.  O(1): the table keeps the p95 current as it records."""
        shape = self._table.peek(key)
        return shape is not None and shape.p95 < seconds

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
        # has it (``run_batch`` groups by it), else ``None``.  An operation
        # is valid once made, so its kind has a runner.
        return self._op_runners[operation.kind](operation, database, key)

    def run_batch(
        self, operations: Sequence[Operation], database: Database
    ) -> List[Any]:
        """Run many operations, grouped by (kind, options, shape).

        Results come back in input order, equal to running each operation
        on its own.
        """
        groups: Dict[Tuple, List[int]] = {}
        for position, operation in enumerate(operations):
            key = (operation.group_key, plan_cache_key(operation.query, database))
            groups.setdefault(key, []).append(position)
        results: List[Any] = [None] * len(operations)
        for (_, plan_key), positions in groups.items():
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
            shape, _, _ = self._shape(first.query, database, key=key)
            if shape.plan.structural_class == ACYCLIC:
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

    def _op_answer(
        self,
        operation: Operation,
        database: Database,
        key: Optional[Tuple],
        decide: bool,
    ) -> Any:
        """``execute`` (*decide* false) or ``decide``: look up or plan the
        shape, dispatch, record.  A forced ``evaluator`` option overrides
        the plan's route and nothing else."""
        query = operation.query
        route = operation.option("evaluator")
        if route is not None and route not in EVALUATORS:
            # Refused before the lookup: a mistyped name plans nothing.
            raise QueryError(
                f"unknown evaluator {route!r}; expected one of {EVALUATORS}"
            )
        shape, _, key = self._shape(query, database, key)
        plan = shape.plan
        start = perf_counter()
        result = self._dispatch(route or plan.evaluator, plan, query, database, decide)
        # The row count does not depend on the route, so a forced run feeds
        # drift re-planning exactly like a planned one.
        rows = None if decide else result.cardinality
        self._record(key, perf_counter() - start, rows, query, database)
        return result

    def _op_explain(
        self, operation: Operation, database: Database, key: Optional[Tuple]
    ) -> str:
        shape, status, _ = self._shape(operation.query, database, key)
        # The shape's actuals, read without the table's lock: explain is a
        # report, and a concurrent record at worst shows one run behind.
        rendering = shape.plan.explain(
            cache_status=status,
            executions=shape.counts["executions"],
            last_rows=shape.counts["last_rows"],
        )
        cache = self._table.stats(shapes=False)["cache"]
        footer = (
            f"  cache    : {status} "
            f"(hits={cache['hits']}, misses={cache['misses']}, "
            f"evictions={cache['evictions']}, "
            f"size={cache['size']}/{cache['capacity']})"
        )
        return rendering + "\n" + footer

    def _op_count(
        self, operation: Operation, database: Database, key: Optional[Tuple]
    ) -> int:
        query = operation.query
        shape, _, key = self._shape(query, database, key)
        start = perf_counter()
        total = self._count_with_plan(shape.plan, query, database)
        # count *is* |Q(d)|, so it feeds estimate-vs-actual drift exactly
        # like an execute's cardinality does.
        self._record(key, perf_counter() - start, total, query, database)
        return total

    def _op_grouped_count(
        self, operation: Operation, database: Database, key: Optional[Tuple]
    ) -> Relation:
        query = operation.query
        shape, _, key = self._shape(query, database, key)
        start = perf_counter()
        result = self._grouped_count_with_plan(
            shape, query, database, operation.option("group_by")
        )
        self._record(key, perf_counter() - start, result.cardinality, query, database)
        return result

    def _op_forall(
        self, operation: Operation, database: Database, key: Optional[Tuple]
    ) -> bool:
        # ∀-check: the count reaches the product of the head variables'
        # candidate domains iff every candidate head tuple is an answer
        # (vacuously true when a domain is empty).
        query = operation.query
        shape, _, key = self._shape(query, database, key)
        start = perf_counter()
        total = self._count_with_plan(shape.plan, query, database)
        self._record(key, perf_counter() - start, total, query, database)
        return total == head_domain_size(query, database)

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
            return self._counting.count(
                query, database, program=_program(plan, query), mode=mode
            ).total
        # Hard modes (uncovered projection, cyclic core, constraints):
        # evaluate through the plan's evaluator and read the cardinality.
        return self._dispatch(
            plan.evaluator, plan, query, database, decide=False
        ).cardinality

    def _grouped_count_with_plan(
        self,
        shape: Shape,
        query: ConjunctiveQuery,
        database: Database,
        group_by: Tuple[str, ...],
    ) -> Relation:
        plan = shape.plan
        mode = plan.count_mode
        if mode in FAST_COUNTING_MODES:
            program = _program(plan, query)
            rooted = None
            if program is not None:
                # The tree rooted at the group is kept with the shape, for
                # as long as the shape runs this program.
                group = frozenset(group_by)
                kept = shape.regrouped.get(group)
                if kept is not None and kept[0] is program:
                    rooted = kept[1]
                else:
                    rooted = group_tree(query, program, group_by)
                    if rooted is not None:
                        shape.regrouped[group] = (program, rooted)
            fast = self._counting.grouped_count(
                query, database, group_by, program=program, mode=mode, rooted=rooted
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
        shape, _, key = self._shape(lifted.query, lifted.database)
        plan = shape.plan
        if plan.program is None:
            return None
        root = len(lifted.query.atoms) - 1  # the parameter atom
        start = perf_counter()
        reduced = self._yannakakis.reduce_bottom_up(
            lifted.query,
            lifted.database,
            root=root,
            program=_program(plan, lifted.query),
        )
        decisions = lifted.decide_members(reduced)
        self._record(key, perf_counter() - start, None, lifted.query, lifted.database)
        return decisions

    # ------------------------------------------------------------------
    # Dispatch table
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        evaluator: str,
        plan: QueryPlan,
        query: ConjunctiveQuery,
        database: Database,
        decide: bool,
    ):
        # Cancellation check-point at dispatch: an expired deadline or an
        # already-abandoned request aborts before planning or evaluation
        # spends anything.
        check_cancelled()
        if evaluator == YANNAKAKIS:
            # Run the plan's program: a cache hit pays for no GYO
            # reduction, re-rooting or edge keys again.
            program = _program(plan, query)
            engine = self._yannakakis
            return (
                engine.decide(query, database, program=program)
                if decide
                else engine.evaluate(query, database, program=program)
            )
        # NAIVE, the other name of EVALUATORS.
        order = plan.join_order
        return (
            self._naive.decide(query, database, atom_order=order)
            if decide
            else self._naive.evaluate(query, database, atom_order=order)
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _record(
        self,
        key: Tuple,
        seconds: float,
        rows: Optional[int],
        query: ConjunctiveQuery,
        database: Database,
    ) -> None:
        """Count one execution of *key*'s shape; re-plan it when the table
        says *rows* drifted from the plan's estimate.

        The re-plan takes the observation as corrected statistics, so its
        estimate equals what the data said: a stable workload re-plans
        once and settles, and the table's per-entry budget stops a
        workload whose parameterizations genuinely oscillate (hub vs leaf
        constants under one shape) from re-planning on every request.
        When several threads see one drift, the table adopts the first
        re-plan and drops the rest.
        """
        stale = self._table.record(key, seconds, rows)
        if stale is None:
            return
        corrected = float(rows)
        plan = replace(
            self._planner.plan(query, database, observed_rows=corrected),
            replans=stale.replans + 1,
            corrected_rows=corrected,
        )
        self._table.replace(key, stale, plan)

    def stats(self) -> Dict[str, Any]:
        """Engine-wide totals, one row per tracked shape and the table's
        lookup counters: the ``engine`` section of the wire ``stats``
        document."""
        return self._table.stats()

    def clear_cache(self) -> None:
        self._table.clear()

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
