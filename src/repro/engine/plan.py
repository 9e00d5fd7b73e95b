"""The :class:`QueryPlan` value object and its ``explain`` rendering.

A plan is everything the executor needs that does *not* depend on the
constant bindings of the query: the structural analysis, the chosen
evaluator, the join order for the backtracking engine, the acyclic route's
program (:class:`~repro.evaluation.yannakakis.AcyclicProgram` — the one
object the planner prices, ``explain`` prints and the evaluator runs), and
the cost model's per-candidate estimates with what each was charged for
(kept for transparency — ``explain`` shows why the planner chose what it
chose).

A plan is a value: what the data said about it — execution counts and
observed cardinalities — lives in the engine's shape table
(:mod:`repro.engine.cache`), and ``explain`` is handed those actuals to
show beside the estimates.  When estimate and actual drift far enough
apart the engine *re-plans* the shape with the observed cardinality as
corrected statistics; the re-planned plan records its provenance in
``replans`` / ``corrected_rows``, which ``explain`` renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..evaluation.yannakakis import AcyclicProgram
from .analysis import StructuralAnalysis


#: Evaluator identifiers the engine can dispatch to: the acyclic route and
#: the generated search every other shape runs.  The class evaluators of the
#: paper's other islands (treewidth, Theorem 2, parameter v) stay library
#: evaluators: none of them beat the search on a measured leaf.
NAIVE = "naive"
YANNAKAKIS = "yannakakis"

EVALUATORS = (NAIVE, YANNAKAKIS)

#: Why each evaluator is sound for the class it serves (shown by explain).
_RATIONALE = {
    YANNAKAKIS: (
        "acyclic CQs evaluate in time polynomial in |d| + |Q(d)| "
        "(combined complexity; paper §5, Yannakakis [18])"
    ),
    NAIVE: (
        "generic backtracking baseline, n^O(q) combined complexity "
        "(paper §4; data complexity stays polynomial)"
    ),
}


@dataclass(frozen=True)
class QueryPlan:
    """An immutable, binding-independent execution plan for one query shape.

    Attributes
    ----------
    evaluator:
        One of :data:`EVALUATORS` — which engine executes the query.
    analysis:
        The structural analysis that justified the choice.
    join_order:
        Atom indices in probe order for the backtracking engine (present
        for every plan; the naive fallback and forced-naive execution use
        it, cost estimation derives from it).
    program:
        The acyclic route's program, built once per shape (acyclic plans
        only): the evaluator runs it whenever the query's variable layout
        is the plan's.
    semijoin_program:
        The acyclic program's schedule, one line per step
        (``AcyclicProgram.steps``; empty on the search).
    cost_estimates:
        Abstract row-operation counts per candidate evaluator, from the
        planner's cost model.
    charged:
        Per candidate evaluator, what its estimate charges for (the acyclic
        route's edges and read-off, the baseline's full enumeration or
        search to a first witness).
    estimated_rows:
        The cost model's satisfying-assignment estimate, compared against
        actual cardinalities in ``explain``.
    count_mode:
        The Chen–Mengel counting classification of the shape (one of
        :data:`repro.engine.analysis.COUNTING_MODES`) — which counting
        strategy a ``count`` operation on this plan uses.  Always set by
        :meth:`~repro.engine.planner.Planner.plan`.
    replans:
        How many times this shape had been adaptively re-planned when this
        plan was made (0 for a first plan); the engine sets it when
        estimate-vs-actual drift crosses its threshold and the shape is
        planned again.
    corrected_rows:
        The observed cardinality the last re-plan used as corrected
        statistics (None for a first plan).
    """

    evaluator: str
    analysis: StructuralAnalysis
    join_order: Tuple[int, ...]
    program: Optional[AcyclicProgram] = None
    semijoin_program: Tuple[str, ...] = ()
    cost_estimates: Dict[str, float] = field(default_factory=dict)
    charged: Dict[str, str] = field(default_factory=dict)
    estimated_rows: float = 0.0
    count_mode: str = ""
    replans: int = 0
    corrected_rows: Optional[float] = None

    @property
    def structural_class(self) -> str:
        return self.analysis.structural_class

    def rationale(self) -> str:
        return _RATIONALE.get(self.evaluator, "")

    def explain(
        self,
        cache_status: Optional[str] = None,
        executions: int = 0,
        last_rows: Optional[int] = None,
    ) -> str:
        """Multi-line description: analysis, dispatch, costs, program.

        *executions* and *last_rows* are the shape's actuals (from the
        engine's shape table), shown against the estimate when non-zero.
        """
        lines = [f"QueryPlan  [class: {self.structural_class}]"]
        if cache_status:
            lines[0] += f"  (plan cache: {cache_status})"
        lines.append(f"  analysis : {self.analysis.summary()}")
        lines.append(f"  evaluator: {self.evaluator} — {self.rationale()}")
        if self.cost_estimates:
            costs = ", ".join(
                f"{name}≈{estimate:.3g} row ops"
                for name, estimate in sorted(self.cost_estimates.items())
            )
            lines.append(f"  costs    : {costs}")
        for name, terms in sorted(self.charged.items()):
            lines.append(f"  charged  : {name}: {terms}")
        if self.count_mode:
            lines.append(f"  counting : {self.count_mode}")
        if self.replans:
            lines.append(
                f"  re-plan  : #{self.replans}, statistics corrected to "
                f"observed |Q(d)|≈{self.corrected_rows:.3g} after "
                "estimate-vs-actual drift"
            )
        if executions:
            actual = (
                f"last |Q(d)|={last_rows}"
                if last_rows is not None
                else "decision-only runs"
            )
            lines.append(
                f"  actuals  : {actual} vs est≈{self.estimated_rows:.3g} "
                f"({executions} execution(s) recorded)"
            )
        lines.append("  join ord.: " + " -> ".join(f"a{i}" for i in self.join_order))
        if self.semijoin_program:
            lines.append("  program  :")
            for step, text in enumerate(self.semijoin_program, start=1):
                lines.append(f"    {step}. {text}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"QueryPlan(evaluator={self.evaluator!r}, "
            f"class={self.structural_class!r}, join_order={self.join_order!r})"
        )
