"""The structural planner: analysis + cost model → :class:`QueryPlan`.

Dispatch is *structure first, cost second*: the analyzer decides which
tractable class the query falls into, and for the one class with a route
of its own — acyclic queries, Yannakakis's program — a cardinality-based
cost model arbitrates between that route and the generic search (the
search's lower constant factors win on tiny inputs, the guaranteed engine
wins as data grows).  Every other class runs the generated search in the
planner's join order: the class evaluators of the other islands (bag joins
over a tree decomposition, Theorem 2's colour coding, Theorem 1's
parameter-v grouping) beat it on no measured leaf, and stay library
evaluators.

The cost model measures everything in abstract *row operations* and reads
its statistics straight from the PR 1 kernel: relation cardinalities, and
per-column distinct counts taken from the relations' cached single-position
hash indexes (``Relation._index``), so statistics gathered at plan time are
the very indexes the backtracking executor probes later — planning warms
the caches it plans for.

Each route is charged for what it runs (``QueryPlan.charged`` says what):
the acyclic route's :class:`~repro.evaluation.yannakakis.AcyclicProgram`,
built here once per shape and carried on the plan, by the edges it walks;
the search by the planner's one walk, a boolean one to its first witness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..evaluation.counting import counting_mode
from ..evaluation.yannakakis import AcyclicProgram, acyclic_program
from ..query.atoms import Atom
from ..query.conjunctive import ConjunctiveQuery
from ..query.terms import Constant, Variable
from ..relational.database import Database
from ..relational.relation import Relation
from .analysis import ACYCLIC, analyze
from .plan import NAIVE, YANNAKAKIS, QueryPlan

#: Per-row constant factor of the semijoin/join passes relative to one
#: backtracking probe (hash build + probe + row assembly vs a dict lookup).
#: A constant: the plan is a function of the query's shape and the
#: database's row counts, never of how fast earlier requests happened to run.
_PASS_WEIGHT = 1.5

#: The acyclic route is preferred unless the baseline's estimate is this
#: many times cheaper — a structural guarantee beats a small modelled margin.
_BASELINE_MARGIN = 4.0


class Planner:
    """Turns (query, database) into an explainable :class:`QueryPlan`."""

    def plan(
        self,
        query: ConjunctiveQuery,
        database: Database,
        observed_rows: Optional[float] = None,
    ) -> QueryPlan:
        """The plan for (query, database).

        *observed_rows*, when given, is an actually observed result
        cardinality for this shape (drift-triggered re-planning): it
        replaces the simulated satisfying-assignment estimate everywhere
        the cost model consumes one, so evaluator arbitration re-runs
        against what the data said rather than what the histogram-free
        model guessed.
        """
        analysis = analyze(query)
        structural_class = analysis.structural_class
        join_order, naive_cost, answer_estimate = self._walk(query.atoms, database)
        charged = {NAIVE: "full enumeration"}
        # A boolean search stops at its first witness (spread evenly: one
        # frontier-th of the walk, a row per atom), unless one was seen empty
        # — not against the acyclic route, whose decide runs it too.
        boolean = not query.head_variables() and structural_class != ACYCLIC
        if boolean and answer_estimate >= 1.0 and observed_rows != 0:
            naive_cost = max(naive_cost / answer_estimate, float(len(query.atoms)))
            charged[NAIVE] = "to first witness"
        if observed_rows is not None:
            # Backtracking enumerates at least one search node per result,
            # so an exploded observed cardinality scales the baseline's
            # cost estimate up along with the output term.  The correction
            # is asymmetric: a *collapsed* cardinality does not scale the
            # baseline down — few results still mean exploring the dead
            # branches — while the output-sensitive evaluators (whose cost
            # genuinely is input + output) pick the saving up through the
            # corrected answer estimate.
            ratio = max(observed_rows, 1.0) / max(answer_estimate, 1.0)
            if ratio > 1.0:
                naive_cost *= ratio
            answer_estimate = observed_rows
        costs: Dict[str, float] = {NAIVE: naive_cost}

        evaluator = NAIVE
        program: Optional[AcyclicProgram] = None
        if structural_class == ACYCLIC:
            program = acyclic_program(query, analysis.join_tree)
            costs[YANNAKAKIS], charged[YANNAKAKIS] = self._acyclic_cost(
                program, query, database, answer_estimate
            )
            if costs[NAIVE] * _BASELINE_MARGIN >= costs[YANNAKAKIS]:
                evaluator = YANNAKAKIS

        return QueryPlan(
            evaluator=evaluator,
            analysis=analysis,
            join_order=join_order,
            program=program,
            cost_estimates=costs,
            charged=charged,
            estimated_rows=answer_estimate,
            count_mode=counting_mode(query, structural_class == ACYCLIC),
        )

    # ------------------------------------------------------------------
    # Statistics (from the kernel's cached indexes)
    # ------------------------------------------------------------------

    @staticmethod
    def _distinct(relation: Relation, position: int) -> int:
        """Distinct values in one column — the bucket count of the cached
        single-position index (built here if absent, reused by execution)."""
        if relation.cardinality == 0:
            return 1
        return max(1, len(relation._index((position,))))

    def _candidate_cardinality(self, atom: Atom, relation: Relation) -> float:
        """Estimated |S_j| = |π_U σ_F (R)| after constant/equality selection."""
        estimate = float(relation.cardinality)
        seen: Dict[Variable, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                estimate /= self._distinct(relation, position)
            elif term in seen:
                estimate /= self._distinct(relation, position)
            else:
                seen[term] = position
        return max(estimate, 1e-3)

    # ------------------------------------------------------------------
    # Backtracking simulation (join order + cost + output estimate)
    # ------------------------------------------------------------------

    def _walk(
        self, atoms: Sequence[Atom], database: Database
    ) -> Tuple[Tuple[int, ...], float, float]:
        """(join order, cost in row ops, estimated satisfying-assignment
        count) of backtracking over *atoms*.

        The order is greedy: repeatedly take the atom with the fewest
        expected matches per probe given the variables bound so far, and
        charge it at the frontier the atoms before it leave.  Connectivity
        falls out of the estimate — an atom sharing bound variables probes
        a keyed index (few matches), a disconnected atom scans its whole
        candidate set — so cartesian blowups are picked last, constants
        and selective columns first.
        """
        relations = [database[atom.relation] for atom in atoms]
        remaining = list(range(len(atoms)))
        bound: Set[Variable] = set()
        order: List[int] = []
        cost = 0.0
        frontier = 1.0
        while remaining:
            matches, best = min(
                (self._expected_matches(atoms[i], relations[i], bound), i)
                for i in remaining
            )
            remaining.remove(best)
            order.append(best)
            cost += frontier * (1.0 + matches)
            frontier = max(frontier * matches, 1e-3)
            bound |= set(atoms[best].variables())
        return tuple(order), cost, frontier

    def _expected_matches(
        self, atom: Atom, relation: Relation, bound: Set[Variable]
    ) -> float:
        """Expected rows per index probe of *atom* given *bound* variables."""
        keyed = 1.0
        seen: Dict[Variable, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                keyed *= self._distinct(relation, position)
            elif term in bound or term in seen:
                keyed *= self._distinct(relation, position)
            else:
                seen[term] = position
        cardinality = max(float(relation.cardinality), 1e-3)
        keyed = min(keyed, cardinality)
        return cardinality / keyed

    # ------------------------------------------------------------------
    # Per-evaluator cost estimates
    # ------------------------------------------------------------------

    def _sizes(self, query: ConjunctiveQuery, database: Database) -> List[float]:
        """Estimated |S_j| per atom."""
        return [
            self._candidate_cardinality(atom, database[atom.relation])
            for atom in query.atoms
        ]

    def _acyclic_cost(
        self,
        program: AcyclicProgram,
        query: ConjunctiveQuery,
        database: Database,
        answer_estimate: float,
    ) -> Tuple[float, str]:
        """What *program* runs, and a line saying so: every edge bottom-up,
        the top-down edges again, each carrying edge joined, and the
        read-off — the root's survivors, or the joined answer when an edge
        carries."""
        rows = self._sizes(query, database)

        def walked(edges) -> float:
            return _PASS_WEIGHT * sum(rows[e.child] + rows[e.parent] for e in edges)

        upward = walked(program.edges)
        carrying = walked(program.top_down) + walked(program.carrying)
        read_off = answer_estimate if program.carrying else rows[program.tree.root]
        read_off = min(answer_estimate, read_off)
        charged = (
            f"{len(program.edges)} edge(s) bottom-up ≈{upward:.3g}, "
            f"{len(program.carrying)} carrying edge(s), "
            f"{len(program.top_down)} top-down ≈{carrying:.3g}, "
            f"read-off ≈{read_off:.3g} row(s)"
        )
        return upward + carrying + read_off, charged
