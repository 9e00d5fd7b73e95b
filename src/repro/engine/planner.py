"""The structural planner: analysis + cost model → :class:`QueryPlan`.

Dispatch is *structure first, cost second*: the analyzer decides which
tractable class the query falls into (hence which evaluators are sound and
carry a complexity guarantee), and a cardinality-based cost model arbitrates
between the class evaluator and the generic baseline — the baseline's lower
constant factors win on tiny inputs, the guaranteed engine wins as data
grows.

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

from ..evaluation.yannakakis import AcyclicProgram, acyclic_program
from ..hypergraph.join_tree import JoinTree
from ..query.atoms import Atom
from ..query.conjunctive import ConjunctiveQuery
from ..query.terms import Constant, Variable
from ..relational.database import Database
from ..relational.relation import Relation
from .analysis import (
    ACYCLIC,
    ACYCLIC_NEQ,
    BOUNDED_TREEWIDTH,
    BOUNDED_VARIABLES,
    StructuralAnalysis,
    analyze,
    counting_mode,
)
from .plan import (
    BOUNDED_VARIABLE,
    INEQUALITY,
    NAIVE,
    QueryPlan,
    TREEWIDTH,
    YANNAKAKIS,
)

#: Per-row constant factor of the semijoin/join passes relative to one
#: backtracking probe (hash build + probe + row assembly vs a dict lookup).
#: A constant: the plan is a function of the query's shape and the
#: database's row counts, never of how fast earlier requests happened to run.
_PASS_WEIGHT = 1.5

#: The class evaluator is preferred unless the baseline's estimate is this
#: many times cheaper — structural guarantees beat small modelled margins —
#: and the routes without such a guarantee (Theorem 2's engine, the bag
#: joins) displace the baseline only when *they* are this many times cheaper.
_BASELINE_MARGIN = 4.0


#: Per candidate row of a route that walks all of its tree bottom-up,
#: top-down and join-project: Theorem 2's engine (per hash function) and
#: the bag tree of the treewidth route.
_FULL_REDUCER_WEIGHT = 3 * _PASS_WEIGHT


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
        steps: Tuple[str, ...] = ()

        if structural_class == ACYCLIC:
            program = acyclic_program(query, analysis.join_tree)
            costs[YANNAKAKIS], charged[YANNAKAKIS] = self._acyclic_cost(
                program, query, database, answer_estimate
            )
            evaluator = self._arbitrate(YANNAKAKIS, costs)
            steps = program.steps()
        elif structural_class == ACYCLIC_NEQ:
            costs[INEQUALITY] = self._inequality_cost(query, database, answer_estimate)
            evaluator = self._displace(INEQUALITY, costs)
            # Theorem 2's engine keeps the tree as GYO rooted it and walks
            # all of it, once per hash function.
            steps = self._bottom_up_steps(query, analysis.join_tree) + (
                "per hash function: every edge again top-down, "
                "then join-project onto the head",
            )
        elif structural_class == BOUNDED_TREEWIDTH:
            costs[TREEWIDTH], steps = self._treewidth_cost(query, database, analysis)
            evaluator = self._displace(TREEWIDTH, costs)
        elif structural_class == BOUNDED_VARIABLES:
            costs[BOUNDED_VARIABLE] = self._grouped_cost(query, database)
            evaluator = self._arbitrate(BOUNDED_VARIABLE, costs)

        return QueryPlan(
            evaluator=evaluator,
            analysis=analysis,
            join_order=join_order,
            program=program,
            semijoin_program=steps,
            cost_estimates=costs,
            charged=charged,
            estimated_rows=answer_estimate,
            count_mode=counting_mode(query, structural_class),
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

    def _inequality_cost(
        self,
        query: ConjunctiveQuery,
        database: Database,
        answer_estimate: float,
    ) -> float:
        trials = float(2 ** min(len(query.inequalities), 16))
        rows = sum(self._sizes(query, database))
        return trials * (_FULL_REDUCER_WEIGHT * rows + answer_estimate)

    def _treewidth_cost(
        self,
        query: ConjunctiveQuery,
        database: Database,
        analysis: StructuralAnalysis,
    ) -> Tuple[float, Tuple[str, ...]]:
        """Bag-materialization + acyclic-pipeline estimate, and the bag
        program for ``explain`` (mirrors TreewidthEvaluator's assignment)."""
        decomposition = analysis.decomposition
        assert decomposition is not None
        assigned: Dict[int, List[int]] = {
            i: [] for i in range(len(decomposition.bags))
        }
        for atom_index, atom in enumerate(query.atoms):
            names = frozenset(v.name for v in atom.variables())
            for i, bag in enumerate(decomposition.bags):
                if names <= {v.name for v in bag}:
                    assigned[i].append(atom_index)
                    break

        cost = 0.0
        bag_sizes: List[float] = []
        program: List[str] = []
        for i, bag in enumerate(decomposition.bags):
            members = assigned[i]
            if not members:
                bag_sizes.append(1.0)
                continue
            sub_order, bag_cost, frontier = self._walk(
                [query.atoms[j] for j in members], database
            )
            cost += bag_cost
            bag_sizes.append(frontier)
            atoms_text = ", ".join(
                f"a{members[local]}({query.atoms[members[local]].relation})"
                for local in sub_order
            )
            bag_vars = ",".join(sorted(v.name for v in bag))
            program.append(f"materialize BAG_{i}[{bag_vars}] = ⋈ {atoms_text}")
        program.append("run Yannakakis full reducer + join-project over the bag tree")
        cost += _FULL_REDUCER_WEIGHT * sum(bag_sizes)
        return cost, tuple(program)

    def _grouped_cost(self, query: ConjunctiveQuery, database: Database) -> float:
        """Theorem 1 parameter-v grouping: intersection build + search over
        one representative atom per distinct variable set."""
        groups: Dict[frozenset, List[Atom]] = {}
        for atom in query.atoms:
            groups.setdefault(atom.variable_set(), []).append(atom)
        build = sum(self._sizes(query, database))
        representatives = [
            min(
                atoms,
                key=lambda a: database[a.relation].cardinality,
            )
            for atoms in groups.values()
        ]
        _, search, _ = self._walk(representatives, database)
        return build + search

    # ------------------------------------------------------------------

    @staticmethod
    def _arbitrate(preferred: str, costs: Dict[str, float]) -> str:
        """The class evaluator, unless the baseline is ≥ margin× cheaper."""
        baseline_wins = costs[NAIVE] * _BASELINE_MARGIN < costs[preferred]
        return NAIVE if baseline_wins else preferred

    @staticmethod
    def _displace(route: str, costs: Dict[str, float]) -> str:
        """*route*, if it is the margin cheaper than the baseline: a route
        without a guarantee to defer to (Theorem 2's hash-family factor is
        exponential in k, bag joins n^O(w) as the search is n^O(q)) must
        prove itself — a 5 % modelled gap once sent a 10 ms search onto a
        140 ms colour-coding run (tests/test_engine_replan.py)."""
        return route if costs[route] * _BASELINE_MARGIN < costs[NAIVE] else NAIVE

    @staticmethod
    def _bottom_up_steps(query: ConjunctiveQuery, tree: JoinTree) -> Tuple[str, ...]:
        """One ``parent ⋉ child`` line per edge of *tree*, leaves first."""
        atoms = query.atoms
        return tuple(
            f"a{parent}({atoms[parent].relation}) ⋉ a{node}({atoms[node].relation})"
            for node in tree.bottom_up_order()
            if (parent := tree.parent(node)) is not None
        )
