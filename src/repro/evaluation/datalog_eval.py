"""Bottom-up Datalog evaluation: naive and semi-naive fixpoints.

§4 of the paper analyzes exactly this algorithm: "use the ordinary
bottom-up evaluation algorithm for Datalog that applies repeatedly the
rules until a fixpoint is reached.  If the maximum arity is r, then every
IDB relation has at most n^r tuples and a fixpoint is reached in n^r
stages.  In each stage we need to compute for each rule a conjunctive query
with at most v variables."

Both engines delegate each rule application to a conjunctive-query
evaluation, so the W[1] membership argument (each stage = polynomially many
W[1] oracle calls) is directly visible in the code; the oracle-counting
variant lives in :mod:`repro.reductions.datalog_fixed_arity`.

Rule bodies are routed through the adaptive :class:`~repro.engine.QueryEngine`
by default: rule shapes repeat across fixpoint iterations (the
parameterized-query pattern), so every iteration after the first hits the
plan cache, acyclic rule bodies run through Yannakakis, and cyclic ones
get the cost-based join order — instead of every stage re-running uniform
backtracking.  The semi-naive fixpoint goes one
step further: each round's delta-instantiated rule bodies all see one
shared snapshot, so they are handed to the engine as ONE
``run_batch`` call and same-shape delta rules ride the N-wide batch
lifting.  Pass ``rule_engine=`` to pin the
legacy :class:`NaiveEvaluator` (``benchmarks/bench_datalog.py`` does, to
isolate the fixpoint strategies and the §4 per-stage bound).  Reuse one
evaluator across programs to keep its plan cache warm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..errors import QueryError
from ..operations import EXECUTE, operations_of
from ..query.atoms import Atom
from ..query.conjunctive import ConjunctiveQuery
from ..query.datalog import DatalogProgram, Rule
from ..relational.database import Database
from ..relational.relation import Relation
from ..relational.schema import RelationSchema
from .naive import NaiveEvaluator


class DatalogEvaluator:
    """Naive and semi-naive bottom-up fixpoint computation.

    Parameters
    ----------
    rule_engine:
        Optional evaluator for the per-rule conjunctive queries.  A
        :class:`NaiveEvaluator` (legacy behavior), a
        :class:`~repro.engine.QueryEngine`, or anything exposing their
        evaluation signature.  Defaults to a fresh adaptive
        :class:`~repro.engine.QueryEngine` so repeated rule shapes hit the
        plan cache across iterations.
    """

    def __init__(
        self, rule_engine: Optional[Union[NaiveEvaluator, "object"]] = None
    ) -> None:
        if rule_engine is None:
            # Local import: repro.engine itself evaluates through this
            # package, so the dependency must stay call-time.
            from ..engine import QueryEngine

            rule_engine = QueryEngine()
        self._engine = rule_engine
        self._evaluate_body = getattr(
            rule_engine, "execute", None
        ) or rule_engine.evaluate
        # The N-wide batch entry point is *required*: the semi-naive
        # fixpoint hands every round's rule-body queries over in ONE call,
        # so same-shape delta rules ride the engine's batch lifting —
        # always through the generic operation API (``run_batch`` over
        # EXECUTE operations).  Feature-detecting it with a silent
        # sequential fallback (the pre-operation-API legacy) would mask a
        # misconfigured rule engine; both supported engines
        # (:class:`~repro.engine.QueryEngine`, :class:`NaiveEvaluator`)
        # provide it, so anything without one is a wiring error.
        run_batch = getattr(rule_engine, "run_batch", None)
        if run_batch is None:
            raise QueryError(
                f"rule_engine {type(rule_engine).__name__} has no run_batch; "
                "the fixpoint requires the generic operation API "
                "(QueryEngine and NaiveEvaluator both provide it)"
            )
        self._evaluate_batch = lambda queries, database: run_batch(
            operations_of(EXECUTE, queries), database
        )

    @property
    def rule_engine(self):
        """The engine evaluating rule-body conjunctive queries."""
        return self._engine

    # ------------------------------------------------------------------

    def evaluate(
        self, program: DatalogProgram, database: Database, method: str = "seminaive"
    ) -> Relation:
        """The goal relation at the least fixpoint."""
        idbs = self.fixpoint(program, database, method=method)
        return idbs[program.goal]

    def decide(
        self, program: DatalogProgram, database: Database, method: str = "seminaive"
    ) -> bool:
        """Is the goal relation nonempty at the fixpoint?"""
        return not self.evaluate(program, database, method=method).is_empty()

    def fixpoint(
        self, program: DatalogProgram, database: Database, method: str = "seminaive"
    ) -> Dict[str, Relation]:
        """All IDB relations at the least fixpoint."""
        if method == "naive":
            return self._naive(program, database)
        if method == "seminaive":
            return self._seminaive(program, database)
        raise QueryError(f"unknown Datalog method {method!r}")

    # ------------------------------------------------------------------

    def _initial_idbs(self, program: DatalogProgram) -> Dict[str, Relation]:
        out: Dict[str, Relation] = {}
        for name in program.idb_names():
            arity = program.arity(name)
            schema = RelationSchema(name, arity)
            out[name] = Relation.from_rows(schema.default_attributes())
        return out

    @staticmethod
    def _with_idbs(database: Database, idbs: Dict[str, Relation]) -> Database:
        merged = database.relations()
        merged.update(idbs)
        return Database(merged)

    @staticmethod
    def _rule_query(rule: Rule) -> ConjunctiveQuery:
        """The body CQ of *rule*, headed by the rule's head terms."""
        return ConjunctiveQuery(
            rule.head.terms, rule.body, head_name=rule.head.relation
        )

    @staticmethod
    def _rehead(rule: Rule, derived: Relation) -> Relation:
        """Project a body result onto the head relation's schema.

        Same rows, new column names: reuse the frozen row set (and its
        cached indexes) instead of re-validating every tuple.
        """
        schema = RelationSchema(rule.head.relation, rule.head.arity)
        return derived._renamed(schema.default_attributes())

    def _apply_rule(self, rule: Rule, database: Database) -> Relation:
        """One rule application: evaluate the body CQ, project to the head."""
        return self._rehead(rule, self._evaluate_body(self._rule_query(rule), database))

    def _evaluate_bodies(
        self, queries: Sequence[ConjunctiveQuery], database: Database
    ) -> List[Relation]:
        """Evaluate one round's rule bodies, batched past one query.

        All queries see the SAME database snapshot (the fixpoint rounds
        are constructed that way), so handing them to ``run_batch``
        is semantics-preserving and lets the engine group same-shape
        members under one plan and lift them N-wide.
        """
        if len(queries) > 1:
            return list(self._evaluate_batch(list(queries), database))
        return [self._evaluate_body(query, database) for query in queries]

    def _naive(
        self, program: DatalogProgram, database: Database
    ) -> Dict[str, Relation]:
        idbs = self._initial_idbs(program)
        while True:
            current = self._with_idbs(database, idbs)
            changed = False
            new_idbs = dict(idbs)
            for rule in program.rules:
                derived = self._apply_rule(rule, current)
                merged = new_idbs[rule.head.relation].union(derived)
                if merged.cardinality != new_idbs[rule.head.relation].cardinality:
                    new_idbs[rule.head.relation] = merged
                    changed = True
            idbs = new_idbs
            if not changed:
                return idbs

    def _seminaive(
        self, program: DatalogProgram, database: Database
    ) -> Dict[str, Relation]:
        """Delta-driven evaluation: re-derive only from last-round facts.

        For each rule and each body position holding an IDB relation, one
        delta rule evaluates the body with that occurrence restricted to the
        last round's new tuples.  First round: plain naive application.
        """
        idbs = self._initial_idbs(program)
        current = self._with_idbs(database, idbs)
        # First round: plain naive application of every rule against the
        # empty IDBs — all bodies share one snapshot, so they go to the
        # engine as ONE batch.
        derived_all = self._evaluate_bodies(
            [self._rule_query(rule) for rule in program.rules], current
        )
        deltas: Dict[str, Relation] = {}
        for rule, derived in zip(program.rules, derived_all):
            derived = self._rehead(rule, derived)
            name = rule.head.relation
            fresh = derived.difference(idbs[name])
            idbs[name] = idbs[name].union(fresh)
            deltas[name] = deltas.get(name, fresh).union(fresh)

        idb_names = program.idb_names()
        while any(not d.is_empty() for d in deltas.values()):
            next_deltas: Dict[str, Relation] = {
                name: Relation.from_rows(idbs[name].attributes) for name in idb_names
            }
            snapshot = self._with_idbs(database, idbs)
            # ONE patched snapshot carrying every delta marker: each delta
            # rule references only its own ``__delta_*`` relation, so
            # sharing the database is semantics-preserving — and it is
            # what lets the engine's batch grouping (whose plan key spans
            # the database) lift same-shape delta bodies together.
            patched = snapshot
            for delta_name, delta in deltas.items():
                if not delta.is_empty():
                    patched = patched.with_relation(f"__delta_{delta_name}", delta)
            # Collect the round's delta-instantiated rule bodies: for each
            # rule and each body position holding an IDB with new tuples,
            # that occurrence is rebound to the delta via its marker name.
            pending: List[Rule] = []
            queries: List[ConjunctiveQuery] = []
            for rule in program.rules:
                for position, atom in enumerate(rule.body):
                    if atom.relation not in idb_names:
                        continue
                    delta = deltas.get(atom.relation)
                    if delta is None or delta.is_empty():
                        continue
                    renamed_body = list(rule.body)
                    renamed_body[position] = Atom(
                        f"__delta_{atom.relation}", atom.terms
                    )
                    pending.append(rule)
                    queries.append(
                        ConjunctiveQuery(
                            rule.head.terms,
                            renamed_body,
                            head_name=rule.head.relation,
                        )
                    )
            for rule, derived in zip(
                pending, self._evaluate_bodies(queries, patched)
            ):
                name = rule.head.relation
                schema_rel = derived._renamed(idbs[name].attributes)
                fresh = schema_rel.difference(idbs[name])
                if not fresh.is_empty():
                    next_deltas[name] = next_deltas[name].union(fresh)
            for name, fresh in next_deltas.items():
                idbs[name] = idbs[name].union(fresh)
            deltas = next_deltas
        return idbs
