"""Differential counting properties (hypothesis): ``count(Q)`` equals
``len(execute(Q).rows)`` whatever the query shape or the layer — serial
engine, pooled engine (each pool mode), or over the wire — and grouped
counts equal the naive group-by over the materialized answers.

The fast modes never materialize the join, so this is the property that
keeps the annotated fold honest against the evaluation pipeline."""

import asyncio
import random

from hypothesis import given, settings, strategies as st

from repro import QueryEngine
from repro.evaluation import (
    CountingYannakakisEvaluator,
    NaiveEvaluator,
    grouped_count_reference,
)
from repro.evaluation.counting import FAST_COUNTING_MODES
from repro.protocol import AsyncQueryClient, QueryServer
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import Variable
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.workloads import (
    chain_database,
    cycle_query,
    random_acyclic_query,
    random_database,
)

SETTINGS = settings(max_examples=25, deadline=None)

# One engine per flavor for the whole module: plan caching across examples
# is exactly the production shape, and it keeps the property fast.
SERIAL = QueryEngine(parallel=False)
LIFTING = QueryEngine()


def acyclic_case(seed: int, head_arity: int):
    rng = random.Random(seed)
    query = random_acyclic_query(
        num_atoms=rng.randint(1, 4),
        max_arity=3,
        num_inequalities=0,
        seed=seed,
        head_arity=head_arity,
    )
    schema = DatabaseSchema(
        RelationSchema(atom.relation, atom.arity) for atom in query.atoms
    )
    database = random_database(schema, 5, 30, seed=seed)
    return query, database


class TestCountMatchesExecute:
    @SETTINGS
    @given(st.integers(0, 10_000), st.integers(0, 3))
    def test_acyclic_serial_and_pooled(self, seed, head_arity):
        query, database = acyclic_case(seed, head_arity)
        reference = NaiveEvaluator().evaluate(query, database).cardinality
        assert SERIAL.count(query, database) == reference
        assert LIFTING.count(query, database) == reference
        assert len(SERIAL.execute(query, database).rows) == reference

    @SETTINGS
    @given(st.integers(3, 5), st.integers(0, 500), st.booleans())
    def test_cyclic_counts_via_fallback(self, length, seed, with_head):
        base = cycle_query(length)
        query = (
            ConjunctiveQuery(
                (Variable("x0"),), list(base.atoms), head_name="CYC"
            )
            if with_head
            else base
        )
        database = chain_database(layers=4, width=4, p=0.6, seed=seed)
        reference = NaiveEvaluator().evaluate(query, database).cardinality
        assert SERIAL.count(query, database) == reference
        assert LIFTING.count(query, database) == reference

    @SETTINGS
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_fast_modes_agree_with_materialization(self, seed, head_arity):
        query, database = acyclic_case(seed, head_arity)
        plan = SERIAL.plan_for(query, database)
        if plan.count_mode not in FAST_COUNTING_MODES:
            return
        result = CountingYannakakisEvaluator().count(
            query, database, mode=plan.count_mode
        )
        assert result.total == NaiveEvaluator().evaluate(
            query, database
        ).cardinality


class TestEveryModeRunsTheProgram:
    """Whatever mode the engine picks for a generated acyclic query — the
    head drawn empty, as a random subset of the body's variables, or as all
    of them (``count-full``) — the count run over the shape's program is
    ``|execute|``, and so are the per-group counts summed."""

    @SETTINGS
    @given(st.integers(0, 10_000), st.sampled_from(("empty", "subset", "full")))
    def test_count_is_the_answer_size(self, seed, head):
        rng = random.Random(seed)
        base, database = acyclic_case(seed, head_arity=0)
        names = list(base.variables())
        rng.shuffle(names)
        if head == "subset":
            names = names[: rng.randint(1, len(names))]
        elif head == "empty":
            names = []
        query = ConjunctiveQuery(tuple(names), list(base.atoms), head_name="GEN")
        answers = SERIAL.execute(query, database)
        assert answers == NaiveEvaluator().evaluate(query, database)
        assert SERIAL.count(query, database) == answers.cardinality
        plan = SERIAL.plan_for(query, database)
        if plan.count_mode in FAST_COUNTING_MODES:
            result = CountingYannakakisEvaluator().count(
                query, database, program=plan.program, mode=plan.count_mode
            )
            assert result == (answers.cardinality, plan.count_mode)
        if names:
            group = tuple(v.name for v in names[: rng.randint(1, len(names))])
            grouped = SERIAL.grouped_count(query, database, group)
            assert grouped == grouped_count_reference(query, answers, group)
            assert sum(row[-1] for row in grouped) == answers.cardinality


class TestCoveredCountReadsTheRoot:
    """The covered count is read off the reduced covering atom: its
    cardinality when the head is all of its columns (in any order), a
    projection when the head is a strict subset of them."""

    @SETTINGS
    @given(st.integers(0, 10_000), st.booleans())
    def test_head_inside_one_atom(self, seed, whole_atom):
        rng = random.Random(seed)
        base, database = acyclic_case(seed, head_arity=0)
        columns = list(rng.choice(base.atoms).variables())
        rng.shuffle(columns)
        if not whole_atom:
            if len(columns) == 1:
                return
            columns = columns[: rng.randint(1, len(columns) - 1)]
        query = ConjunctiveQuery(tuple(columns), list(base.atoms), head_name="COV")
        assert SERIAL.plan_for(query, database).count_mode in FAST_COUNTING_MODES
        reference = NaiveEvaluator().evaluate(query, database).cardinality
        assert SERIAL.count(query, database) == reference
        assert len(SERIAL.execute(query, database).rows) == reference
        assert (
            CountingYannakakisEvaluator().count(query, database).total == reference
        )


class TestGroupedCountEquivalence:
    @SETTINGS
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_grouped_equals_naive_group_by(self, seed, head_arity):
        query, database = acyclic_case(seed, head_arity)
        head_names = []
        for term in query.head_terms:
            if isinstance(term, Variable) and term.name not in head_names:
                head_names.append(term.name)
        if not head_names:
            return
        group = tuple(head_names[:2])
        grouped = SERIAL.grouped_count(query, database, group)
        answers = NaiveEvaluator().evaluate(query, database)
        assert grouped == grouped_count_reference(query, answers, group)
        assert LIFTING.grouped_count(query, database, group) == grouped


class TestOverTheWire:
    def test_wire_counts_match_local(self):
        # A handful of seeds through one real TCP server: the remote
        # count/grouped_count equal the local serial engine's.
        cases = [acyclic_case(seed, head_arity=2) for seed in (1, 7, 23, 91)]
        databases = {f"db{i}": db for i, (_, db) in enumerate(cases)}

        async def main():
            results = []
            async with QueryServer(databases) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    for i, (query, _) in enumerate(cases):
                        results.append(
                            (
                                await client.count(query, f"db{i}"),
                                await client.execute(query, f"db{i}"),
                            )
                        )
            return results

        for (query, database), (count, executed) in zip(
            cases, asyncio.run(main())
        ):
            reference = NaiveEvaluator().evaluate(query, database)
            assert count == reference.cardinality
            assert executed == reference
