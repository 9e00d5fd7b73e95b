"""The differential SQL oracle: engine vs sqlite3 backend on random inputs.

The strongest correctness oracle the repo has: Hypothesis generates random
acyclic/cyclic queries and mixed-type databases, runs every
(query, database) pair through the adaptive native engine AND the sqlite3
pushdown backend, and compares canonicalized answer sets across the three
pushdown channels (execute / decide / count).  Backend tables hold value-
pool codes, so agreement here proves the pool's equality semantics
(``1 == True == 1.0`` collapse, NaN identity, ``None`` as a value) survive
a round trip through an independent SQL engine — and that the native
evaluators compute the same answers an independent join implementation
does.

Canonicalization (``docs/backends.md``): backend rows decode pool codes to
pool *representatives*; native rows carry original value objects.  The two
always compare ``==``; :func:`~repro.backends.canonical_rows` maps both
onto the representative spelling so the comparison is identity-strength.

Every divergence found during development is pinned as a deterministic
seed-corpus test in :class:`TestSeedCorpus` — plus the mixed-type and NaN
edge cases the value-pool docs call out, which are exactly where a
raw-value SQL encoding would diverge (``NULL ≠ NULL``, NaN → NULL,
``1.0 == 1`` vs sqlite's type affinity).

Budget: each property runs ``REPRO_DIFF_EXAMPLES`` examples (default 40;
CI runs a dedicated leg at 120, totalling ≥ 500 generated pairs per run
across the five properties), and every pair is compared on all three
channels.
"""

import math
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, QueryEngine, Relation, SqliteBackend
from repro.backends import canonical_rows
from repro.errors import QueryError
from repro.query.atoms import Atom, Inequality
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import C, V
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.workloads import (
    chain_database,
    cycle_query,
    random_acyclic_query,
    random_database,
)

EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "40"))
SETTINGS = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

# Shared for the whole module: warm plan/table caches are the production
# shape, and the backend's loaded tables are evicted as databases die.
ENGINE = QueryEngine()
BACKEND = SqliteBackend()

#: One NaN *object*: pool semantics are identity-then-equality, so the
#: same object must be used database- and query-side to mean "this NaN".
NAN = float("nan")

#: Mixed-type domain exercising every equality pitfall at once: bool/int/
#: float collapse, numeric strings vs numbers, empty string, negative
#: zero (== 0), None as a value, a composite value, and NaN.
MIXED_VALUES = (0, 1, True, 1.0, 2, -1, 7.5, "1", "a", "", -0.0, None, (1, 2), NAN)


def assert_agree(query, database):
    """Engine and backend agree on execute/decide/count for this pair."""
    expected = ENGINE.execute(query, database)
    actual = BACKEND.execute(query, database)
    assert actual.attributes == expected.attributes
    # Value equality first (the pool invariant makes the raw frozensets
    # compare equal), then identity-strength canonical spelling.
    assert actual.rows == expected.rows
    assert canonical_rows(actual.rows) == canonical_rows(expected.rows)
    assert BACKEND.decide(query, database) == ENGINE.decide(query, database)
    count = BACKEND.count(query, database)
    assert count == ENGINE.count(query, database)
    assert count == expected.cardinality
    return expected


# ----------------------------------------------------------------------
# Generator-driven properties (structured workloads)
# ----------------------------------------------------------------------


def acyclic_case(seed: int, head_arity: int, inequalities: int = 0):
    rng = random.Random(seed)
    query = random_acyclic_query(
        num_atoms=rng.randint(1, 4),
        max_arity=3,
        num_inequalities=inequalities,
        seed=seed,
        head_arity=head_arity,
    )
    schema = DatabaseSchema(
        RelationSchema(atom.relation, atom.arity) for atom in query.atoms
    )
    return query, random_database(schema, 5, 30, seed=seed)


class TestGeneratedWorkloads:
    @SETTINGS
    @given(st.integers(0, 10_000), st.integers(0, 3))
    def test_random_acyclic(self, seed, head_arity):
        assert_agree(*acyclic_case(seed, head_arity))

    @SETTINGS
    @given(st.integers(0, 10_000), st.integers(0, 2), st.integers(1, 3))
    def test_random_acyclic_with_inequalities(self, seed, head_arity, ineqs):
        assert_agree(*acyclic_case(seed, head_arity, inequalities=ineqs))

    @SETTINGS
    @given(st.integers(2, 4), st.integers(0, 1_000))
    def test_cyclic_on_chain_graphs(self, length, seed):
        query = cycle_query(length)
        database = chain_database(4, 5, 0.4, seed=seed)
        assert_agree(query, database)


# ----------------------------------------------------------------------
# Fully random mixed-type pairs (the bug-hunt strategy)
# ----------------------------------------------------------------------

_mixed_value = st.sampled_from(MIXED_VALUES)


@st.composite
def mixed_pairs(draw):
    """A random (query, database) pair over mixed-type relations.

    Queries may be cyclic (atoms share variables freely), boolean-headed,
    constant-headed, self-joining, and inequality-bearing — everything
    inside the pushdown fragment.
    """
    relation_count = draw(st.integers(1, 3))
    arities = [draw(st.integers(1, 3)) for _ in range(relation_count)]
    names = [f"R{i}" for i in range(relation_count)]
    relations = {}
    for name, arity in zip(names, arities):
        row_count = draw(st.integers(0, 8))
        rows = [
            tuple(draw(_mixed_value) for _ in range(arity))
            for _ in range(row_count)
        ]
        relations[name] = Relation.from_rows(
            tuple(f"c{k}" for k in range(arity)), rows
        )
    database = Database(relations)

    variables = [V(f"v{k}") for k in range(4)]
    atom_count = draw(st.integers(1, 3))
    atoms = []
    for _ in range(atom_count):
        which = draw(st.integers(0, relation_count - 1))
        terms = tuple(
            draw(st.one_of(st.sampled_from(variables), _mixed_value.map(C)))
            for _ in range(arities[which])
        )
        atoms.append(Atom(names[which], terms))

    body_vars = sorted(
        {v for atom in atoms for v in atom.variables()}, key=lambda v: v.name
    )
    head = (
        tuple(draw(st.lists(st.sampled_from(body_vars), max_size=3)))
        if body_vars
        else ()
    )
    inequalities = []
    for _ in range(draw(st.integers(0, 2)) if body_vars else 0):
        left = draw(st.sampled_from(body_vars))
        right = draw(st.one_of(st.sampled_from(body_vars), _mixed_value.map(C)))
        try:
            inequalities.append(Inequality(left, right))
        except QueryError:
            pass  # trivially-equal sides; just draw fewer inequalities
    query = ConjunctiveQuery(head, atoms, inequalities=inequalities)
    return query, database


class TestMixedTypePairs:
    @SETTINGS
    @given(mixed_pairs())
    def test_random_mixed_pairs(self, pair):
        assert_agree(*pair)

    @SETTINGS
    @given(mixed_pairs())
    def test_random_mixed_pairs_second_sweep(self, pair):
        # A second independent sweep doubles the pair budget without
        # raising per-test example counts past Hypothesis's comfort zone.
        assert_agree(*pair)


# ----------------------------------------------------------------------
# Seed corpus: deterministic, minimized edge cases (pinned forever)
# ----------------------------------------------------------------------


class TestSeedCorpus:
    def test_mixed_type_collapse(self):
        """1/True/1.0 are ONE value: one answer row, count 1 — on both
        sides, whatever spelling each side picks."""
        database = Database(
            {"R": Relation.from_rows(("a",), [(1,), (True,), (1.0,)])}
        )
        query = ConjunctiveQuery((V("x"),), [Atom("R", (V("x"),))])
        result = assert_agree(query, database)
        assert result.cardinality == 1
        assert BACKEND.count(query, database) == 1

    def test_mixed_type_join_across_relations(self):
        """True joins 1 joins 1.0 across relations (one pool code)."""
        database = Database(
            {
                "R": Relation.from_rows(("a",), [(True,), (2,)]),
                "S": Relation.from_rows(("a",), [(1.0,), (3,)]),
            }
        )
        query = ConjunctiveQuery(
            (V("x"),), [Atom("R", (V("x"),)), Atom("S", (V("x"),))]
        )
        result = assert_agree(query, database)
        assert result.cardinality == 1
        (row,) = result.rows
        assert row[0] == 1

    def test_numeric_string_does_not_join_number(self):
        """"1" and 1 are different values (frozenset semantics, not SQL
        affinity) — a raw-value encoding under sqlite could conflate."""
        database = Database(
            {
                "R": Relation.from_rows(("a",), [("1",)]),
                "S": Relation.from_rows(("a",), [(1,)]),
            }
        )
        query = ConjunctiveQuery(
            (V("x"),), [Atom("R", (V("x"),)), Atom("S", (V("x"),))]
        )
        result = assert_agree(query, database)
        assert result.cardinality == 0

    def test_nan_identity_semantics(self):
        """One NaN object equals itself; distinct NaN objects differ —
        dict/frozenset semantics, reproduced through codes (a raw-float
        SQL encoding would turn NaN into NULL and lose both)."""
        other_nan = float("nan")
        database = Database(
            {"T": Relation.from_rows(("a", "b"), [(NAN, 1), (NAN, 2), (other_nan, 3)])}
        )
        self_join = ConjunctiveQuery(
            (V("y"), V("z")),
            [Atom("T", (V("x"), V("y"))), Atom("T", (V("x"), V("z")))],
        )
        result = assert_agree(self_join, database)
        assert result.rows == frozenset(
            {(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)}
        )
        # Probing with the SAME NaN object finds its rows; a FRESH NaN
        # object is a different value and finds nothing.
        probe_same = ConjunctiveQuery((V("y"),), [Atom("T", (C(NAN), V("y")))])
        assert assert_agree(probe_same, database).rows == frozenset({(1,), (2,)})
        probe_fresh = ConjunctiveQuery(
            (V("y"),), [Atom("T", (C(float("nan")), V("y")))]
        )
        assert assert_agree(probe_fresh, database).rows == frozenset()

    def test_repeated_variable_keeps_nan_rows(self):
        """Divergence found by this harness: ``R(x, x)`` dropped a
        ``(nan, nan)`` row natively (bare ``!=`` is non-reflexive on NaN)
        while the backend kept it (code equality).  Fixed by routing every
        linear-scan comparison through ``values_equal`` (identity-then-
        equality, the pool's semantics)."""
        database = Database(
            {"R": Relation.from_rows(("a", "b"), [(NAN, NAN), (1, 1), (1, 2)])}
        )
        query = ConjunctiveQuery((V("x"),), [Atom("R", (V("x"), V("x")))])
        result = assert_agree(query, database)
        assert result.cardinality == 2
        assert (1,) in result.rows

    def test_constant_probe_finds_nan_rows(self):
        """Divergence found by this harness: probing with the same NaN
        object returned rows from the backend but nothing natively."""
        database = Database(
            {"T": Relation.from_rows(("a", "b"), [(NAN, 1), (NAN, 2)])}
        )
        query = ConjunctiveQuery((V("y"),), [Atom("T", (C(NAN), V("y")))])
        assert assert_agree(query, database).rows == frozenset({(1,), (2,)})

    def test_inequality_against_nan_constant(self):
        """x ≠ NaN excludes rows holding that same NaN object (they share
        its pool code); a fresh NaN object excludes nothing."""
        database = Database(
            {"R": Relation.from_rows(("a",), [(NAN,), (1,), (2,)])}
        )
        same = ConjunctiveQuery(
            (V("x"),),
            [Atom("R", (V("x"),))],
            inequalities=[Inequality(V("x"), C(NAN))],
        )
        assert assert_agree(same, database).cardinality == 2
        fresh = ConjunctiveQuery(
            (V("x"),),
            [Atom("R", (V("x"),))],
            inequalities=[Inequality(V("x"), C(float("nan")))],
        )
        assert assert_agree(fresh, database).cardinality == 3

    def test_variable_inequality_keeps_nan_pairs_equal(self):
        """x ≠ y must treat two copies of the same NaN object as equal
        (one code), so the (NaN, NaN) row is excluded on both sides."""
        database = Database(
            {"R": Relation.from_rows(("a", "b"), [(NAN, NAN), (NAN, 1)])}
        )
        query = ConjunctiveQuery(
            (V("x"), V("y")),
            [Atom("R", (V("x"), V("y")))],
            inequalities=[Inequality(V("x"), V("y"))],
        )
        result = assert_agree(query, database)
        assert result.cardinality == 1

    def test_negative_zero_collapses_with_zero(self):
        database = Database(
            {"R": Relation.from_rows(("a",), [(0,), (-0.0,), (False,)])}
        )
        query = ConjunctiveQuery((V("x"),), [Atom("R", (V("x"),))])
        assert assert_agree(query, database).cardinality == 1

    def test_none_is_a_value_not_null(self):
        """None joins None — no SQL NULL ≠ NULL surprise through codes."""
        database = Database(
            {
                "R": Relation.from_rows(("a", "b"), [(None, 1), (2, 3)]),
                "S": Relation.from_rows(("a",), [(None,)]),
            }
        )
        query = ConjunctiveQuery(
            (V("y"),), [Atom("R", (V("x"), V("y"))), Atom("S", (V("x"),))]
        )
        assert assert_agree(query, database).rows == frozenset({(1,)})

    def test_composite_and_huge_values(self):
        """Tuples and >64-bit integers are codes like anything else (a
        raw-value encoding would overflow sqlite's INTEGER)."""
        big = 2**80
        database = Database(
            {"R": Relation.from_rows(("a", "b"), [((1, 2), big), ((3, 4), 5)])}
        )
        query = ConjunctiveQuery((V("y"),), [Atom("R", (C((1, 2)), V("y")))])
        assert assert_agree(query, database).rows == frozenset({(big,)})

    def test_self_join_repeated_variable(self):
        database = Database(
            {"R": Relation.from_rows(("a", "b"), [(1, 1), (1, 2), (3, 3)])}
        )
        query = ConjunctiveQuery((V("x"),), [Atom("R", (V("x"), V("x")))])
        assert assert_agree(query, database).rows == frozenset({(1,), (3,)})

    def test_boolean_heads_both_ways(self):
        database = Database({"R": Relation.from_rows(("a",), [(1,)])})
        yes = ConjunctiveQuery((), [Atom("R", (C(1),))])
        no = ConjunctiveQuery((), [Atom("R", (C(2),))])
        assert assert_agree(yes, database).rows == frozenset({()})
        assert assert_agree(no, database).rows == frozenset()
        assert BACKEND.count(yes, database) == 1
        assert BACKEND.count(no, database) == 0

    def test_constant_and_duplicate_head_terms(self):
        database = Database(
            {"R": Relation.from_rows(("a", "b"), [(1, 2), (3, 4)])}
        )
        query = ConjunctiveQuery(
            (V("x"), C("tag"), V("x")), [Atom("R", (V("x"), V("y")))]
        )
        result = assert_agree(query, database)
        assert result.attributes == ("o0", "o1", "o2")
        assert result.rows == frozenset({(1, "tag", 1), (3, "tag", 3)})

    def test_inequality_with_never_interned_constant(self):
        """x != c where c appears nowhere: true for every row (the bind
        path interns c fresh; no stored code can equal the new code)."""
        database = Database(
            {"R": Relation.from_rows(("a",), [(10,), (20,)])}
        )
        query = ConjunctiveQuery(
            (V("x"),),
            [Atom("R", (V("x"),))],
            inequalities=[Inequality(V("x"), C("no-such-value-ever"))],
        )
        assert assert_agree(query, database).cardinality == 2

    def test_inequality_mixed_type_collapse(self):
        """x != True excludes 1 and 1.0 too (one equality class)."""
        database = Database(
            {"R": Relation.from_rows(("a",), [(1,), (1.0,), (2,)])}
        )
        query = ConjunctiveQuery(
            (V("x"),),
            [Atom("R", (V("x"),))],
            inequalities=[Inequality(V("x"), C(True))],
        )
        assert assert_agree(query, database).rows == frozenset({(2,)})

    def test_empty_relation_everywhere(self):
        database = Database(
            {
                "R": Relation.from_rows(("a", "b")),
                "S": Relation.from_rows(("a",), [(1,)]),
            }
        )
        query = ConjunctiveQuery(
            (V("x"),), [Atom("R", (V("x"), V("y"))), Atom("S", (V("x"),))]
        )
        result = assert_agree(query, database)
        assert result.rows == frozenset()
        assert BACKEND.decide(query, database) is False

    def test_cartesian_product_no_shared_variables(self):
        database = Database(
            {
                "R": Relation.from_rows(("a",), [(1,), (2,)]),
                "S": Relation.from_rows(("a",), [("x",), ("y",)]),
            }
        )
        query = ConjunctiveQuery(
            (V("x"), V("y")), [Atom("R", (V("x"),)), Atom("S", (V("y"),))]
        )
        assert assert_agree(query, database).cardinality == 4

    def test_triangle_query_cyclic(self):
        database = Database(
            {
                "E": Relation.from_rows(
                    ("a", "b"), [(1, 2), (2, 3), (3, 1), (3, 4)]
                )
            }
        )
        query = cycle_query(3)
        assert assert_agree(query, database).rows == frozenset({()})

    def test_canonical_spelling_is_identical_not_just_equal(self):
        """The documented contract: after canonicalization, engine and
        backend rows are the same objects spelled the same way."""
        database = Database(
            {"R": Relation.from_rows(("a",), [(True,), (2.0,)])}
        )
        query = ConjunctiveQuery((V("x"),), [Atom("R", (V("x"),))])
        native = canonical_rows(ENGINE.execute(query, database).rows)
        pushed = canonical_rows(BACKEND.execute(query, database).rows)
        for native_row, pushed_row in zip(sorted(native, key=repr), sorted(pushed, key=repr)):
            for left, right in zip(native_row, pushed_row):
                assert left is right or (
                    isinstance(left, float) and math.isnan(left)
                ) is False


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
