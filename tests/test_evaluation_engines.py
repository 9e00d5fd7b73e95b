"""Cross-engine tests: naive, Yannakakis, parameter-v transform, treewidth."""

import random

import pytest

from repro.errors import NotAcyclicError, QueryError, SchemaError
from repro.evaluation import atom_candidate_relation, parameter_v_transform
from repro.query import Atom, parse_query
from repro.relational import Database, Relation
from repro.workloads import (
    chain_database,
    path_query,
    random_acyclic_query,
    random_database,
    star_database,
    star_query,
)
from repro.relational.schema import DatabaseSchema


class TestAtomCandidateRelation:
    def test_constants_filter(self):
        rel = Relation.from_rows(("a", "b"), [(1, 2), (3, 2)])
        atom = Atom.of("R", "x", 2)
        s = atom_candidate_relation(atom, rel)
        assert s.attributes == ("x",)
        assert s.rows == frozenset({(1,), (3,)})

    def test_repeated_variable_filter(self):
        rel = Relation.from_rows(("a", "b"), [(1, 1), (1, 2)])
        s = atom_candidate_relation(Atom.of("R", "x", "x"), rel)
        assert s.rows == frozenset({(1,)})

    def test_variable_free_atom(self):
        rel = Relation.from_rows(("a",), [(1,)])
        assert atom_candidate_relation(Atom.of("R", 1), rel).cardinality == 1
        assert atom_candidate_relation(Atom.of("R", 2), rel).is_empty()

    def test_arity_mismatch(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            atom_candidate_relation(Atom.of("R", "x"), Relation.from_rows(("a", "b"), []))

    def test_constants_and_repeats_follow_the_one_equality(self):
        # The constant positions are one probe of the relation's index, so
        # they match as a hash table does (1 == True == 1.0; a NaN object
        # only itself); repeated variables are checked on that bucket only.
        nan = float("nan")
        rel = Relation.from_rows(
            ("a", "b", "c"),
            [(1, 5, 5), (True, 6, 7), (1.0, 8, 8), (2, 9, 9), (nan, 3, 3), (nan, 3, 4)],
        )
        bound = atom_candidate_relation(Atom.of("R", 1, "x", "x"), rel)
        assert bound.attributes == ("x",) and bound.rows == {(5,), (8,)}
        assert ("index", (0,)) in rel._cache  # probed, not scanned
        assert atom_candidate_relation(Atom.of("R", nan, "x", "y"), rel).rows == {
            (3, 3),
            (3, 4),
        }
        assert atom_candidate_relation(Atom.of("R", float("nan"), "x", "y"), rel).is_empty()
        assert atom_candidate_relation(Atom.of("R", 1, "x", 7), rel).rows == {(6,)}
        # An unhashable constant takes select_eq's linear-scan fallback.
        assert atom_candidate_relation(Atom.of("R", [1], "x", "y"), rel).is_empty()

    def test_a_constant_atom_costs_its_bucket_not_the_relation(self):
        # count of a constant-led path ran a per-row Python loop over the
        # whole relation for the constant atom: 12 ms where execute took
        # 0.09 ms on 20 000 edges (~140x).  Probing the index leaves the one
        # linear probe of the covered count's pass (~10x); 40x is the alarm.
        import time

        from repro import QueryEngine

        edges = [
            (layer * 1000 + node, (layer + 1) * 1000 + (node * 5 + k) % 1000)
            for layer in range(4)
            for node in range(1000)
            for k in range(5)
        ]
        database = Database({"E": Relation.from_rows(("s", "t"), edges)})
        query = parse_query("Q(b, c) :- E(0, b), E(b, c).")
        engine = QueryEngine()
        assert engine.count(query, database) == len(engine.execute(query, database))

        def best(run):
            samples = []
            for _ in range(7):
                start = time.perf_counter()
                run()
                samples.append(time.perf_counter() - start)
            return min(samples)

        execute = best(lambda: engine.execute(query, database))
        count = best(lambda: engine.count(query, database))
        assert count < 40 * execute, (count, execute)


class TestNaiveEvaluator:
    def test_path_answers(self, naive, edge_db):
        q = parse_query("Q(x, z) :- E(x, y), E(y, z).")
        assert naive.evaluate(q, edge_db).rows == frozenset(
            {(1, 3), (1, 4), (2, 4)}
        )

    def test_decide_early_exit(self, naive, edge_db):
        q = parse_query("Q() :- E(x, y), E(y, z), E(z, w).")
        assert naive.decide(q, edge_db)

    def test_contains(self, naive, edge_db):
        q = parse_query("Q(x, z) :- E(x, y), E(y, z).")
        assert naive.contains(q, edge_db, (1, 3))
        assert not naive.contains(q, edge_db, (4, 1))

    def test_contains_wrong_arity_false(self, naive, edge_db):
        q = parse_query("Q(x) :- E(x, y).")
        assert not naive.contains(q, edge_db, (1, 2))

    def test_constants_in_body(self, naive, edge_db):
        q = parse_query("Q(y) :- E(1, y).")
        assert naive.evaluate(q, edge_db).rows == frozenset({(2,), (3,)})

    def test_repeated_head_terms(self, naive, edge_db):
        q = parse_query("Q(x, x) :- E(x, y).")
        assert (1, 1) in naive.evaluate(q, edge_db)

    def test_inequality_and_comparison(self, naive):
        db = Database.from_tuples({"R": [(1, 2), (2, 2), (3, 1)]})
        q = parse_query("Q(a, b) :- R(a, b), a != b.")
        assert q and naive.evaluate(q, db).rows == frozenset({(1, 2), (3, 1)})
        q2 = parse_query("Q(a, b) :- R(a, b), a < b.")
        assert naive.evaluate(q2, db).rows == frozenset({(1, 2)})
        q3 = parse_query("Q(a, b) :- R(a, b), a <= b.")
        assert naive.evaluate(q3, db).rows == frozenset({(1, 2), (2, 2)})

    def test_satisfying_assignments_schema(self, naive, edge_db):
        q = parse_query("Q() :- E(x, y).")
        assignments = naive.satisfying_assignments(q, edge_db)
        assert set(assignments.attributes) == {"x", "y"}
        assert assignments.cardinality == 4

    def test_rejects_atoms_of_the_wrong_arity(self, naive, edge_db):
        # Too short an atom used to match on a prefix of the rows.
        for text in ("Q() :- E(x).", "Q() :- E(x, y, z)."):
            with pytest.raises(SchemaError):
                naive.decide(parse_query(text), edge_db)

    def test_cyclic_queries_supported(self, naive):
        db = Database.from_tuples({"E": [(1, 2), (2, 3), (3, 1)]})
        q = parse_query("Q() :- E(x, y), E(y, z), E(z, x).")
        assert naive.decide(q, db)


class TestYannakakis:
    def test_rejects_cyclic(self, yannakakis, edge_db):
        q = parse_query("Q() :- E(x, y), E(y, z), E(z, x).")
        with pytest.raises(NotAcyclicError):
            yannakakis.decide(q, edge_db)

    def test_rejects_inequalities(self, yannakakis, edge_db):
        q = parse_query("Q() :- E(x, y), x != y.")
        with pytest.raises(QueryError):
            yannakakis.decide(q, edge_db)

    def test_agrees_with_naive_on_paths(self, yannakakis, naive):
        db = chain_database(layers=4, width=4, p=0.5, seed=2)
        for length in (1, 2, 3):
            q = path_query(length, head_arity=2)
            assert yannakakis.evaluate(q, db) == naive.evaluate(q, db)

    def test_agrees_with_naive_on_stars(self, yannakakis, naive):
        db = star_database(arms=3, fanout=5, seed=1)
        q = star_query(3)
        assert yannakakis.evaluate(q, db) == naive.evaluate(q, db)

    def test_decide_matches_evaluate(self, yannakakis):
        db = chain_database(layers=3, width=3, p=0.4, seed=5)
        q = path_query(2)
        assert yannakakis.decide(q, db) == (not yannakakis.evaluate(q, db).is_empty())

    def test_contains(self, yannakakis, naive, edge_db):
        q = parse_query("Q(x, z) :- E(x, y), E(y, z).")
        for candidate in [(1, 3), (1, 4), (2, 3), (4, 4)]:
            assert yannakakis.contains(q, edge_db, candidate) == naive.contains(
                q, edge_db, candidate
            )

    def test_empty_candidate_relation_short_circuits(self, yannakakis):
        db = Database.from_tuples({"E": [(1, 1)], "F": [(2, 2)]})
        q = parse_query("Q() :- E(x, x), F(x, x).")
        assert not yannakakis.decide(q, db)

    def test_random_acyclic_queries_match_naive(self, yannakakis, naive):
        rng = random.Random(7)
        for trial in range(25):
            query = random_acyclic_query(
                num_atoms=rng.randint(1, 5),
                max_arity=3,
                seed=rng.randrange(1 << 30),
            )
            schema = DatabaseSchema.of(
                **{a.relation: a.arity for a in query.atoms}
            )
            db = random_database(
                schema, domain_size=4, tuples_per_relation=12,
                seed=rng.randrange(1 << 30),
            )
            assert yannakakis.evaluate(query, db) == naive.evaluate(query, db)

    @pytest.mark.parametrize("head_arity", [2, 3])
    def test_intermediates_stay_within_input_plus_output(
        self, yannakakis, monkeypatch, head_arity
    ):
        # 5 layers x 200 nodes, out-degree 5: 4000 edges, and every path
        # out of layer 0 extends to 4 hops.  With the head on the first
        # atom(s) the tree is rooted there and no join may grow past
        # |input| + |output|; an evaluator that leaves the head in a leaf
        # drags x0, x1 through every edge (125 000-row intermediates).
        width, degree = 200, 5
        edges = [
            (layer * 1000 + i, (layer + 1) * 1000 + (i * degree + j) % width)
            for layer in range(4)
            for i in range(width)
            for j in range(degree)
        ]
        db = Database.from_tuples({"E": edges})
        successors = {}
        for a, b in edges:
            successors.setdefault(a, []).append(b)
        expected = {(a, b) for a, b in edges if a < 1000}
        if head_arity == 3:
            expected = {(a, b, c) for a, b in expected for c in successors[b]}
        bound = len(edges) + len(expected)

        intermediates = []
        for name in ("_join_keep", "natural_join"):
            original = getattr(Relation, name)

            def spy(self, *args, _original=original, **kwargs):
                result = _original(self, *args, **kwargs)
                intermediates.append(result.cardinality)
                return result

            monkeypatch.setattr(Relation, name, spy)

        answer = yannakakis.evaluate(path_query(4, head_arity=head_arity), db)
        assert answer.rows == expected
        assert all(rows <= bound for rows in intermediates), max(intermediates)
        if head_arity == 2:
            # The head is the root atom's columns: one bottom-up pass and a
            # read-off, no join of any kind.
            assert intermediates == []
        else:
            assert intermediates


class TestParameterVTransform:
    def test_groups_atoms_with_same_variable_set(self, naive):
        db = Database.from_tuples({"E": [(1, 2), (2, 1), (1, 1)]})
        q = parse_query("Q(x) :- E(x, y), E(y, x).")
        q2, db2 = parameter_v_transform(q, db)
        # {x,y} appears twice but with different orders -> one grouped atom.
        assert len(q2.atoms) == 1
        assert naive.evaluate(q2, db2) == naive.evaluate(q, db)

    def test_atom_bound_is_2_to_v(self, naive):
        db = Database.from_tuples({"E": [(1, 2)], "F": [(2, 1)], "G": [(1, 1)]})
        q = parse_query("Q() :- E(x, y), F(y, x), G(x, x).")
        q2, _db2 = parameter_v_transform(q, db)
        assert len(q2.atoms) <= 2 ** q.num_variables()

    def test_rejects_constraints(self):
        db = Database.from_tuples({"E": [(1, 2)]})
        q = parse_query("Q() :- E(x, y), x != y.")
        with pytest.raises(QueryError):
            parameter_v_transform(q, db)

    def test_random_equivalence(self, naive):
        rng = random.Random(11)
        for trial in range(15):
            query = random_acyclic_query(
                num_atoms=rng.randint(1, 4), seed=rng.randrange(1 << 30)
            ).without_constraints()
            schema = DatabaseSchema.of(
                **{a.relation: a.arity for a in query.atoms}
            )
            db = random_database(
                schema, domain_size=3, tuples_per_relation=10,
                seed=rng.randrange(1 << 30),
            )
            q2, db2 = parameter_v_transform(query, db)
            assert naive.evaluate(q2, db2) == naive.evaluate(query, db)


class TestTreewidthEvaluator:
    def test_acyclic_matches_yannakakis(self, treewidth_eval, yannakakis):
        db = chain_database(layers=4, width=3, p=0.6, seed=3)
        q = path_query(3, head_arity=2)
        assert treewidth_eval.evaluate(q, db) == yannakakis.evaluate(q, db)

    def test_cyclic_query_handled(self, treewidth_eval, naive):
        db = Database.from_tuples({"E": [(1, 2), (2, 3), (3, 1), (2, 1)]})
        q = parse_query("Q(x) :- E(x, y), E(y, z), E(z, x).")
        assert treewidth_eval.evaluate(q, db) == naive.evaluate(q, db)

    def test_width_reported(self, treewidth_eval):
        from repro.workloads import cycle_query

        assert treewidth_eval.width(cycle_query(5)) == 2

    def test_rejects_inequalities(self, treewidth_eval, edge_db):
        q = parse_query("Q() :- E(x, y), x != y.")
        with pytest.raises(QueryError):
            treewidth_eval.evaluate(q, edge_db)

    def test_random_cyclic_equivalence(self, treewidth_eval, naive):
        rng = random.Random(13)
        for trial in range(10):
            length = rng.randint(3, 5)
            from repro.workloads import cycle_query

            q = cycle_query(length)
            edges = [
                (rng.randrange(4), rng.randrange(4)) for _ in range(10)
            ]
            db = Database.from_tuples({"E": edges})
            assert treewidth_eval.decide(q, db) == naive.decide(q, db)
