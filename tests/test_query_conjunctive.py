"""Tests for ConjunctiveQuery: safety, parameters, substitution, structure."""

import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.errors import QueryError
from repro.query import Atom, C, ConjunctiveQuery, Inequality, V, parse_query
from repro.query.atoms import Comparison


def simple_query() -> ConjunctiveQuery:
    return parse_query("Q(x, z) :- E(x, y), E(y, z).")


class TestValidation:
    def test_head_variable_must_be_in_body(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(("w",), [Atom.of("E", "x", "y")])

    def test_range_restriction_inequality(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(
                (), [Atom.of("E", "x", "y")], [Inequality("x", "z")]
            )

    def test_range_restriction_comparison(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(
                (), [Atom.of("E", "x", "y")], comparisons=[Comparison("x", "w")]
            )

    def test_empty_body_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery((), [])

    def test_head_constants_allowed(self):
        q = ConjunctiveQuery((C(7), "x"), [Atom.of("E", "x", "y")])
        assert q.head_terms[0] == C(7)


class TestParameters:
    def test_num_variables(self):
        assert simple_query().num_variables() == 3

    def test_query_size_grows_with_atoms(self):
        small = parse_query("Q() :- E(x, y).")
        large = parse_query("Q() :- E(x, y), E(y, z), E(z, w).")
        assert large.query_size() > small.query_size()

    def test_num_atoms(self):
        assert simple_query().num_atoms() == 2

    def test_existential_variables(self):
        q = simple_query()
        assert [v.name for v in q.existential_variables()] == ["y"]

    def test_is_boolean(self):
        assert parse_query("Q() :- E(x, y).").is_boolean()
        assert not simple_query().is_boolean()


class TestSubstitution:
    def test_decision_instance_binds_head(self):
        q = simple_query()
        decided = q.decision_instance((1, 3))
        assert decided.is_boolean()
        assert decided.atoms[0] == Atom("E", (C(1), V("y")))
        assert decided.atoms[1] == Atom("E", (V("y"), C(3)))

    def test_decision_instance_arity_check(self):
        with pytest.raises(QueryError):
            simple_query().decision_instance((1,))

    def test_decision_instance_repeated_head_variable(self):
        q = parse_query("Q(x, x) :- E(x, y).")
        decided = q.decision_instance((1, 1))
        assert decided.atoms[0] == Atom("E", (C(1), V("y")))
        with pytest.raises(QueryError):
            q.decision_instance((1, 2))

    def test_decision_instance_head_constant(self):
        q = ConjunctiveQuery((C(5), "x"), [Atom.of("E", "x", "y")])
        assert q.decision_instance((5, 1)).is_boolean()
        with pytest.raises(QueryError):
            q.decision_instance((6, 1))

    def test_substitute_drops_true_inequalities(self):
        q = parse_query("Q(x) :- E(x, y), x != 3.")
        decided = q.decision_instance((4,))
        assert decided.inequalities == ()

    def test_substitute_falsifying_inequality_raises(self):
        q = parse_query("Q(x) :- E(x, y), x != 3.")
        with pytest.raises(QueryError):
            q.decision_instance((3,))

    def test_substitute_comparisons(self):
        q = parse_query("Q(x) :- E(x, y), x < 5.")
        assert q.decision_instance((4,)).comparisons == ()
        with pytest.raises(QueryError):
            q.decision_instance((6,))


class TestStructure:
    def test_path_query_acyclic(self):
        assert simple_query().is_acyclic()

    def test_triangle_cyclic(self):
        q = parse_query("Q() :- E(x, y), E(y, z), E(z, x).")
        assert not q.is_acyclic()

    def test_hypergraph_edges_match_atoms(self):
        q = simple_query()
        h = q.hypergraph()
        assert h.num_edges == 2
        assert {frozenset({V("x"), V("y")}), frozenset({V("y"), V("z")})} == set(
            h.edges
        )

    def test_without_constraints(self):
        q = parse_query("Q(x) :- E(x, y), x != y.")
        stripped = q.without_constraints()
        assert stripped.inequalities == ()
        assert stripped.atoms == q.atoms

    def test_equality_ignores_inequality_order(self):
        q1 = parse_query("Q() :- E(x, y), E(y, z), x != z, x != y.")
        q2 = parse_query("Q() :- E(x, y), E(y, z), x != y, x != z.")
        assert q1 == q2
        assert hash(q1) == hash(q2)

    def test_repr_is_rule_notation(self):
        text = repr(simple_query())
        assert ":-" in text and "E(x, y)" in text


class TestDerivedValues:
    """The hash, shape signature and variable layout are computed once per
    query object; none of them crosses ``pickle``."""

    TEXT = "Q(x) :- E(x, 'a'), F(x, y), x != y."

    def test_derived_values_are_computed_once(self):
        from repro.engine.analysis import shape_signature, variable_layout

        q = parse_query(self.TEXT)
        assert hash(q) == hash(q) == hash(parse_query(self.TEXT))
        assert shape_signature(q) is shape_signature(q)
        assert variable_layout(q) is variable_layout(q)

    def test_pickled_query_is_found_under_another_hash_seed(self):
        """String hashes are salted per process: a query pickled with its
        hash cached must re-derive it where it is loaded."""
        q = parse_query(self.TEXT)
        hash(q)
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "import pickle, sys\n"
            "from repro.query import parse_query\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            f"assert {{parse_query({self.TEXT!r}): 'found'}}[loaded] == 'found'\n"
            "assert loaded.head_name == 'Q'\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(q),
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr.decode()
