"""Coverage for smaller surfaces: errors, attributes, formulas, demo entry."""

import importlib
import pkgutil
import types

import pytest

import repro
from repro.errors import (
    ArityError,
    InconsistentConstraintsError,
    NotAcyclicError,
    ParseError,
    QueryError,
    ReductionError,
    ReproError,
    SchemaError,
)
from repro.relational.attributes import (
    HASH_PREFIX,
    check_attribute_names,
    hashed,
    is_hashed,
    positions_of,
    unhashed,
)
from repro.query import (
    C,
    Inequality,
    IneqLeaf,
    as_ineq_formula,
    ineq_and,
    ineq_or,
)


class TestErrorHierarchy:
    def test_all_derive_from_base(self):
        for exc in (
            ArityError,
            InconsistentConstraintsError,
            NotAcyclicError,
            ParseError,
            QueryError,
            ReductionError,
            SchemaError,
        ):
            assert issubclass(exc, ReproError)

    def test_arity_is_schema_error(self):
        assert issubclass(ArityError, SchemaError)

    def test_parse_error_position(self):
        error = ParseError("bad", position=7)
        assert error.position == 7
        assert ParseError("bad").position == -1


class TestAttributes:
    def test_hashed_round_trip(self):
        assert hashed("x") == HASH_PREFIX + "x"
        assert is_hashed(hashed("x"))
        assert not is_hashed("x")
        assert unhashed(hashed("x")) == "x"

    def test_unhashed_rejects_plain(self):
        with pytest.raises(SchemaError):
            unhashed("x")

    def test_check_attribute_names(self):
        assert check_attribute_names(["a", "b"]) == ("a", "b")
        with pytest.raises(SchemaError):
            check_attribute_names(["a", "a"])
        with pytest.raises(SchemaError):
            check_attribute_names([""])

    def test_positions_of(self):
        assert positions_of(("a", "b", "c"), ("c", "a")) == (2, 0)
        with pytest.raises(SchemaError):
            positions_of(("a",), ("z",))


class TestIneqFormulaAPI:
    def test_leaves_collects_all(self):
        phi = ineq_and(
            Inequality("x", "y"),
            ineq_or(Inequality("y", "z"), Inequality("x", C(1))),
        )
        assert len(phi.leaves()) == 3

    def test_as_ineq_formula_coercion(self):
        leaf = as_ineq_formula(Inequality("a", "b"))
        assert isinstance(leaf, IneqLeaf)
        assert as_ineq_formula(leaf) is leaf
        with pytest.raises(QueryError):
            as_ineq_formula("not a formula")

    def test_flattening_and_equality(self):
        left = ineq_and(
            ineq_and(Inequality("a", "b"), Inequality("b", "c")),
            Inequality("c", "d"),
        )
        right = ineq_and(
            Inequality("a", "b"), Inequality("b", "c"), Inequality("c", "d")
        )
        assert left == right
        assert hash(left) == hash(right)

    def test_empty_junction_rejected(self):
        from repro.query.ineq_formula import IneqAnd

        with pytest.raises(QueryError):
            IneqAnd([])

    def test_repr_readable(self):
        phi = ineq_or(Inequality("x", "y"), Inequality("y", C(3)))
        text = repr(phi)
        assert "!=" in text and "|" in text


class TestDemoEntryPoint:
    def test_main_runs(self, capsys):
        from repro.__main__ import main

        main()
        out = capsys.readouterr().out
        assert "Theorem 1" in out
        assert "verified against the naive engine" in out


class TestClassificationDisplay:
    def test_partial_classifications(self):
        from repro.parametric import Classification, WClass

        hard_only = Classification("p", WClass.W1, None)
        assert hard_only.display() == "W[1]-hard"
        member_only = Classification("p", None, WClass.W_SAT)
        assert member_only.display() == "in W[SAT]"
        nothing = Classification("p", None, None)
        assert nothing.display() == "unclassified"
        assert not nothing.complete

    def test_table_entry_lookup(self):
        from repro.parametric import theorem1_table

        table = theorem1_table()
        with pytest.raises(KeyError):
            table.entry("nonexistent", "q")


class TestGYOResultAPI:
    def test_removal_order_complete(self):
        from repro.hypergraph import Hypergraph, gyo_reduce

        h = Hypergraph("abc", [{"a", "b"}, {"b", "c"}])
        result = gyo_reduce(h)
        assert sorted(result.removal_order) == [0, 1]
        assert result.is_empty


class TestBenchlibMeasurement:
    def test_measurement_fields(self):
        from repro.benchlib import Measurement

        m = Measurement(label="x", parameters={"n": 3}, seconds=0.5, result=9)
        assert m.label == "x"
        assert m.parameters["n"] == 3


PACKAGES = ["repro"] + [
    module.name
    for module in pkgutil.walk_packages(repro.__path__, "repro.")
    if module.ispkg
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    """A deletion that forgets its ``__all__`` entry fails here, not in a
    user's ``from repro import *``.

    Package exports resolve lazily, and importing a submodule binds the
    package attribute of the same name to the module.  So once every
    submodule is imported, an exported name must still be the object,
    never a module (``from repro.reductions import clique_to_cq`` is the
    function)."""
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names nothing for {missing}"
    submodules = {
        info.name: importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(module.__path__)
    }
    shadowed = [
        name
        for name in module.__all__
        if isinstance(getattr(module, name), types.ModuleType)
        or (
            name in submodules
            and getattr(module, name) is not getattr(submodules[name], name)
        )
    ]
    assert not shadowed, f"{package}.__all__ names modules for {shadowed}"
