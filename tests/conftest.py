"""Shared fixtures for the test-suite."""

from __future__ import annotations

import random

import pytest

from repro.evaluation import (
    FirstOrderEvaluator,
    NaiveEvaluator,
    PositiveEvaluator,
    TreewidthEvaluator,
    YannakakisEvaluator,
)
from repro.inequalities import AcyclicInequalityEvaluator
from repro.query import parse_query
from repro.relational import Database


@pytest.fixture
def naive() -> NaiveEvaluator:
    return NaiveEvaluator()


@pytest.fixture
def yannakakis() -> YannakakisEvaluator:
    return YannakakisEvaluator()


@pytest.fixture
def positive_eval() -> PositiveEvaluator:
    return PositiveEvaluator()


@pytest.fixture
def fo_eval() -> FirstOrderEvaluator:
    return FirstOrderEvaluator()


@pytest.fixture
def theorem2() -> AcyclicInequalityEvaluator:
    return AcyclicInequalityEvaluator()


@pytest.fixture
def treewidth_eval() -> TreewidthEvaluator:
    return TreewidthEvaluator()


@pytest.fixture
def edge_db() -> Database:
    """A small digraph: 1→2→3→4 plus 1→3."""
    return Database.from_tuples({"E": [(1, 2), (2, 3), (3, 4), (1, 3)]})


@pytest.fixture
def ep_db() -> Database:
    """Employee–project assignments from the paper's §5 example."""
    return Database.from_tuples(
        {"EP": [("ann", "p1"), ("ann", "p2"), ("bob", "p1"), ("cat", "p3")]}
    )


@pytest.fixture(scope="session")
def adversarial():
    """A 6-cycle over a dense digraph with its head on opposite corners:
    every one of the 100 × 100 head pairs is an answer, and the search
    takes 2.4–4 s to find them all (2-CPU x86-64 VM, Python 3.11), ≥ 4×
    the longest deadline the suites give it.  ``bench_resilience.py``
    builds the same instance."""
    rng = random.Random(11)
    rows = {(rng.randrange(100), rng.randrange(100)) for _ in range(4000)}
    database = Database.from_tuples({"E": sorted(rows)})
    query = parse_query(
        "Q(x1, x4) :- E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x5), "
        "E(x5, x6), E(x6, x1)."
    )
    return query, database
