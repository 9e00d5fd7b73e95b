"""Theorem 2: f.p.-tractable acyclic conjunctive queries with ≠ atoms.

Color-coding (hash the domain into [k]) combined with acyclic-query
processing over a join tree.  See :class:`AcyclicInequalityEvaluator` for
the main entry point and :class:`FormulaInequalityEvaluator` for the §5
∧/∨-formula extensions.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "HashedAcyclicEngine": "algorithm1",
        "build_engine": "algorithm1",
        "evaluate_for_hash": "algorithm2",
        "AcyclicInequalityEvaluator": "evaluator",
        "FormulaInequalityEvaluator": "formula_extension",
        "split_conjunctive_constants": "formula_extension",
        "ExhaustiveHashFamily": "hashing",
        "GreedyPerfectHashFamily": "hashing",
        "HashFamilyError": "hashing",
        "HashFunction": "hashing",
        "RandomHashFamily": "hashing",
        "is_perfect_family": "hashing",
        "InequalityPartition": "partition",
        "partition_inequalities": "partition",
        "selected_candidate_relation": "partition",
    },
)
