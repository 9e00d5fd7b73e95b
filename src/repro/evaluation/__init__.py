"""Evaluation engines for every query language in the library.

* :class:`NaiveEvaluator` — the generic n^O(q) backtracking algorithm
  (supports ≠ and < atoms; the ground-truth oracle).
* :class:`YannakakisEvaluator` — acyclic queries in polynomial combined
  complexity.
* :func:`parameter_v_transform` — Theorem 1's variable-set grouping.
* :class:`PositiveEvaluator`, :class:`FirstOrderEvaluator` — calculus
  fragments under active-domain semantics.
* :class:`DatalogEvaluator` — naive / semi-naive fixpoints.
* :class:`TreewidthEvaluator` — bounded-treewidth extension.
* :class:`CountingYannakakisEvaluator` — multiplicity-annotated counting
  on the tractable trichotomy islands.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "group_relation_name": "bounded_variable",
        "parameter_v_transform": "bounded_variable",
        "CountingYannakakisEvaluator": "counting",
        "CountResult": "counting",
        "grouped_count_reference": "counting",
        "head_domain_size": "counting",
        "DatalogEvaluator": "datalog_eval",
        "FirstOrderEvaluator": "fo_eval",
        "answers_relation": "instantiation",
        "atom_candidate_relation": "instantiation",
        "candidate_relations": "instantiation",
        "NaiveEvaluator": "naive",
        "PositiveEvaluator": "positive_eval",
        "TreewidthEvaluator": "treewidth_eval",
        "YannakakisEvaluator": "yannakakis",
    },
)
