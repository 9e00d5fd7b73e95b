"""Executable forms of every reduction in the paper.

Theorem 1 (classification of conjunctive / positive / first-order):

* :data:`CLIQUE_TO_CQ_Q`, :data:`CLIQUE_TO_CQ_V` — W[1]-hardness;
* :data:`CQ_TO_WEIGHTED_2CNF` — membership in W[1], parameter q;
* :data:`CQ_V_TO_CQ_Q` — the variable-set grouping for parameter v;
* :data:`POSITIVE_TO_UNION_OF_CQS`, :data:`POSITIVE_TO_CLIQUE` — positive
  queries in W[1] for parameter q (footnote 2 transformation included);
* :data:`WSAT_TO_POSITIVE` — W[SAT]-hardness for parameter v;
* :data:`PRENEX_POSITIVE_TO_WSAT` — the prenex converse;
* :data:`CIRCUIT_TO_FO_V`, :func:`make_depth_t_reduction`,
  :data:`ALTERNATING_CIRCUIT_TO_FO` — first-order hardness.

§4 Datalog: :func:`evaluate_via_cq_oracle` (+ :func:`w1_cq_oracle`).

§5: :func:`hamiltonian_to_query_instance` (NP-hardness of combined
complexity with ≠) and Theorem 3's
:data:`CLIQUE_TO_COMPARISONS_Q` / :data:`CLIQUE_TO_COMPARISONS_V`.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "ALTERNATING_CIRCUIT_TO_FO": "circuit_to_fo",
        "CIRCUIT_TO_FO_V": "circuit_to_fo",
        "alternating_circuit_to_fo": "circuit_to_fo",
        "circuit_to_fo": "circuit_to_fo",
        "circuit_to_fo_query": "circuit_to_fo",
        "make_depth_t_reduction": "circuit_to_fo",
        "theta": "circuit_to_fo",
        "wiring_database": "circuit_to_fo",
        "CLIQUE_TO_COMPARISONS_Q": "clique_to_acyclic_comparisons",
        "CLIQUE_TO_COMPARISONS_V": "clique_to_acyclic_comparisons",
        "clique_to_comparisons": "clique_to_acyclic_comparisons",
        "comparison_database": "clique_to_acyclic_comparisons",
        "comparison_query": "clique_to_acyclic_comparisons",
        "encode": "clique_to_acyclic_comparisons",
        "CLIQUE_TO_CQ_Q": "clique_to_cq",
        "CLIQUE_TO_CQ_V": "clique_to_cq",
        "clique_query": "clique_to_cq",
        "clique_to_cq": "clique_to_cq",
        "graph_database": "clique_to_cq",
        "CQ_TO_WEIGHTED_2CNF": "cq_to_weighted_2cnf",
        "CQToCNFResult": "cq_to_weighted_2cnf",
        "cq_to_weighted_2cnf": "cq_to_weighted_2cnf",
        "OracleStats": "datalog_fixed_arity",
        "evaluate_via_cq_oracle": "datalog_fixed_arity",
        "naive_cq_oracle": "datalog_fixed_arity",
        "w1_cq_oracle": "datalog_fixed_arity",
        "hamiltonian_path_query": "hamiltonian_to_acyclic_neq",
        "hamiltonian_to_query_instance": "hamiltonian_to_acyclic_neq",
        "has_hamiltonian_path": "hamiltonian_to_acyclic_neq",
        "K_PATH_TO_ACYCLIC_NEQ": "k_path_to_acyclic_neq",
        "k_path_query": "k_path_to_acyclic_neq",
        "k_path_to_query_instance": "k_path_to_acyclic_neq",
        "NEQ_FORMULA_EVALUATION_V": "wsat_to_neq_formula",
        "NeqFormulaInstance": "wsat_to_neq_formula",
        "WSAT_TO_NEQ_FORMULA": "wsat_to_neq_formula",
        "wsat_to_neq_formula": "wsat_to_neq_formula",
        "CQ_V_TO_CQ_Q": "parameter_v_reduction",
        "grouped_size_bound": "parameter_v_reduction",
        "POSITIVE_TO_CLIQUE": "positive_to_cqs",
        "POSITIVE_TO_UNION_OF_CQS": "positive_to_cqs",
        "cq_to_compatibility_graph": "positive_to_cqs",
        "positive_to_clique": "positive_to_cqs",
        "AWSAT_TO_PRENEX_FO": "prenex_fo_awsat",
        "PRENEX_FO_TO_AWSAT": "prenex_fo_awsat",
        "awsat_to_prenex_fo": "prenex_fo_awsat",
        "prenex_fo_to_awsat": "prenex_fo_awsat",
        "PRENEX_POSITIVE_TO_WSAT": "prenex_positive_to_wsat",
        "prenex_positive_to_wsat": "prenex_positive_to_wsat",
        "ACYCLIC_COMPARISON_EVALUATION_Q": "query_problems",
        "ACYCLIC_COMPARISON_EVALUATION_V": "query_problems",
        "ACYCLIC_NEQ_EVALUATION_Q": "query_problems",
        "CQ_EVALUATION_Q": "query_problems",
        "CQ_EVALUATION_V": "query_problems",
        "FO_EVALUATION_Q": "query_problems",
        "FO_EVALUATION_V": "query_problems",
        "POSITIVE_EVALUATION_Q": "query_problems",
        "POSITIVE_EVALUATION_V": "query_problems",
        "QueryEvaluationInstance": "query_problems",
        "WSAT_TO_POSITIVE": "wsat_to_positive",
        "eq_neq_database": "wsat_to_positive",
        "wsat_to_positive": "wsat_to_positive",
        "wsat_to_positive_query": "wsat_to_positive",
    },
)
