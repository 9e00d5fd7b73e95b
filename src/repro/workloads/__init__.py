"""Workload generators: graphs, databases, queries, paper examples."""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "chain_database": "databases",
        "random_database": "databases",
        "random_relation": "databases",
        "star_database": "databases",
        "Graph": "graphs",
        "GraphError": "graphs",
        "complete_graph": "graphs",
        "cycle_graph": "graphs",
        "empty_graph": "graphs",
        "graph_suite": "graphs",
        "graph_with_hamiltonian_path": "graphs",
        "grid_graph": "graphs",
        "path_graph": "graphs",
        "planted_clique_graph": "graphs",
        "random_graph": "graphs",
        "all_examples": "paper_examples",
        "employees_projects_database": "paper_examples",
        "employees_projects_query": "paper_examples",
        "salary_database": "paper_examples",
        "salary_query": "paper_examples",
        "students_courses_database": "paper_examples",
        "students_courses_query": "paper_examples",
        "cycle_query": "queries",
        "path_neq_query": "queries",
        "path_query": "queries",
        "random_acyclic_query": "queries",
        "star_query": "queries",
    },
)
