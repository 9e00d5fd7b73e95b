"""Query languages of the paper: conjunctive, positive, first-order, Datalog.

Construction can go through the class constructors, the fluent helpers in
:mod:`repro.query.builders`, or the textual :mod:`repro.query.parser`.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "Atom": "atoms",
        "Comparison": "atoms",
        "Inequality": "atoms",
        "ConjunctiveQuery": "conjunctive",
        "DatalogProgram": "datalog",
        "Rule": "datalog",
        "And": "first_order",
        "AtomFormula": "first_order",
        "Exists": "first_order",
        "FirstOrderQuery": "first_order",
        "Forall": "first_order",
        "Formula": "first_order",
        "Not": "first_order",
        "Or": "first_order",
        "prenex_formula": "first_order",
        "to_nnf": "first_order",
        "to_prenex": "first_order",
        "IneqAnd": "ineq_formula",
        "IneqFormula": "ineq_formula",
        "IneqLeaf": "ineq_formula",
        "IneqOr": "ineq_formula",
        "as_ineq_formula": "ineq_formula",
        "conjunction_of": "ineq_formula",
        "ineq_and": "ineq_formula",
        "ineq_or": "ineq_formula",
        "is_conjunctive_in_constants": "ineq_formula",
        "are_equivalent": "homomorphism",
        "canonical_database": "homomorphism",
        "find_homomorphism": "homomorphism",
        "is_contained_in": "homomorphism",
        "is_homomorphism": "homomorphism",
        "minimize": "homomorphism",
        "parse_program": "parser",
        "parse_query": "parser",
        "PositiveQuery": "positive",
        "C": "terms",
        "Constant": "terms",
        "Term": "terms",
        "V": "terms",
        "Variable": "terms",
        "fresh_variable": "terms",
        "term": "terms",
        "terms": "terms",
    },
)
