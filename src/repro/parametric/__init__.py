"""Parametric (fixed-parameter) complexity framework.

Problems, reductions with mechanical verification, the W hierarchy, and
the paper's Figure 1 partial order.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "ParametricProblem": "problem",
        "ParametricReduction": "reduction",
        "TuringParametricReduction": "reduction",
        "VerificationRecord": "reduction",
        "Classification": "whierarchy",
        "ClassificationTable": "whierarchy",
        "FIGURE_1": "whierarchy",
        "FIGURE_1_ARCS": "whierarchy",
        "Q_FIXED": "whierarchy",
        "Q_VARIABLE": "whierarchy",
        "QueryParametrization": "whierarchy",
        "V_FIXED": "whierarchy",
        "V_VARIABLE": "whierarchy",
        "WClass": "whierarchy",
        "easier_than": "whierarchy",
        "harder_than": "whierarchy",
        "theorem1_table": "whierarchy",
    },
)
