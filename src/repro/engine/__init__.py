"""Adaptive query engine: structural analysis → plan → cache → execute.

The paper proves *which* query classes are tractable; this package turns
the part of that map with a route of its own into a dispatcher.
``QueryEngine.execute`` asks whether a conjunctive query is acyclic and
constraint-free (a GYO join tree), plans an evaluation strategy with a
cardinality-based cost model, caches the plan under a binding-independent
shape key, and runs one of two routes: Yannakakis's program for an acyclic
shape, the generated search for every other.  The counting modes a plan
carries live with the counting evaluator, in
:mod:`repro.evaluation.counting`.  See ``docs/engine.md``.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "ACYCLIC": "analysis",
        "GENERAL": "analysis",
        "StructuralAnalysis": "analysis",
        "analyze": "analysis",
        "plan_cache_key": "analysis",
        "schema_signature": "analysis",
        "shape_signature": "analysis",
        "DEFAULT_REPLAN_DRIFT": "cache",
        "DEFAULT_REPLAN_LIMIT": "cache",
        "ShapeTable": "cache",
        "DEFAULT_BATCH_WIDE_THRESHOLD": "engine",
        "QueryEngine": "engine",
        "EVALUATORS": "plan",
        "NAIVE": "plan",
        "YANNAKAKIS": "plan",
        "QueryPlan": "plan",
        "Planner": "planner",
    },
)
