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

from .analysis import (
    ACYCLIC,
    GENERAL,
    StructuralAnalysis,
    analyze,
    plan_cache_key,
    schema_signature,
    shape_signature,
)
from .cache import DEFAULT_REPLAN_DRIFT, DEFAULT_REPLAN_LIMIT, ShapeTable
from .engine import DEFAULT_BATCH_WIDE_THRESHOLD, QueryEngine
from .plan import EVALUATORS, NAIVE, YANNAKAKIS, QueryPlan
from .planner import Planner

__all__ = [
    "ACYCLIC",
    "DEFAULT_BATCH_WIDE_THRESHOLD",
    "DEFAULT_REPLAN_DRIFT",
    "DEFAULT_REPLAN_LIMIT",
    "EVALUATORS",
    "GENERAL",
    "NAIVE",
    "Planner",
    "QueryEngine",
    "QueryPlan",
    "ShapeTable",
    "StructuralAnalysis",
    "YANNAKAKIS",
    "analyze",
    "plan_cache_key",
    "schema_signature",
    "shape_signature",
]
