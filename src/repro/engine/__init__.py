"""Adaptive query engine: structural analysis → plan → cache → execute.

The paper proves *which* query classes are tractable; this package turns
that map into a dispatcher.  ``QueryEngine.execute`` analyzes a conjunctive
query's structure (GYO acyclicity, treewidth, variable-set grouping),
plans an evaluation strategy with a cardinality-based cost model, caches
the plan under a binding-independent shape key, and runs one of two
routes: Yannakakis's program for an acyclic shape, the generated search
for every other.  See ``docs/engine.md``.
"""

from .analysis import (
    ACYCLIC,
    ACYCLIC_NEQ,
    BOUNDED_TREEWIDTH,
    BOUNDED_VARIABLES,
    COUNT_BOOLEAN,
    COUNT_COVERED,
    COUNT_FULL,
    COUNT_GENERAL,
    COUNT_HARD,
    COUNTING_MODES,
    DEFAULT_TREEWIDTH_THRESHOLD,
    FAST_COUNTING_MODES,
    GENERAL,
    STRUCTURAL_CLASSES,
    StructuralAnalysis,
    analyze,
    counting_mode,
    covering_atom,
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
    "ACYCLIC_NEQ",
    "BOUNDED_TREEWIDTH",
    "BOUNDED_VARIABLES",
    "COUNTING_MODES",
    "COUNT_BOOLEAN",
    "COUNT_COVERED",
    "COUNT_FULL",
    "COUNT_GENERAL",
    "COUNT_HARD",
    "DEFAULT_BATCH_WIDE_THRESHOLD",
    "DEFAULT_REPLAN_DRIFT",
    "DEFAULT_REPLAN_LIMIT",
    "DEFAULT_TREEWIDTH_THRESHOLD",
    "EVALUATORS",
    "FAST_COUNTING_MODES",
    "GENERAL",
    "NAIVE",
    "Planner",
    "QueryEngine",
    "QueryPlan",
    "STRUCTURAL_CLASSES",
    "ShapeTable",
    "StructuralAnalysis",
    "YANNAKAKIS",
    "analyze",
    "counting_mode",
    "covering_atom",
    "plan_cache_key",
    "schema_signature",
    "shape_signature",
]
