"""The unified advisor API.

This package is the composable front door to the reproduction, designed
around the paper's pipeline (Figure 3) as three layers:

* **Declarative inputs** — :class:`ProblemBuilder` fluently assembles
  :class:`~repro.core.problem.VirtualizationDesignProblem`\\ s (databases,
  engines, calibration, workloads) without boilerplate, and
  :class:`Scenario` expresses whole consolidation scenarios as plain
  data (``from_dict`` / ``from_json``).
* **Pluggable strategies** — :class:`Advisor` accepts each pipeline stage
  as an instance or a registered name (``enumerator="greedy"`` /
  ``"exhaustive-dp"``, ``cost_function="what-if"`` / ``"actual"``,
  ``refinement="basic"`` / ``"generalized"``); the registries in
  :mod:`repro.api.strategies` are open for extension.  A shared
  :class:`~repro.api.cache.CostCache` answers repeated what-if questions
  across the recommend / exhaustive / refinement phases once.
* **Structured output** — :class:`RecommendationReport` carries the
  recommendation, per-tenant degradations, strategy provenance, and
  timing / cost-call statistics, and serializes with ``to_dict`` /
  ``to_json``.

The advisor is synchronous and thread-safe; inside an event loop, await
it on a worker thread with ``await asyncio.to_thread(advisor.recommend,
problem)``.
"""

from .advisor import Advisor
from .builder import DEFAULT_CALIBRATION_SETTINGS, ProblemBuilder
from .cache import CachedCostFunction, CostCache
from .report import (
    CostCallStats,
    RecommendationReport,
    StrategyProvenance,
    TenantReport,
)
from .scenario import Scenario, TenantSpec
from .strategies import (
    COST_FUNCTIONS,
    ENUMERATORS,
    REFINEMENTS,
    CostFunctionLike,
    EnumerationStrategy,
    RefinementStrategy,
    StrategyRegistry,
    UnknownStrategyError,
)


__all__ = [
    "Advisor",
    "CachedCostFunction",
    "CostCache",
    "CostCallStats",
    "COST_FUNCTIONS",
    "CostFunctionLike",
    "DEFAULT_CALIBRATION_SETTINGS",
    "ENUMERATORS",
    "EnumerationStrategy",
    "ProblemBuilder",
    "RecommendationReport",
    "REFINEMENTS",
    "RefinementStrategy",
    "Scenario",
    "StrategyProvenance",
    "StrategyRegistry",
    "TenantReport",
    "TenantSpec",
    "UnknownStrategyError",
]
