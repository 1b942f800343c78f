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
  ``"exhaustive"``, ``cost_function="what-if"`` / ``"actual"``,
  ``refinement="basic"`` / ``"generalized"``); the registries in
  :mod:`repro.api.strategies` are open for extension.  A shared
  :class:`~repro.api.cache.CostCache` answers repeated what-if questions
  across the recommend / exhaustive / refinement phases once.
* **Structured output** — :class:`RecommendationReport` carries the
  recommendation, per-tenant degradations, strategy provenance, and
  timing / cost-call statistics, and serializes with ``to_dict`` /
  ``to_json``.

The awaitable faces — :class:`~repro.service.async_api.AsyncAdvisor` and
:class:`~repro.service.async_api.AsyncFleetAdvisor` — are re-exported
here lazily (they live in :mod:`repro.service`, one tier up), so
``from repro.api import AsyncAdvisor`` works without importing the
serving tier at library-import time.
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

#: Async entry points resolved on first attribute access (PEP 562): the
#: service tier imports this package, so importing it eagerly here would
#: be circular.
_ASYNC_EXPORTS = ("AsyncAdvisor", "AsyncFleetAdvisor")


def __getattr__(name: str):
    if name in _ASYNC_EXPORTS:
        from ..service import async_api

        return getattr(async_api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Advisor",
    "AsyncAdvisor",
    "AsyncFleetAdvisor",
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
