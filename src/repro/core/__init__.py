"""The virtualization design advisor (the paper's primary contribution).

* :mod:`repro.core.problem` — the virtualization design problem: workloads,
  resource allocations, QoS constraints (degradation limits ``L_i``) and
  priorities (benefit gain factors ``G_i``).
* :mod:`repro.core.cost_estimator` — what-if cost estimation through the
  calibrated query optimizers.
* :mod:`repro.core.enumerator` — the greedy configuration enumerator of
  Figure 11 and an exhaustive-search baseline.
* :mod:`repro.core.models` — linear, piecewise-linear, and multi-resource
  cost models fitted from estimates and observations.
* :mod:`repro.core.refinement` — online refinement (Section 5).
* :mod:`repro.core.dynamic` — dynamic configuration management (Section 6).
* :mod:`repro.core.advisor` — the :class:`Recommendation` result type
  (:class:`repro.api.Advisor` ties everything together).
"""

from .advisor import Recommendation
from .cost_estimator import ActualCostFunction, CostFunction, WhatIfCostEstimator
from .dynamic import DynamicConfigurationManager, PeriodDecision
from .enumerator import (
    DynamicProgrammingSearch,
    EnumerationResult,
    ExhaustiveSearch,
    GreedyConfigurationEnumerator,
)
from .problem import (
    ConsolidatedWorkload,
    ResourceAllocation,
    UNLIMITED_DEGRADATION,
    VirtualizationDesignProblem,
)
from .refinement import (
    BasicOnlineRefinement,
    GeneralizedOnlineRefinement,
    RefinementResult,
)

__all__ = [
    "ActualCostFunction",
    "BasicOnlineRefinement",
    "ConsolidatedWorkload",
    "CostFunction",
    "DynamicConfigurationManager",
    "DynamicProgrammingSearch",
    "EnumerationResult",
    "ExhaustiveSearch",
    "GeneralizedOnlineRefinement",
    "GreedyConfigurationEnumerator",
    "PeriodDecision",
    "Recommendation",
    "RefinementResult",
    "ResourceAllocation",
    "UNLIMITED_DEGRADATION",
    "VirtualizationDesignProblem",
    "WhatIfCostEstimator",
]
