"""The advisor's numeric result type.

:class:`Recommendation` is the canonical numeric answer to one design
problem; :class:`repro.api.Advisor` produces it and embeds it in its
:class:`~repro.api.report.RecommendationReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .problem import ResourceAllocation


@dataclass(frozen=True)
class Recommendation:
    """A complete recommendation for one design problem.

    Attributes:
        allocations: recommended resource shares, one per tenant.
        per_workload_costs: estimated cost (seconds) per tenant under the
            recommendation.
        total_cost: total estimated cost under the recommendation.
        default_cost: total estimated cost under the default ``1/N``
            allocation.
        estimated_improvement: the paper's relative-improvement metric,
            computed from estimates.
        iterations: greedy iterations used.
        cost_calls: cost-estimator invocations used.
    """

    allocations: Tuple[ResourceAllocation, ...]
    per_workload_costs: Tuple[float, ...]
    total_cost: float
    default_cost: float
    estimated_improvement: float
    iterations: int
    cost_calls: int

    def allocation_of(self, tenant_index: int) -> ResourceAllocation:
        """Allocation recommended for one tenant."""
        return self.allocations[tenant_index]
