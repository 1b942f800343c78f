"""Fleet-scale consolidation: tenant placement across many machines.

The paper's advisor divides **one** machine among ``N`` workloads; this
package adds the layer above it for a machine *fleet*:

* :class:`Machine`, :class:`FleetTenant`, :class:`FleetProblem` — the
  declarative, JSON round-trippable data model of "which tenants, which
  machines, what capacities" (:mod:`repro.fleet.problem`).
* :data:`PLACEMENTS` and the built-in strategies — ``"greedy-cost"``,
  ``"greedy-cost+ls"`` (the local-search improver), ``"bnb-fleet"`` (exact branch and bound at
  paper-sized fleets, :mod:`repro.fleet.bnb`), ``"exhaustive-fleet"``
  (the exact small-fleet baseline), ``"round-robin"``, ``"first-fit"`` —
  behind the same open registry pattern as the per-machine strategies
  (:mod:`repro.fleet.strategies`); :func:`resolve_placement` turns a
  request's strategy name and search budgets into a strategy, for both
  the CLI and ``POST /fleet``.
* :class:`FleetAdvisor` — places tenants, then delegates every machine's
  internal split to the existing :class:`repro.api.Advisor` over a shared
  cost cache (:mod:`repro.fleet.advisor`).
* :class:`FleetReport` / :class:`MachineReport` — the serializable
  two-level answer (:mod:`repro.fleet.report`).

Quick start::

    from repro.fleet import FleetAdvisor, FleetProblem, Machine

    fleet = FleetProblem(
        machines=[Machine("m1"), Machine("m2"), Machine("m3")],
        tenants=[
            {"name": f"tenant-{i}", "engine": "postgresql",
             "statements": [["q17", 1.0]]}
            for i in range(8)
        ],
    )
    report = FleetAdvisor().recommend(fleet)
    print(report.placement)            # tenant -> machine
    print(report.total_weighted_cost)  # the fleet objective
"""

from .advisor import FleetAdvisor
from .bnb import BnbSearchStats, BranchAndBoundPlacement
from .problem import (
    DEFAULT_MEMORY_DEMAND_MB,
    FleetProblem,
    FleetTenant,
    Machine,
    Placement,
)
from .report import FleetReport, MachineReport
from .solve_memo import SolveMemo
from .strategies import (
    PLACEMENTS,
    ExhaustiveFleetPlacement,
    FirstFitPlacement,
    GreedyCostPlacement,
    LocalSearchPlacement,
    PlacementSolver,
    PlacementStrategy,
    RoundRobinPlacement,
    improve_assignment,
    resolve_placement,
)

__all__ = [
    "BnbSearchStats",
    "BranchAndBoundPlacement",
    "DEFAULT_MEMORY_DEMAND_MB",
    "ExhaustiveFleetPlacement",
    "FirstFitPlacement",
    "FleetAdvisor",
    "FleetProblem",
    "FleetReport",
    "FleetTenant",
    "GreedyCostPlacement",
    "improve_assignment",
    "LocalSearchPlacement",
    "Machine",
    "MachineReport",
    "Placement",
    "PLACEMENTS",
    "PlacementSolver",
    "PlacementStrategy",
    "resolve_placement",
    "RoundRobinPlacement",
    "SolveMemo",
]
