"""Answer checks: every answer the benchmark times must also be right.

An answer fails when it is not strict JSON (NaN and infinities are not
JSON), when a number in it is not finite, when a machine's controlled
shares do not sum to 1, when a placement leaves a tenant out or overfills
a machine, or when it differs (by ``canonical_dict()``) from a reference
answer the caller computed with the serial in-process library.  Each
check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: Tolerance on a sum of shares; the advisors quantize to far finer steps.
SHARE_TOLERANCE = 1e-6
#: Tolerance on capacity sums, as the program's own ``FleetProblem.fits``.
CAPACITY_TOLERANCE = 1e-9

_SHARE_FIELD = {"cpu": "cpu_share", "memory": "memory_fraction"}


def _reject_constant(token: str) -> Any:
    raise ValueError(f"non-finite JSON constant {token}")


def parse_strict(body: bytes) -> Any:
    """Parse a response body, refusing NaN / Infinity tokens."""
    return json.loads(body, parse_constant=_reject_constant)


def _non_finite(value: Any, path: str = "$") -> List[str]:
    if isinstance(value, float):
        return [] if math.isfinite(value) else [f"{path} is {value}"]
    if isinstance(value, Mapping):
        problems: List[str] = []
        for key, item in value.items():
            problems += _non_finite(item, f"{path}.{key}")
        return problems
    if isinstance(value, (list, tuple)):
        problems = []
        for index, item in enumerate(value):
            problems += _non_finite(item, f"{path}[{index}]")
        return problems
    return []


def json_problems(answer: Any) -> List[str]:
    """The answer must survive strict JSON encoding with finite numbers only."""
    problems = _non_finite(answer)
    try:
        json.dumps(answer, allow_nan=False)
    except ValueError as error:
        problems.append(f"not strict JSON: {error}")
    return problems


def recommendation_problems(
    answer: Mapping[str, Any],
    tenant_names: Sequence[str],
    resources: Iterable[str],
    where: str = "answer",
) -> List[str]:
    """Shares of every controlled resource sum to 1 over the named tenants."""
    allocations = answer["recommendation"]["allocations"]
    names = [entry["tenant"] for entry in allocations]
    if sorted(names) != sorted(tenant_names):
        return [f"{where}: allocates {names}, expected {list(tenant_names)}"]
    problems = []
    for resource in resources:
        shares = [entry[_SHARE_FIELD[resource]] for entry in allocations]
        if any(not 0.0 < share <= 1.0 for share in shares):
            problems.append(f"{where}: {resource} share outside (0, 1]: {shares}")
        total = sum(shares)
        if abs(total - 1.0) > SHARE_TOLERANCE:
            problems.append(f"{where}: {resource} shares sum to {total!r}, not 1")
    return problems


def scenario_answer_problems(
    answer: Mapping[str, Any], scenario: Mapping[str, Any]
) -> List[str]:
    """Checks for one ``/recommend`` answer to a Scenario document."""
    problems = json_problems(answer)
    if problems:
        return problems
    names = [tenant["name"] for tenant in scenario["tenants"]]
    return recommendation_problems(answer, names, scenario.get("resources", ("cpu", "memory")))


def fleet_answer_problems(
    answer: Mapping[str, Any], fleet: Mapping[str, Any]
) -> List[str]:
    """Checks for one fleet answer: placement complete, capacity kept, shares sum to 1."""
    problems = json_problems(answer)
    if problems:
        return problems
    tenants = {tenant["name"]: tenant for tenant in fleet["tenants"]}
    machines = {machine["name"]: machine for machine in fleet["machines"]}
    placement = answer["placement"]
    if sorted(placement) != sorted(tenants):
        return [f"placement covers {sorted(placement)}, expected {sorted(tenants)}"]
    hosted: Dict[str, List[str]] = {name: [] for name in machines}
    for tenant, machine in placement.items():
        if machine not in hosted:
            return [f"tenant {tenant!r} placed on unknown machine {machine!r}"]
        hosted[machine].append(tenant)
    resources = fleet.get("resources", ("cpu", "memory"))
    weighted = 0.0
    for report in answer["machines"]:
        name = report["machine"]["name"]
        on_machine = hosted.get(name, [])
        if sorted(report["tenants"]) != sorted(on_machine):
            problems.append(f"machine {name!r} reports {report['tenants']}, placed {on_machine}")
            continue
        capacity = machines[name]
        cpu = sum(tenants[t].get("cpu_demand", 0.0) for t in on_machine)
        memory = sum(tenants[t].get("memory_demand_mb", 512.0) for t in on_machine)
        if cpu > capacity.get("cpu_work_units_per_second", 2_000_000.0) + CAPACITY_TOLERANCE:
            problems.append(f"machine {name!r} over CPU capacity ({cpu})")
        if memory > capacity.get("memory_mb", 8192.0) + CAPACITY_TOLERANCE:
            problems.append(f"machine {name!r} over memory capacity ({memory})")
        if on_machine:
            problems += recommendation_problems(
                report["report"], on_machine, resources, f"machine {name!r}"
            )
        weighted += report["weighted_cost"]
    total = answer["total_weighted_cost"]
    if total < 0 or abs(weighted - total) > 1e-6 * max(1.0, abs(total)):
        problems.append(f"total_weighted_cost {total!r} != machine sum {weighted!r}")
    return problems


def weighted_cost(answer: Mapping[str, Any]) -> float:
    """Gain-weighted total cost of a ``/recommend`` answer."""
    tenants = answer["tenants"]
    costs = answer["recommendation"]["per_workload_costs"]
    gains = {tenant["name"]: tenant.get("gain_factor", 1.0) for tenant in tenants}
    names = [entry["tenant"] for entry in answer["recommendation"]["allocations"]]
    return sum(gains.get(name, 1.0) * cost for name, cost in zip(names, costs))


def canonical_mismatch(canonical: Any, reference: Optional[Any]) -> List[str]:
    if reference is not None and canonical != reference:
        return ["answer differs from the serial in-process library answer"]
    return []
