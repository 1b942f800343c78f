"""Cross-strategy differential harness for fleet placement.

Every test here derives a random small :class:`~repro.fleet.FleetProblem`
from one hypothesis-drawn integer ``seed`` (instance shapes stay inside
``exhaustive-fleet``'s enumeration budget), so a failure prints the
falsifying seed and replaying it is one function call:
``fleet_from_seed(<seed>)`` rebuilds the exact instance, and
``--hypothesis-seed`` reruns the whole draw sequence.  The seed is also
embedded in every assertion message.

The differential properties:

* ``bnb-fleet`` returns the *bit-identical* optimum ``exhaustive-fleet``
  finds — same placement, same total cost as an exact float comparison,
  same canonical answer (modulo the strategy-name provenance field) —
  and agrees with it on infeasibility.
* No heuristic ever beats the exact optimum: ``greedy-cost``,
  ``greedy-cost+ls``, ``round-robin``, and ``first-fit`` answers cost at
  least the ``bnb-fleet`` optimum.

A scheduled CI job reruns this module under ``--hypothesis-seed=random``
so the harness keeps exploring new instances after merge.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import PlacementError
from repro.fleet import FleetAdvisor, FleetProblem

#: One shared advisor so hypothesis examples reuse calibrations and caches.
_DIFF_ADVISOR = FleetAdvisor(delta=0.25)

_QUERIES = ("q17", "q18", "q21")
_ENGINES = ("postgresql", "db2")

#: Heuristics that must never beat the exact optimum.  Constructive
#: strategies are incomplete — they may raise ``PlacementError`` on
#: feasible instances — so the property skips the ones that fail.
_HEURISTICS = ("greedy-cost", "greedy-cost+ls", "round-robin", "first-fit")


def fleet_from_seed(seed):
    """A random small fleet, deterministically derived from ``seed``.

    Machine shapes are drawn from a two-value pool so duplicated
    ``hardware_key``s (the symmetry-breaking case) occur often;
    ``max_tenants`` caps appear occasionally so capacity-infeasible
    branches are exercised too.
    """
    rng = random.Random(seed)
    n_machines = rng.randint(1, 3)
    n_tenants = rng.randint(1, 4)
    machines = []
    for index in range(n_machines):
        machine = {
            "name": f"m{index + 1}",
            "memory_mb": rng.choice((4096.0, 8192.0)),
        }
        if rng.random() < 0.2:
            machine["max_tenants"] = rng.randint(1, n_tenants)
        machines.append(machine)
    tenants = [
        {
            "name": f"t{index + 1}",
            "engine": rng.choice(_ENGINES),
            "statements": [[rng.choice(_QUERIES), rng.choice((1.0, 2.0))]],
            "gain_factor": rng.choice((1.0, 2.0, 3.0)),
            "memory_demand_mb": rng.choice((512.0, 1024.0)),
        }
        for index in range(n_tenants)
    ]
    return FleetProblem(
        tenants=tenants, machines=machines, name=f"differential-{seed}"
    )


def _canonical_answer(report):
    """The comparison payload: everything but the strategy-name field."""
    canonical = report.canonical_dict()
    canonical.pop("strategy")
    return canonical


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_bnb_is_bit_identical_to_exhaustive(seed):
    """bnb-fleet == exhaustive-fleet: placement, exact cost, whole answer."""
    problem = fleet_from_seed(seed)
    try:
        exact = _DIFF_ADVISOR.recommend(problem, placement="exhaustive-fleet")
    except PlacementError:
        with pytest.raises(PlacementError):
            _DIFF_ADVISOR.recommend(problem, placement="bnb-fleet")
        return
    bnb = _DIFF_ADVISOR.recommend(problem, placement="bnb-fleet")
    assert bnb.placement == exact.placement, f"seed={seed}"
    # Exact float equality is the contract, not approximate agreement.
    assert bnb.total_weighted_cost == exact.total_weighted_cost, f"seed={seed}"
    assert bnb.total_cost == exact.total_cost, f"seed={seed}"
    assert _canonical_answer(bnb) == _canonical_answer(exact), f"seed={seed}"
    assert bnb.placement_provenance["proven_optimal"] is True, f"seed={seed}"


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_no_heuristic_beats_the_exact_optimum(seed):
    """greedy/round-robin/first-fit answers cost >= the proven optimum."""
    problem = fleet_from_seed(seed)
    try:
        exact = _DIFF_ADVISOR.recommend(problem, placement="bnb-fleet")
    except PlacementError:
        return  # infeasible instance: nothing to compare
    for name in _HEURISTICS:
        try:
            heuristic = _DIFF_ADVISOR.recommend(problem, placement=name)
        except PlacementError:
            continue  # constructive strategies may fail where exact succeeds
        assert heuristic.total_weighted_cost >= (
            exact.total_weighted_cost - 1e-9
        ), f"seed={seed} strategy={name}"


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_bnb_succeeds_whenever_exhaustive_does(seed):
    """The exact searches agree on feasibility, not just on cost."""
    problem = fleet_from_seed(seed)
    try:
        _DIFF_ADVISOR.recommend(problem, placement="exhaustive-fleet")
    except PlacementError:
        return  # covered by the bit-identical test's raises branch
    # Must not raise:
    report = _DIFF_ADVISOR.recommend(problem, placement="bnb-fleet")
    assert set(report.placement) == {
        tenant.name for tenant in problem.tenants
    }, f"seed={seed}"


def _committed_machines(problem, report):
    """(machine index, tenant indices) of every occupied machine of a report."""
    index_of = {tenant.name: index for index, tenant in enumerate(problem.tenants)}
    return [
        (machine_index, tuple(index_of[name] for name in machine.tenants))
        for machine_index, machine in enumerate(report.machines)
        if machine.tenants
    ]


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_committed_reports_are_what_the_advisor_recommends(seed):
    """A committed machine's report is ``Advisor.recommend``'s for it.

    Placement probes price machines from per-machine searches alone, and a
    machine's report is assembled from its memoized search only when the
    placement commits to it.  Each run gets a fresh fleet advisor, so
    every commit reuses a search its own probes made; the report must
    still equal a direct recommend on the same per-machine problem.
    """
    problem = fleet_from_seed(seed)
    runs = []
    for name in ("greedy-cost", "greedy-cost+ls", "bnb-fleet"):
        advisor = FleetAdvisor(delta=0.25)
        try:
            runs.append((advisor, advisor.recommend(problem, placement=name)))
        except PlacementError:
            continue
    if runs:
        advisor = FleetAdvisor(delta=0.25)
        moved = [problem.tenants[0].name]
        try:
            runs.append(
                (advisor, advisor.recommend_incremental(problem, runs[0][1], moved=moved))
            )
        except PlacementError:
            pass
    for advisor, report in runs:
        for machine_index, tenants in _committed_machines(problem, report):
            direct = advisor.advisor.recommend(
                advisor.machine_problem(problem, machine_index, tenants)
            )
            assert report.machines[machine_index].report.canonical_dict() == (
                direct.canonical_dict()
            ), f"seed={seed} strategy={report.strategy} machine={machine_index}"
