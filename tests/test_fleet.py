"""Tests for the fleet placement subsystem (:mod:`repro.fleet`).

Covers the fleet data model and its JSON round-trips (FleetProblem,
FleetReport, and the RecommendationReport round-trip they rely on), the
placement strategy registry and the three built-in strategies, the
capacity property of greedy-cost placement (hypothesis), and the
acceptance property that a repeated fleet recommendation performs zero
new cost-estimator evaluations through the shared cost cache.
"""

import gc
import json
import math
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Advisor
from repro.api.report import RecommendationReport
from repro.api.scenario import TenantSpec
from repro.exceptions import ConfigurationError, PlacementError
from repro.fleet import (
    PLACEMENTS,
    FleetAdvisor,
    FleetProblem,
    FleetReport,
    FleetTenant,
    GreedyCostPlacement,
    Machine,
    Placement,
)
from repro.experiments.fleet import build_fleet_problem


def small_fleet(n_tenants=4, n_machines=2, **overrides):
    """A small, fast fleet problem for unit tests."""
    machines = [{"name": f"m{i + 1}"} for i in range(n_machines)]
    tenants = [
        {
            "name": f"t{i + 1}",
            "engine": "postgresql" if i % 2 == 0 else "db2",
            "statements": [["q17" if i % 2 == 0 else "q18", 1.0 + i]],
            "gain_factor": 1.0 + i % 3,
        }
        for i in range(n_tenants)
    ]
    spec = {"tenants": tenants, "machines": machines, "name": "test-fleet"}
    spec.update(overrides)
    return FleetProblem.from_dict(spec)


@pytest.fixture(scope="module")
def fleet_advisor():
    """A shared fleet advisor: calibrations and caches persist across tests."""
    return FleetAdvisor(delta=0.25)


@pytest.fixture(scope="module")
def solved(fleet_advisor):
    """One solved small fleet, shared by the read-only report tests."""
    problem = small_fleet()
    return problem, fleet_advisor.recommend(problem)


# ----------------------------------------------------------------------
# Data model and validation
# ----------------------------------------------------------------------
class TestFleetModel:
    def test_machine_validation(self):
        with pytest.raises(ConfigurationError):
            Machine(name="")
        with pytest.raises(ConfigurationError):
            Machine(name="m", memory_mb=0.0)
        with pytest.raises(ConfigurationError):
            Machine(name="m", max_tenants=0)

    def test_machine_hardware_key_ignores_name(self):
        assert Machine(name="a").hardware_key == Machine(name="b").hardware_key

    def test_machine_physical_model(self):
        machine = Machine(name="m", cpu_work_units_per_second=1e6,
                          memory_mb=4096.0, cpu_cores=2)
        physical = machine.physical()
        assert physical.memory_mb == 4096.0
        assert physical.cpu_work_units_per_second == 1e6
        assert physical.cpu_cores == 2

    def test_tenant_accepts_flat_dict_and_validates_demands(self):
        tenant = FleetTenant.from_dict(
            {"name": "t", "statements": [["q17", 1.0]], "cpu_demand": 5.0}
        )
        assert tenant.name == "t"
        assert tenant.cpu_demand == 5.0
        with pytest.raises(ConfigurationError):
            FleetTenant.from_dict(
                {"name": "t", "statements": [["q17", 1.0]], "memory_demand_mb": 0.0}
            )

    def test_tenant_wraps_bare_spec(self):
        spec = TenantSpec(name="t", statements=(("q17", 1.0),))
        problem = FleetProblem(tenants=[spec], machines=[Machine(name="m")])
        assert isinstance(problem.tenants[0], FleetTenant)
        assert problem.tenants[0].spec == spec

    def test_problem_rejects_duplicates_and_empties(self):
        with pytest.raises(ConfigurationError):
            small_fleet(n_tenants=0)
        with pytest.raises(ConfigurationError):
            FleetProblem(tenants=[], machines=[Machine(name="m")])
        duplicate = {
            "tenants": [
                {"name": "t", "statements": [["q17", 1.0]]},
                {"name": "t", "statements": [["q18", 1.0]]},
            ],
            "machines": [{"name": "m"}],
        }
        with pytest.raises(ConfigurationError):
            FleetProblem.from_dict(duplicate)
        with pytest.raises(ConfigurationError):
            small_fleet(machines=[{"name": "m"}, {"name": "m"}])

    def test_fits_accounts_for_demands_and_caps(self):
        problem = FleetProblem(
            tenants=[
                {"name": "a", "statements": [["q17", 1.0]],
                 "memory_demand_mb": 5000.0},
                {"name": "b", "statements": [["q17", 1.0]],
                 "memory_demand_mb": 5000.0},
            ],
            machines=[Machine(name="m", memory_mb=8192.0)],
        )
        assert problem.fits(0, (0,))
        assert not problem.fits(0, (0, 1))          # memory over capacity
        assert not problem.fits(0, (0,), max_tenants=0)

    def test_validate_placement_raises_on_overload(self):
        problem = FleetProblem(
            tenants=[
                {"name": "a", "statements": [["q17", 1.0]],
                 "memory_demand_mb": 5000.0},
                {"name": "b", "statements": [["q17", 1.0]],
                 "memory_demand_mb": 5000.0},
            ],
            machines=[{"name": "m1", "memory_mb": 8192.0},
                      {"name": "m2", "memory_mb": 8192.0}],
        )
        problem.validate_placement([0, 1])
        with pytest.raises(PlacementError):
            problem.validate_placement([0, 0])
        with pytest.raises(PlacementError):
            problem.validate_placement([0])
        with pytest.raises(PlacementError):
            problem.validate_placement([0, 5])


# ----------------------------------------------------------------------
# Serialization round-trips
# ----------------------------------------------------------------------
class TestFleetSerialization:
    def test_problem_round_trips_via_json(self):
        problem = build_fleet_problem(n_tenants=5, n_machines=3)
        document = problem.to_json(indent=2)
        restored = FleetProblem.from_json(document)
        assert restored == problem
        assert restored.to_dict() == problem.to_dict()

    def test_problem_round_trip_preserves_calibration_overrides(self):
        problem = small_fleet(calibration={"cpu_shares": [0.25, 0.5, 1.0]})
        restored = FleetProblem.from_json(problem.to_json())
        assert restored.calibration == {"cpu_shares": (0.25, 0.5, 1.0)}
        assert restored == problem

    def test_problem_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            FleetProblem.from_dict({"tenants": [], "machines": [], "bogus": 1})
        with pytest.raises(ConfigurationError):
            Machine.from_dict({"name": "m", "cpus": 4})

    def test_recommendation_report_round_trips(self, solved):
        _, fleet_report = solved
        inner = next(
            m.report for m in fleet_report.machines if not m.is_idle
        )
        restored = RecommendationReport.from_json(inner.to_json())
        assert restored.to_dict() == inner.to_dict()
        assert restored.allocations == inner.allocations
        assert restored.total_cost == inner.total_cost
        # Unlimited degradation serializes as null and reads back as inf.
        assert all(
            math.isinf(t.degradation_limit) for t in restored.tenants
        )

    def test_fleet_report_round_trips(self, solved):
        _, fleet_report = solved
        document = fleet_report.to_json(indent=2)
        restored = FleetReport.from_json(document)
        assert restored.to_dict() == fleet_report.to_dict()
        assert restored.placement == fleet_report.placement
        assert restored.total_weighted_cost == fleet_report.total_weighted_cost
        assert restored.machines_used == fleet_report.machines_used
        # The nested per-machine reports are first-class objects again.
        for machine in restored.machines:
            if not machine.is_idle:
                assert isinstance(machine.report, RecommendationReport)
                assert machine.report.tenants

    def test_fleet_report_dict_is_json_safe(self, solved):
        _, fleet_report = solved
        json.dumps(fleet_report.to_dict())  # must not raise


# ----------------------------------------------------------------------
# Placement strategies
# ----------------------------------------------------------------------
class TestPlacementStrategies:
    def test_registry_names(self):
        for name in ("greedy-cost", "round-robin", "first-fit"):
            assert name in PLACEMENTS

    def test_unknown_strategy_is_rejected(self, fleet_advisor):
        with pytest.raises(ConfigurationError):
            fleet_advisor.recommend(small_fleet(), placement="no-such-strategy")

    def test_placement_accepts_instances(self, fleet_advisor):
        report = fleet_advisor.recommend(small_fleet(), placement=GreedyCostPlacement())
        assert report.strategy == "greedy-cost"

    def test_round_robin_spreads_tenants(self, fleet_advisor):
        problem = small_fleet(n_tenants=4, n_machines=2)
        report = fleet_advisor.recommend(problem, placement="round-robin")
        machines = [report.placement[f"t{i + 1}"] for i in range(4)]
        assert machines == ["m1", "m2", "m1", "m2"]

    def test_first_fit_packs_in_machine_order(self, fleet_advisor):
        problem = small_fleet(n_tenants=3, n_machines=2)
        report = fleet_advisor.recommend(problem, placement="first-fit")
        # min_share=0.05 allows 20 tenants per machine, so everything fits
        # on the first machine.
        assert set(report.placement.values()) == {"m1"}

    def test_first_fit_overflows_on_capacity(self, fleet_advisor):
        problem = small_fleet(n_tenants=3, n_machines=2)
        problem = problem.with_tenants(
            [
                FleetTenant(spec=t.spec, memory_demand_mb=4000.0)
                for t in problem.tenants
            ]
        )
        report = fleet_advisor.recommend(problem, placement="first-fit")
        # Only two 4000 MB tenants fit one 8192 MB machine.
        assert report.placement["t1"] == "m1"
        assert report.placement["t2"] == "m1"
        assert report.placement["t3"] == "m2"

    def test_placement_error_when_nothing_fits(self, fleet_advisor):
        problem = small_fleet(n_tenants=2, n_machines=1)
        problem = problem.with_tenants(
            [
                FleetTenant(spec=t.spec, memory_demand_mb=5000.0)
                for t in problem.tenants
            ]
        )
        for strategy in ("greedy-cost", "round-robin", "first-fit"):
            with pytest.raises(PlacementError):
                fleet_advisor.recommend(problem, placement=strategy)

    def test_greedy_cost_beats_or_matches_baselines(self, fleet_advisor):
        problem = build_fleet_problem(n_tenants=6, n_machines=3)
        greedy = fleet_advisor.recommend(problem, placement="greedy-cost")
        for baseline in ("round-robin", "first-fit"):
            other = fleet_advisor.recommend(problem, placement=baseline)
            assert (
                greedy.total_weighted_cost <= other.total_weighted_cost + 1e-9
            )

    def test_all_strategies_produce_valid_placements(self, fleet_advisor):
        problem = build_fleet_problem(n_tenants=6, n_machines=3)
        names = problem.machine_names()
        for strategy in PLACEMENTS.names():
            report = fleet_advisor.recommend(problem, placement=strategy)
            assignment = [
                names.index(report.placement[t.name]) for t in problem.tenants
            ]
            problem.validate_placement(assignment)


# ----------------------------------------------------------------------
# Fleet advisor behaviour
# ----------------------------------------------------------------------
class TestFleetAdvisor:
    def test_rejects_advisor_instance_plus_options(self):
        with pytest.raises(ConfigurationError):
            FleetAdvisor(advisor=Advisor(), delta=0.1)

    def test_every_machine_solved_by_inner_advisor(self, solved):
        problem, report = solved
        placed = 0
        for machine in report.machines:
            if machine.is_idle:
                assert machine.report is None
                assert machine.weighted_cost == 0.0
                continue
            inner = machine.report
            assert inner.provenance.enumerator == "greedy"
            assert inner.provenance.cost_function == "what-if"
            assert abs(sum(t.cpu_share for t in inner.tenants) - 1.0) < 1e-6
            assert tuple(t.name for t in inner.tenants) == machine.tenants
            placed += len(inner.tenants)
        assert placed == problem.n_tenants

    def test_fleet_totals_aggregate_machine_reports(self, solved):
        _, report = solved
        busy = [m for m in report.machines if not m.is_idle]
        assert report.total_cost == pytest.approx(
            sum(m.report.total_cost for m in busy)
        )
        assert report.total_weighted_cost == pytest.approx(
            sum(m.weighted_cost for m in busy)
        )
        # Weighted cost really is the gain-weighted objective.
        for machine in busy:
            weighted = sum(
                t.gain_factor * cost
                for t, cost in zip(machine.report.tenants,
                                   machine.report.per_workload_costs)
            )
            assert machine.weighted_cost == pytest.approx(weighted)

    def test_repeated_recommend_performs_zero_new_evaluations(self):
        advisor = FleetAdvisor(delta=0.25)
        problem = small_fleet()
        first = advisor.recommend(problem)
        assert first.cost_stats.evaluations > 0
        second = advisor.recommend(problem)
        assert second.cost_stats.evaluations == 0
        assert second.cost_stats.cache_misses == 0
        # The solve-memo answers repeat (machine, tenant-set) asks whole:
        # the second pass never even consults the point cost cache.
        assert second.cost_stats.cache_hits == 0
        assert second.cost_stats.placement_solve_hits > 0
        assert second.placement == first.placement
        assert second.total_weighted_cost == first.total_weighted_cost

    def test_value_equal_problem_reuses_the_cache(self):
        advisor = FleetAdvisor(delta=0.25)
        first = advisor.recommend(small_fleet())
        # A re-parsed (value-equal, not identical) problem is answered from
        # the same calibrations and cost cache.
        rebuilt = FleetProblem.from_json(small_fleet().to_json())
        second = advisor.recommend(rebuilt)
        assert second.cost_stats.evaluations == 0
        assert second.placement == first.placement

    def test_machine_problem_is_built_per_call_and_not_retained(self):
        advisor = FleetAdvisor(delta=0.25)
        problem = small_fleet()
        design = advisor.machine_problem(problem, 0, (2, 0))
        assert [tenant.name for tenant in design.tenants] == ["t1", "t3"]
        released = weakref.ref(design)
        del design
        gc.collect()
        assert released() is None
        # Each ask builds a fresh, equal problem over the same workloads
        # (the builder's by-value memo), which the cost cache keys on.
        first = advisor.machine_problem(problem, 0, (0, 2))
        again = advisor.machine_problem(problem, 0, (2, 0))
        assert again is not first
        assert again == first
        assert all(a is b for a, b in zip(first.tenants, again.tenants))

    def test_identical_hardware_shares_one_calibration(self, fleet_advisor):
        problem = small_fleet(n_tenants=2, n_machines=2)
        fleet_advisor.recommend(problem)
        keys = {
            fleet_advisor._builder_key(machine, problem)
            for machine in problem.machines
        }
        assert len(keys) == 1  # m1 and m2 are the same hardware shape

    def test_tenant_bound_follows_instance_enumerator_min_share(self):
        # An instance-supplied enumerator with a coarse min_share caps how
        # many tenants one machine can host; placement must respect that
        # bound (not the advisor-level default) instead of over-packing a
        # machine the enumerator then cannot divide.
        from repro.core.enumerator import DynamicProgrammingSearch

        advisor = FleetAdvisor(
            advisor=Advisor(
                enumerator=DynamicProgrammingSearch(delta=0.25, min_share=0.25)
            )
        )
        problem = small_fleet(n_tenants=6, n_machines=2)
        report = advisor.recommend(problem, placement="first-fit")
        # At most 1/0.25 = 4 tenants per machine.
        placed_on_m1 = sum(1 for m in report.placement.values() if m == "m1")
        assert placed_on_m1 == 4
        assert sum(1 for m in report.placement.values() if m == "m2") == 2
        with pytest.raises(PlacementError):
            advisor.recommend(
                small_fleet(n_tenants=9, n_machines=2), placement="first-fit"
            )

    def test_tenant_bound_respects_grid_quantization(self):
        # delta=0.125 with min_share=0.2: the grid rounds the minimum up to
        # 2 units = 0.25, so a machine holds at most 4 tenants even though
        # floor(1/0.2) = 5.  Placement must overflow to the next machine
        # instead of over-packing one the enumerator cannot divide.
        from repro.core.enumerator import DynamicProgrammingSearch

        search = DynamicProgrammingSearch(delta=0.125, min_share=0.2)
        assert search.effective_min_share == pytest.approx(0.25)
        advisor = FleetAdvisor(advisor=Advisor(enumerator=search))
        problem = small_fleet(n_tenants=5, n_machines=2)
        report = advisor.recommend(problem, placement="first-fit")
        assert sum(1 for m in report.placement.values() if m == "m1") == 4
        assert report.placement["t5"] == "m2"

    def test_coarse_grid_with_default_min_share_works(self):
        # delta=0.1 with the default min_share=0.05 used to round the
        # minimum level to 0 grid units (banker's rounding of 0.5) and
        # crash evaluating a zero share; it now rounds up to one unit.
        advisor = FleetAdvisor(enumerator="exhaustive-dp", delta=0.1)
        report = advisor.recommend(small_fleet(n_tenants=3, n_machines=2))
        assert len(report.placement) == 3
        for machine in report.machines:
            if not machine.is_idle:
                assert all(t.cpu_share >= 0.1 - 1e-9
                           for t in machine.report.tenants)

    def test_qos_infeasible_colocation_is_avoided_not_fatal(self):
        # A CPU-bound tenant's degradation is ~1/cpu_share, so with a 2.2x
        # limit a pair per machine is feasible (0.5 shares, ~2.0x) but any
        # triple is not (someone drops to <=0.25, ~4x).  greedy-cost must
        # price the infeasible triple probes as +inf and settle on 2+2
        # rather than crash with the probe's OptimizationError.
        from repro.core.enumerator import DynamicProgrammingSearch

        advisor = FleetAdvisor(
            advisor=Advisor(
                enumerator=DynamicProgrammingSearch(delta=0.25, min_share=0.25)
            )
        )
        tenants = [
            {
                "name": f"t{i + 1}",
                "engine": "db2",
                "statements": [["q18", 1.0]],
                "degradation_limit": 2.2,
            }
            for i in range(4)
        ]
        problem = FleetProblem(
            tenants=tenants, machines=[{"name": "m1"}, {"name": "m2"}]
        )
        report = advisor.recommend(problem, placement="greedy-cost")
        counts = {}
        for machine in report.placement.values():
            counts[machine] = counts.get(machine, 0) + 1
        assert counts == {"m1": 2, "m2": 2}
        for machine in report.machines:
            if not machine.is_idle:
                assert all(t.meets_degradation_limit
                           for t in machine.report.tenants)

    def test_qos_blocked_placement_error_names_the_real_cause(self):
        # One machine with plenty of capacity, two tenants whose pair can
        # never satisfy a 1.2x degradation limit: the error must point at
        # the degradation limits, not at capacity.
        from repro.core.enumerator import DynamicProgrammingSearch

        advisor = FleetAdvisor(
            advisor=Advisor(
                enumerator=DynamicProgrammingSearch(delta=0.25, min_share=0.25)
            )
        )
        problem = FleetProblem(
            tenants=[
                {"name": "a", "engine": "db2", "statements": [["q18", 1.0]],
                 "degradation_limit": 1.2},
                {"name": "b", "engine": "db2", "statements": [["q18", 1.0]],
                 "degradation_limit": 1.2},
            ],
            machines=[{"name": "m1"}],
        )
        with pytest.raises(PlacementError, match="degradation limits"):
            advisor.recommend(problem, placement="greedy-cost")

    def test_unknown_query_is_reported(self, fleet_advisor):
        problem = FleetProblem(
            tenants=[{"name": "t", "statements": [["q99", 1.0]]}],
            machines=[{"name": "m"}],
        )
        with pytest.raises(ConfigurationError, match="unknown query"):
            fleet_advisor.recommend(problem)

    def test_placement_helper_methods(self, solved):
        problem, report = solved
        names = problem.machine_names()
        assignment = tuple(
            names.index(report.placement[t.name]) for t in problem.tenants
        )
        placement = Placement(problem, assignment, strategy="greedy-cost")
        assert placement.as_mapping() == report.placement
        assert placement.machines_used == report.machines_used
        for machine_index in range(problem.n_machines):
            for tenant_index in placement.tenants_on(machine_index):
                assert placement.machine_of(tenant_index).name == names[machine_index]
        allocation = report.tenant_allocation(problem.tenants[0].name)
        assert 0.0 < allocation.cpu_share <= 1.0


# ----------------------------------------------------------------------
# Capacity property (hypothesis)
# ----------------------------------------------------------------------
#: One shared advisor so hypothesis examples reuse calibrations and caches.
_PROPERTY_ADVISOR = FleetAdvisor(delta=0.25)

_QUERIES = ("q17", "q18")


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_greedy_cost_never_exceeds_machine_capacities(data):
    """greedy-cost placement respects every machine's CPU and memory caps."""
    n_machines = data.draw(st.integers(min_value=1, max_value=3), label="machines")
    n_tenants = data.draw(st.integers(min_value=1, max_value=5), label="tenants")
    machines = [
        {
            "name": f"m{i}",
            "memory_mb": data.draw(
                st.sampled_from((2048.0, 4096.0, 8192.0)), label=f"mem{i}"
            ),
            "cpu_work_units_per_second": data.draw(
                st.sampled_from((1_000_000.0, 2_000_000.0)), label=f"cpu{i}"
            ),
        }
        for i in range(n_machines)
    ]
    tenants = [
        {
            "name": f"t{i}",
            "engine": "postgresql",
            "statements": [[data.draw(st.sampled_from(_QUERIES),
                                      label=f"q{i}"), 1.0]],
            "memory_demand_mb": data.draw(
                st.sampled_from((512.0, 1024.0, 2048.0)), label=f"dmem{i}"
            ),
            "cpu_demand": data.draw(
                st.sampled_from((0.0, 250_000.0, 500_000.0)), label=f"dcpu{i}"
            ),
        }
        for i in range(n_tenants)
    ]
    problem = FleetProblem(tenants=tenants, machines=machines)
    try:
        report = _PROPERTY_ADVISOR.recommend(problem, placement="greedy-cost")
    except PlacementError:
        # Infeasible instances are allowed; the property covers the rest.
        return
    per_machine = {machine["name"]: [0.0, 0.0] for machine in machines}
    for tenant in problem.tenants:
        load = per_machine[report.placement[tenant.name]]
        load[0] += tenant.cpu_demand
        load[1] += tenant.memory_demand_mb
    for machine in problem.machines:
        cpu, memory = per_machine[machine.name]
        assert cpu <= machine.cpu_work_units_per_second + 1e-9
        assert memory <= machine.memory_mb + 1e-9
