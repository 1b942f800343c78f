"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload for one second, untraced and traced, and checks that
each prints a result line carrying exactly the metrics ``BENCHMARK.json``
declares, with their units, and no failures.  Then corrupts answers on
purpose (shares that do not sum to 1, a NaN, a 500) and checks that the
answer checks count each as a failure.  Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import served  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_runs(declared: Dict[str, Any]) -> List[str]:
    problems = []
    for workload in (entry["name"] for entry in declared["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {entry["name"]: entry["unit"] for entry in declared[section]}
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            where = f"{workload} --trace {trace}"
            if completed.returncode != 0:
                problems.append(f"{where}: exit {completed.returncode}: {completed.stderr[-500:]}")
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if units != expected:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: not correct: {completed.stdout[-800:]}")
            print(f"ok   {where}: {result['attempted']} attempted, {len(units)} metrics")
    return problems


def check_corruptions() -> List[str]:
    """Corrupted answers must fail the checks (and count as failures)."""
    from repro.fleet import FleetAdvisor, FleetProblem

    problems = []
    fleet = workloads.setup_fleet("selftest", workloads.COARSE_CALIBRATION)
    answer = FleetAdvisor(delta=0.25).recommend(FleetProblem.from_dict(fleet)).to_dict()
    if checks.fleet_answer_problems(answer, fleet):
        problems.append("a correct fleet answer was flagged")

    skewed = copy.deepcopy(answer)
    machine = next(m for m in skewed["machines"] if m["tenants"])
    machine["report"]["recommendation"]["allocations"][0]["cpu_share"] *= 0.5
    if not any("sum to" in p for p in checks.fleet_answer_problems(skewed, fleet)):
        problems.append("shares that do not sum to 1 passed the fleet check")

    poisoned = copy.deepcopy(answer)
    poisoned["total_weighted_cost"] = float("nan")
    if not checks.fleet_answer_problems(poisoned, fleet):
        problems.append("a NaN passed the fleet check")

    # The served path: a skewed /recommend body, and a non-200, each count.
    scenarios, fleets = workloads.serve_pool(1)
    checker = served.Checker(scenarios[:1], fleets[:0])
    entry = served.Entry("recommend", 0, "/recommend", b"")
    good = _served_answer(scenarios[0])
    bad = copy.deepcopy(good)
    bad["recommendation"]["allocations"][0]["cpu_share"] += 0.25
    samples = [
        served.Sample(entry, 0.0, 0.0, 0.0, 200, json.dumps(good).encode()),
        served.Sample(entry, 0.0, 0.0, 0.0, 200, json.dumps(bad).encode()),
        served.Sample(entry, 0.0, 0.0, 0.0, 500, b'{"error": "boom"}'),
        served.Sample(entry, 0.0, 0.0, 0.0, 200, b'{"total_cost": NaN}'),
    ]
    checked = served._check_all(checker, samples)
    if checked.failed != 3 or checked.answers[0] is None:
        problems.append(f"served checks counted {checked.failed} of 3 bad answers: {checked.failures}")
    print(f"ok   corrupted answers rejected ({checked.failed} served failures counted)")
    return problems


def _served_answer(scenario: Dict[str, Any]) -> Dict[str, Any]:
    from repro.service import AdvisorService

    with AdvisorService(backend="serial") as service:
        return service.recommend(scenario).to_dict()


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_corruptions() + check_runs(declared)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
