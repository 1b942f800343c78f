"""Seeded input generators for the three benchmark workloads.

Everything the program receives is a plain JSON document built here from
the ``--seed`` argument: the same seed gives byte-identical documents.
The generators only produce documents; solving them is the caller's job.

Working sets, against the program's own caches (the reason each workload
exists is recorded in ``BENCHMARK.json`` as well):

* ``serve-warm`` — ``SCENARIO_POOL`` (32) scenarios on 2 hardware
  profiles plus 2 fleets: under the service's 64-entry scenario memo and
  8-entry builder pool, so after the warm pass every request is a memo
  and cost-cache hit (and the 2 x ~50 fleet solves sit far below the
  4096-entry solve-memo).
* ``fleet-cold`` / ``bnb-exact`` — every tenant spec of a run is new
  (:class:`SpecLedger` enforces it), so the cost cache and the
  4096-entry solve-memo never answer a question asked by an earlier
  fleet; only the dbms plan cache (keyed by query and engine
  configuration) is shared across fleets, as in production.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

#: TPC-H q1..q22, the query templates every tenant draws from.
QUERIES = tuple(f"q{index}" for index in range(1, 23))
ENGINES = ("postgresql", "db2")

#: The coarse calibration grid the repository's fleet benchmarks use; it
#: keeps one-time calibration cheap for the served and exact workloads.
COARSE_CALIBRATION = {"cpu_shares": [0.25, 0.5, 0.75, 1.0]}

#: The two hardware shapes of every generated fleet (the paper's testbed
#: and a host with twice its CPU work-rate and memory), in the same
#: arrangement as ``repro.experiments.fleet.build_fleet_problem``.
SMALL_HOST = {"cpu_work_units_per_second": 2_000_000.0, "memory_mb": 8192.0}
LARGE_HOST = {"cpu_work_units_per_second": 4_000_000.0, "memory_mb": 16384.0}

#: serve-warm pool sizes: below the service's scenario memo (64) and
#: builder pool (8), so the warmed pool stays resident.
SCENARIO_POOL = 32
FLEET_POOL = 2

#: Fleet shapes (tenants x machines) per workload.
SERVED_FLEET_SHAPE = (12, 4)
COLD_FLEET_SHAPE = (12, 4)
EXACT_FLEET_SHAPE = (8, 4)


class SpecLedger:
    """Remembers every tenant workload handed out in one run.

    A tenant's workload is its engine plus its statement list; a ledger
    refuses to hand out the same workload twice, which is what makes a
    "cold" workload cold by construction rather than by luck.
    """

    def __init__(self) -> None:
        self._seen: Set[Tuple[Any, ...]] = set()

    def claim(self, engine: str, statements: Sequence[Sequence[Any]]) -> bool:
        key = (engine, tuple((query, frequency) for query, frequency in statements))
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


#: Statement frequency levels a fleet's statements cycle through.
_FREQUENCY_LEVELS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


def _balanced(rng: random.Random, values: Sequence[Any], count: int) -> List[Any]:
    """``count`` draws cycling through ``values``, shuffled."""
    drawn = [values[index % len(values)] for index in range(count)]
    rng.shuffle(drawn)
    return drawn


class Deck:
    """Deals values in shuffled full cycles: over a run, each is dealt equally often."""

    def __init__(self, rng: random.Random, values: Sequence[Any]) -> None:
        self._rng = rng
        self._values = tuple(values)
        self._cards: List[Any] = []

    def deal(self, count: int) -> List[Any]:
        """``count`` distinct values; a card that would repeat stays on top."""
        hand: List[Any] = []
        skipped: List[Any] = []
        while len(hand) < count:
            if not self._cards:
                self._cards = list(self._values)
                self._rng.shuffle(self._cards)
            card = self._cards.pop()
            (skipped if card in hand else hand).append(card)
        self._cards.extend(reversed(skipped))
        return hand


def decks(rng: random.Random) -> Tuple[Deck, Deck]:
    """The (query, frequency level) decks one run deals its statements from."""
    return Deck(rng, QUERIES), Deck(rng, _FREQUENCY_LEVELS)


def _fleet_tenants(
    rng: random.Random,
    n_tenants: int,
    ledger: Optional[SpecLedger],
    jitter: Optional[random.Random] = None,
    statement_decks: Optional[Tuple[Deck, Deck]] = None,
) -> List[Dict[str, Any]]:
    """Stratified random tenants for one fleet.

    Statement counts (1-3), engines, gains and demands are drawn as
    balanced multisets per fleet, and queries and frequency levels are
    dealt from decks that cycle through all of their values, across the
    fleets of a run when the run shares its ``statement_decks``.  Fleets
    differ in which tenant gets what (and in a small per-statement
    jitter), not in their total size, so per-fleet solve time and the
    objective stay comparable across seeds, which a benchmark needs to
    tell a code change from a different draw.  ``jitter`` (default:
    ``rng``) draws only the per-statement jitter.
    """
    jitter = jitter or rng
    query_deck, level_deck = statement_decks or decks(rng)
    engines = _balanced(rng, ENGINES, n_tenants)
    tenants = []
    for index, count in enumerate(_balanced(rng, (1, 2, 3), n_tenants)):
        pairs = zip(query_deck.deal(count), level_deck.deal(count))
        tenants.append(
            {"engine": engines[index], "statements": sorted([q, level] for q, level in pairs)}
        )
    for tenant in tenants:
        base = [level for _, level in tenant["statements"]]
        while True:
            statements = [
                [query, round(level + jitter.uniform(0.0, 0.05), 3)]
                for (query, _), level in zip(tenant["statements"], base)
            ]
            if ledger is None or ledger.claim(tenant["engine"], statements):
                break
        tenant["statements"] = statements
    gains = _balanced(rng, (1.0, 2.0, 3.0, 4.0), n_tenants)
    cpu = _balanced(rng, (200_000.0, 300_000.0, 400_000.0, 500_000.0), n_tenants)
    memory = _balanced(rng, (512.0, 768.0, 1024.0), n_tenants)
    return [
        {
            "name": f"tenant-{index + 1:02d}",
            **tenant,
            "gain_factor": gains[index],
            "cpu_demand": cpu[index],
            "memory_demand_mb": memory[index],
        }
        for index, tenant in enumerate(tenants)
    ]


def fleet_document(
    rng: random.Random,
    name: str,
    n_tenants: int,
    n_machines: int,
    resources: Sequence[str],
    ledger: Optional[SpecLedger] = None,
    calibration: Optional[Dict[str, Any]] = None,
    jitter: Optional[random.Random] = None,
    statement_decks: Optional[Tuple[Deck, Deck]] = None,
) -> Dict[str, Any]:
    """A FleetProblem document: every third machine is the large host."""
    machines = [
        {"name": f"machine-{index + 1:02d}", **(LARGE_HOST if index % 3 == 2 else SMALL_HOST)}
        for index in range(n_machines)
    ]
    tenants = _fleet_tenants(rng, n_tenants, ledger, jitter, statement_decks)
    return {
        "name": name,
        "resources": list(resources),
        "calibration": calibration,
        "machines": machines,
        "tenants": tenants,
    }


def _resources(index: int) -> List[str]:
    """Alternate CPU-only and CPU+memory control."""
    return ["cpu"] if index % 2 == 0 else ["cpu", "memory"]


def serve_pool(seed: int) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """The serve-warm request pool: (scenario documents, fleet documents).

    Scenarios carry no advisor options, so the service answers them with
    its default delta; they alternate between the default testbed and the
    large host (2 hardware profiles, both on the coarse calibration grid).

    The pool's shape (which queries, engines and gains share a scenario)
    is the same for every seed and the seed draws every statement
    frequency (as with the request order, see ``served.request_mix``).
    This workload measures the serving tier on warm answers; with a
    seeded shape, the solver work behind each warm answer and the mean
    answer cost moved by ~20% from seed to seed, which would hide the
    serving-tier changes it exists to show.
    """
    rng = random.Random("serve-warm:pool")
    jitter = random.Random(f"serve-warm:{seed}")
    ledger = SpecLedger()
    statement_decks = decks(rng)
    sizes = _balanced(rng, (2, 3), SCENARIO_POOL)
    drawn = _fleet_tenants(rng, sum(sizes), ledger, jitter, statement_decks)
    scenarios = []
    cursor = 0
    for index, size in enumerate(sizes):
        tenants = []
        for slot, tenant in enumerate(drawn[cursor : cursor + size]):
            tenants.append(
                {
                    "name": f"tenant-{slot + 1}",
                    "engine": tenant["engine"],
                    "statements": tenant["statements"],
                    "gain_factor": tenant["gain_factor"],
                }
            )
        cursor += size
        scenarios.append(
            {
                "name": f"scenario-{index:02d}",
                "resources": _resources(index),
                "machine": None if index % 2 == 0 else dict(LARGE_HOST),
                "calibration": COARSE_CALIBRATION,
                "tenants": tenants,
            }
        )
    n_tenants, n_machines = SERVED_FLEET_SHAPE
    fleets = [
        fleet_document(
            rng,
            f"served-fleet-{index}",
            n_tenants,
            n_machines,
            _resources(index),
            ledger,
            COARSE_CALIBRATION,
            jitter,
            statement_decks,
        )
        for index in range(FLEET_POOL)
    ]
    return scenarios, fleets


def setup_fleet(label: str, calibration: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The fleet a workload solves while setting up, the same for every seed.

    Three machines (small, small, large) and one tenant per engine: solving
    it calibrates both engines on both hardware shapes.  It does not depend
    on the seed, so set-up does the same work in every run.
    """
    rng = random.Random(f"{label}:setup")
    return fleet_document(rng, f"{label}-setup", 2, 3, ["cpu", "memory"], None, calibration)


class FleetStream:
    """An endless seeded sequence of fleets whose tenant specs never repeat.

    ``calibration`` is forwarded to every fleet; ``alternate_resources``
    switches between CPU-only and CPU+memory control fleet by fleet.

    As with ``serve_pool``, the sequence's shape (which queries, engines,
    gains and demands each tenant of each fleet gets) is the same for every
    seed and the seed draws every statement frequency.  A run gets through
    only ~100 (``fleet-cold``) or ~150 (``bnb-exact``) fleets, and with a
    seeded shape the run's median solve time moved by ~9% from seed to
    seed, which would hide the changes the workloads exist to show.
    """

    def __init__(
        self,
        seed: int,
        label: str,
        shape: Tuple[int, int],
        calibration: Optional[Dict[str, Any]] = None,
        alternate_resources: bool = True,
    ) -> None:
        self._rng = random.Random(f"{label}:shape")
        self._jitter = random.Random(f"{label}:{seed}")
        self._label = label
        self._shape = shape
        self._calibration = calibration
        self._alternate = alternate_resources
        self._decks = decks(self._rng)
        self.ledger = SpecLedger()
        self.produced = 0

    def claim(self, document: Dict[str, Any]) -> None:
        """Reserve the tenant workloads of a fleet made elsewhere."""
        for tenant in document["tenants"]:
            self.ledger.claim(tenant["engine"], tenant["statements"])

    def next(self) -> Dict[str, Any]:
        n_tenants, n_machines = self._shape
        index = self.produced
        self.produced += 1
        return fleet_document(
            self._rng,
            f"{self._label}-{index:04d}",
            n_tenants,
            n_machines,
            _resources(index) if self._alternate else ["cpu", "memory"],
            self.ledger,
            self._calibration,
            self._jitter,
            self._decks,
        )
