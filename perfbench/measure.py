"""Small statistics helpers shared by the workloads."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from typing import List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def tail_samples(count: int, q: float) -> float:
    """How many samples lie beyond the ``q``-th percentile of ``count``."""
    return count * (100.0 - q) / 100.0


#: The probe's dict keys, made once, outside the timed work.
_PROBE_KEYS = [(index % 97, index % 89) for index in range(97 * 89)]


def _probe_work(rounds: int) -> float:
    """Fixed pure-Python work in the solver's idiom: tuple-keyed dict
    lookups, float arithmetic and sorting.  It runs only benchmark code, so
    a change to the program cannot move it.  It runs with the garbage
    collector off and allocates only two containers, so the size of the
    program's heap in the same process cannot move it either (a collection
    during the probe would traverse that heap)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        keys = _PROBE_KEYS
        table = dict.fromkeys(keys, 1.0)
        total = 0.0
        for index in range(rounds):
            key = keys[index % len(keys)]
            value = table[key] * 0.999 + math.sqrt(index + 1.0) / (1.0 + key[0])
            table[key] = value
            total += min(value, 50.0)
        return total + sum(sorted(table.values())[:10])
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Scales times measured on a shared host to a reference host speed.

    A shared host's speed drifts by up to 2x within minutes (neighbours on
    the same cores and caches), and a solve's wall time and CPU time drift
    alike, so neither longer runs nor CPU time make the in-process
    workloads steady.  The caller calls ``probe()`` before its first
    operation and after each one, which times a fixed piece of
    benchmark-only work; ``scale(index, seconds)`` then turns the measured
    time of operation ``index`` into its time on a host where the probe
    takes ``REFERENCE_PROBE_S``, using the median of the three probes
    before and the three after it (one probe hit by a preemption does not
    move it).  A program change moves the operations, not the probe, so it
    shows in full in the scaled times.
    """

    #: Probe time on the reference host (a 2-vCPU VM of a shared x86-64
    #: host with idle neighbours); scaled times read as on that host.
    REFERENCE_PROBE_S = 0.010
    ROUNDS = 18_000

    def __init__(self) -> None:
        self.probes: List[float] = []

    def probe(self) -> None:
        started = time.perf_counter()
        _probe_work(self.ROUNDS)
        self.probes.append(time.perf_counter() - started)

    def factor(self, index: int) -> float:
        """Reference speed over measured speed around operation ``index``."""
        window = self.probes[max(0, index - 2) : index + 4]
        return self.REFERENCE_PROBE_S / statistics.median(window)

    def scale(self, index: int, seconds: float) -> float:
        return seconds * self.factor(index)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
