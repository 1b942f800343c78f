"""The workload abstraction.

A workload is the paper's ``W_i``: the set of SQL statements processed by
one DBMS during a common monitoring interval, each with a frequency of
occurrence.  Because every workload is collected over the same interval
length, a "longer" workload (higher total frequency × statement cost)
represents a higher arrival rate, which is why the advisor may legitimately
give it more resources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Tuple

from ..dbms.query import QuerySpec
from ..exceptions import WorkloadError

#: Default monitoring interval (seconds); matches the 30-minute periods used
#: by the dynamic configuration management experiment (Section 7.10).
DEFAULT_MONITORING_INTERVAL_SECONDS = 1800.0


def _check_scale_factor(factor: float) -> None:
    """Reject negative, infinite and NaN intensity scale factors."""
    if not 0 <= factor < math.inf:
        raise WorkloadError(
            f"scale factor must be finite and not negative, got {factor}"
        )


@dataclass(frozen=True)
class WorkloadStatement:
    """One statement of a workload with its frequency of occurrence."""

    query: QuerySpec
    frequency: float = 1.0

    def __post_init__(self) -> None:
        # Written so that NaN fails the check too.
        if not 0 <= self.frequency < math.inf:
            raise WorkloadError(
                f"statement frequency must be finite and not negative, "
                f"got {self.frequency}"
            )

    def scaled(self, factor: float) -> "WorkloadStatement":
        """Return a copy with the frequency multiplied by ``factor``."""
        _check_scale_factor(factor)
        return replace(self, frequency=self.frequency * factor)


@dataclass(frozen=True)
class Workload:
    """A named, weighted set of statements observed over one interval.

    Attributes:
        name: workload identifier (``W1``, ``W2``, ... in the paper).
        statements: the statements and their frequencies.
        monitoring_interval_seconds: length of the interval over which the
            workload was collected; identical across workloads that are
            consolidated together.
    """

    name: str
    statements: Tuple[WorkloadStatement, ...]
    monitoring_interval_seconds: float = DEFAULT_MONITORING_INTERVAL_SECONDS

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("workload name must be non-empty")
        if self.monitoring_interval_seconds <= 0:
            raise WorkloadError("monitoring_interval_seconds must be positive")
        databases = {stmt.query.database for stmt in self.statements}
        if len(databases) > 1:
            raise WorkloadError(
                f"workload {self.name!r} mixes statements against different "
                f"databases: {sorted(databases)}"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def database(self) -> str:
        """Name of the database the workload runs against."""
        if not self.statements:
            raise WorkloadError(f"workload {self.name!r} has no statements")
        return self.statements[0].query.database

    @property
    def statement_count(self) -> float:
        """Total number of statement executions in the interval."""
        return sum(stmt.frequency for stmt in self.statements)

    @property
    def is_empty(self) -> bool:
        """Whether the workload contains no statements."""
        return not self.statements or self.statement_count == 0

    def statement_pairs(self) -> List[Tuple[QuerySpec, float]]:
        """Statements as ``(query, frequency)`` pairs (the engines' format)."""
        return [(stmt.query, stmt.frequency) for stmt in self.statements]

    def queries(self) -> List[QuerySpec]:
        """Distinct queries appearing in the workload."""
        seen: Dict[str, QuerySpec] = {}
        for stmt in self.statements:
            seen.setdefault(stmt.query.name, stmt.query)
        return list(seen.values())

    def frequency_of(self, query_name: str) -> float:
        """Total frequency of the named query within the workload."""
        return sum(
            stmt.frequency for stmt in self.statements if stmt.query.name == query_name
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def with_name(self, name: str) -> "Workload":
        """Return a copy of the workload under a different name."""
        return replace(self, name=name)

    def scaled(self, factor: float, name: str | None = None) -> "Workload":
        """Return a copy with every statement frequency multiplied by ``factor``.

        Scaling a workload models a change in its *intensity* (arrival rate)
        without changing the nature of its queries.
        """
        _check_scale_factor(factor)
        return Workload(
            name=name or self.name,
            statements=tuple(stmt.scaled(factor) for stmt in self.statements),
            monitoring_interval_seconds=self.monitoring_interval_seconds,
        )

    def combined(self, other: "Workload", name: str | None = None) -> "Workload":
        """Return the union of this workload and ``other``.

        Both workloads must run against the same database and be collected
        over the same monitoring interval.
        """
        if other.monitoring_interval_seconds != self.monitoring_interval_seconds:
            raise WorkloadError(
                "cannot combine workloads with different monitoring intervals"
            )
        return Workload(
            name=name or f"{self.name}+{other.name}",
            statements=self.statements + other.statements,
            monitoring_interval_seconds=self.monitoring_interval_seconds,
        )

    def __add__(self, other: "Workload") -> "Workload":
        return self.combined(other)

    @classmethod
    def from_pairs(
        cls,
        name: str,
        pairs: Iterable[Tuple[QuerySpec, float]],
        monitoring_interval_seconds: float = DEFAULT_MONITORING_INTERVAL_SECONDS,
    ) -> "Workload":
        """Build a workload from ``(query, frequency)`` pairs."""
        statements = tuple(
            WorkloadStatement(query=query, frequency=frequency)
            for query, frequency in pairs
        )
        return cls(
            name=name,
            statements=statements,
            monitoring_interval_seconds=monitoring_interval_seconds,
        )
