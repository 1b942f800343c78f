"""Cost-based query planner shared by the engine simulators.

The planner builds a left-deep physical plan for a :class:`QuerySpec`,
choosing among the access and join alternatives with whatever cost model the
calling engine supplies.  Because the choices depend on the cost model's
parameters — in particular the sort/hash memory and the cache size — the
*same* logical query gets different plans under different candidate resource
allocations, which is exactly the behaviour the paper's piecewise-linear
memory model captures (plan boundaries define the ``A_ij`` intervals of
Section 5.1).

Operators depend only on the memory setting (the build context); CPU
parameters merely reweight their usage.  A :class:`Planner` builds each
operator once per distinct input, so plans under different CPU parameters
share nodes, while plans at different memory settings are still built
apart and can still differ.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Optional, Protocol, Sequence, Tuple

from ..exceptions import OptimizationError
from .catalog import Database
from .plans import (
    HashAggregateNode,
    HashJoinNode,
    IndexScanNode,
    NestedLoopJoinNode,
    PlanBuildContext,
    PlanNode,
    QueryPlan,
    ResultNode,
    SeqScanNode,
    SortAggregateNode,
    SortMergeJoinNode,
    SortNode,
    UpdateNode,
)
from .query import JoinStep, QuerySpec, TableAccess


class PlanCostModel(Protocol):
    """Minimal interface the planner needs from an engine cost model."""

    def plan_cost(self, usage) -> float:  # pragma: no cover - protocol
        """Return the engine-native cost of a plan's resource usage."""
        ...


#: Nested-loop joins are only considered when the inner input is small;
#: this mirrors real optimizers' pruning and keeps planning fast.
_NESTED_LOOP_INNER_ROW_LIMIT = 50_000.0

#: Bound on the operator entries one planner remembers.  When full, the memo
#: is dropped wholesale, the policy of the cost cache; a benchmark run stays
#: far below it.
_MAX_OPERATOR_ENTRIES = 50_000


class Planner:
    """Builds physical plans for logical queries under a cost model.

    The planner memoizes the operators it builds, keyed by exactly what
    they depend on: an access's alternatives by ``(access, context)``, a
    join step's by ``(outer node, inner node, step, context)``, an
    aggregate's by ``(input node, spec, context)``, and the sort, result
    and update wrappers by their input node and arguments.  Each cost
    model still chooses among the alternatives in the same order, so every
    plan is the one an unmemoized planner would build, only made of shared
    nodes (and their memoized ``total_usage``).  This is sound because
    nodes are never mutated after construction and a catalog is complete
    before plans are built against it.

    The memo is read without a lock and written under one, within
    :data:`_MAX_OPERATOR_ENTRIES` entries.  Two threads may build the same
    entry at once; both hold equal, immutable values and the memo keeps
    the first, so the race is harmless.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._operators: Dict[Hashable, Any] = {}
        self._lock = threading.Lock()

    def _remember(self, key: Hashable, value: Any) -> Any:
        """Store ``value`` under ``key``; return the entry the memo keeps."""
        operators = self._operators
        with self._lock:
            if len(operators) >= _MAX_OPERATOR_ENTRIES:
                operators.clear()
            return operators.setdefault(key, value)

    def _wrapper(self, key: Hashable, node_type: Any, *args: Any) -> PlanNode:
        """The single-input operator ``node_type(*args)``, built once per ``key``."""
        node = self._operators.get(key)
        if node is None:
            node = self._remember(key, node_type(*args))
        return node

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def build_plan(
        self,
        query: QuerySpec,
        context: PlanBuildContext,
        cost_model: PlanCostModel,
    ) -> QueryPlan:
        """Return the cheapest plan for ``query`` under ``cost_model``."""
        if query.database != self.database.name:
            raise OptimizationError(
                f"query {query.name!r} targets database {query.database!r} but the "
                f"planner is bound to {self.database.name!r}"
            )
        node = self._best_access(query.driver, context, cost_model)
        for step in query.joins:
            node = self._best_join(node, step, context, cost_model)
        if query.aggregate is not None:
            node = self._best_aggregate(node, query, context, cost_model)
        if query.order_by:
            node = self._wrapper(("sort", node, context), SortNode, node, context)
        rows = query.result_rows
        root = self._wrapper(("result", node, rows), ResultNode, node, rows)
        if query.update is not None and not query.update.is_read_only:
            update = query.update
            root = self._wrapper(
                ("update", root, update, context), UpdateNode, root, update, context
            )
        return QueryPlan(query=query, root=root, context=context)

    # ------------------------------------------------------------------
    # Alternatives
    # ------------------------------------------------------------------
    def access_alternatives(
        self, access: TableAccess, context: PlanBuildContext
    ) -> Tuple[PlanNode, ...]:
        """All physical access paths available for a base-table access."""
        key = (access, context)
        alternatives = self._operators.get(key)
        if alternatives is None:
            alternatives = (SeqScanNode(access, context),)
            if access.index is not None and self.database.has_index(access.index):
                alternatives += (IndexScanNode(access, context),)
            alternatives = self._remember(key, alternatives)
        return alternatives

    def join_alternatives(
        self,
        outer: PlanNode,
        step: JoinStep,
        context: PlanBuildContext,
        cost_model: PlanCostModel,
    ) -> Tuple[PlanNode, ...]:
        """All physical join alternatives for one join step."""
        inner = self._best_access(step.access, context, cost_model)
        key = (outer, inner, step, context)
        alternatives = self._operators.get(key)
        if alternatives is None:
            selectivity, predicates = step.selectivity, step.join_predicates
            alternatives = (
                HashJoinNode(outer, inner, selectivity, predicates, context),
                SortMergeJoinNode(outer, inner, selectivity, predicates, context),
            )
            if inner.rows <= _NESTED_LOOP_INNER_ROW_LIMIT:
                alternatives += (
                    NestedLoopJoinNode(outer, inner, selectivity, predicates, context),
                )
            alternatives = self._remember(key, alternatives)
        return alternatives

    # ------------------------------------------------------------------
    # Choice helpers
    # ------------------------------------------------------------------
    def _best_access(
        self,
        access: TableAccess,
        context: PlanBuildContext,
        cost_model: PlanCostModel,
    ) -> PlanNode:
        return self._cheapest(self.access_alternatives(access, context), cost_model)

    def _best_join(
        self,
        outer: PlanNode,
        step: JoinStep,
        context: PlanBuildContext,
        cost_model: PlanCostModel,
    ) -> PlanNode:
        return self._cheapest(
            self.join_alternatives(outer, step, context, cost_model), cost_model
        )

    def _best_aggregate(
        self,
        node: PlanNode,
        query: QuerySpec,
        context: PlanBuildContext,
        cost_model: PlanCostModel,
    ) -> PlanNode:
        spec = query.aggregate
        assert spec is not None  # caller checks
        key = (node, spec, context)
        alternatives = self._operators.get(key)
        if alternatives is None:
            alternatives = (SortAggregateNode(node, spec, context),)
            if HashAggregateNode.fits_in_memory(node, spec, context):
                alternatives += (HashAggregateNode(node, spec, context),)
            alternatives = self._remember(key, alternatives)
        return self._cheapest(alternatives, cost_model)

    @staticmethod
    def _cheapest(alternatives: Sequence[PlanNode], cost_model: PlanCostModel) -> PlanNode:
        if not alternatives:
            raise OptimizationError("no plan alternatives were generated")
        best: Optional[PlanNode] = None
        best_cost = float("inf")
        for node in alternatives:
            cost = cost_model.plan_cost(node.total_usage())
            if cost < best_cost:
                best = node
                best_cost = cost
        assert best is not None
        return best
