"""Physical plan operators and their resource usage.

A physical plan is a tree of operator nodes.  Each node records, at build
time, the *logical* resource usage it incurs: tuples processed, predicate
evaluations, index entries visited, sequential and random page requests,
pages written, and the size of the working set it touches.  These counts are
independent of who is looking at the plan:

* the engine-specific optimizer cost models weight the counts with their
  configuration parameters (Tables II and III of the paper) to produce a
  cost estimate in the engine's native unit, and
* the ground-truth execution model weights the same counts with the real
  per-operation times of the VM environment (plus the effects optimizers do
  not model) to produce an actual run time.

Keeping the counts logical — i.e. before buffer caching — lets the
estimation and execution paths apply their own cache models, which is one of
the sources of optimizer error the paper's online refinement corrects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..units import MB
from .cache import miss_fraction
from .catalog import Database, Index, Table
from .query import AggregateSpec, QuerySpec, TableAccess, UpdateProfile


@dataclass(frozen=True, slots=True)
class ResourceUsage:
    """Logical resource usage of (part of) a query plan.

    All fields are counts of logical operations; none of them carry a unit
    of time or cost.  ``working_set_pages`` approximates the number of
    distinct pages touched, which the cache models use to decide how many of
    the requested page reads actually reach the disk.

    Frozen so aggregated usage records can be memoized and shared across
    cost evaluations (plans are cached per engine configuration) without
    any risk of in-place corruption; slotted because the plan cache keeps
    many of them.
    """

    tuples: float = 0.0
    index_tuples: float = 0.0
    operator_evals: float = 0.0
    seq_pages: float = 0.0
    random_pages: float = 0.0
    pages_written: float = 0.0
    sort_spill_pages: float = 0.0
    rows_returned: float = 0.0
    working_set_pages: float = 0.0

    # Folding a plan's total usage adds once per node, so __add__ (and
    # scaled(), written the same way) build the result positionally, field
    # by field in declaration order, not through dataclasses.fields().
    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        return ResourceUsage(
            self.tuples + other.tuples,
            self.index_tuples + other.index_tuples,
            self.operator_evals + other.operator_evals,
            self.seq_pages + other.seq_pages,
            self.random_pages + other.random_pages,
            self.pages_written + other.pages_written,
            self.sort_spill_pages + other.sort_spill_pages,
            self.rows_returned + other.rows_returned,
            self.working_set_pages + other.working_set_pages,
        )

    def scaled(self, factor: float) -> "ResourceUsage":
        """Return a copy with every count multiplied by ``factor``.

        The working set is *not* scaled: repeating an access pattern touches
        the same pages again, not new ones.
        """
        if factor < 0:
            raise ConfigurationError("scale factor must not be negative")
        return ResourceUsage(
            self.tuples * factor,
            self.index_tuples * factor,
            self.operator_evals * factor,
            self.seq_pages * factor,
            self.random_pages * factor,
            self.pages_written * factor,
            self.sort_spill_pages * factor,
            self.rows_returned * factor,
            self.working_set_pages,
        )

    @property
    def page_reads(self) -> float:
        """Total logical page read requests (sequential + random)."""
        return self.seq_pages + self.random_pages

    @property
    def cpu_operations(self) -> float:
        """Total logical CPU operations of all kinds."""
        return self.tuples + self.index_tuples + self.operator_evals

    def as_dict(self) -> dict:
        """Return the usage as a plain dictionary (useful for reporting)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class PlanBuildContext:
    """Everything a plan node needs to compute its resource usage.

    Attributes:
        database: catalog the query runs against.
        work_mem_mb: memory available to each sort/hash operator (the
            PostgreSQL ``work_mem`` or the per-operator share of the DB2
            ``sortheap``).
        cache_mb: memory available for caching data pages (buffer pool plus
            any file-system cache the engine accounts for).  Scan nodes
            record only the page reads expected to *miss* this warm cache,
            so a plan's usage already reflects the memory configuration it
            was built for.
        cpu_work_per_tuple: ground-truth CPU work multiplier of the query;
            scan and join nodes multiply their tuple counts by it so that
            CPU-intensive queries are CPU intensive for both the optimizer
            and the executor.
    """

    database: Database
    work_mem_mb: float = 5.0
    cache_mb: float = 128.0
    cpu_work_per_tuple: float = 1.0

    def __post_init__(self) -> None:
        if self.work_mem_mb <= 0:
            raise ConfigurationError("work_mem_mb must be positive")
        if self.cache_mb < 0:
            raise ConfigurationError("cache_mb must not be negative")
        if self.cpu_work_per_tuple <= 0:
            raise ConfigurationError("cpu_work_per_tuple must be positive")

    @property
    def work_mem_bytes(self) -> float:
        """Per-operator sort/hash memory in bytes."""
        return self.work_mem_mb * MB

    @property
    def cache_pages(self) -> float:
        """Cache size expressed in pages of the target database."""
        return self.cache_mb * MB / self.database.page_size


class PlanNode:
    """Base class for physical plan operators."""

    label = "plan"

    def __init__(
        self,
        rows: float,
        width_bytes: float,
        usage: ResourceUsage,
        children: Sequence["PlanNode"] = (),
    ) -> None:
        if rows < 0:
            raise ConfigurationError("plan node rows must not be negative")
        if width_bytes <= 0:
            raise ConfigurationError("plan node width must be positive")
        self.rows = float(rows)
        self.width_bytes = float(width_bytes)
        self.usage = usage
        self.children: Tuple[PlanNode, ...] = tuple(children)
        self._total_usage: Optional[ResourceUsage] = None

    @property
    def output_bytes(self) -> float:
        """Size of this node's output in bytes."""
        return self.rows * self.width_bytes

    def total_usage(self) -> ResourceUsage:
        """Aggregate resource usage of this node and its entire subtree.

        A subtree is immutable once constructed, so the aggregate is
        memoized: evaluating one plan under many environments (the batch
        cost path walks whole grids of allocations) aggregates each subtree
        once instead of re-walking the tree per evaluation.  Sharing the
        memoized record is safe because :class:`ResourceUsage` is frozen.
        """
        total = self._total_usage
        if total is None:
            total = self.usage
            for child in self.children:
                total = total + child.total_usage()
            self._total_usage = total
        return total

    def walk(self) -> List["PlanNode"]:
        """Return this node and all descendants in pre-order."""
        nodes: List[PlanNode] = [self]
        for child in self.children:
            nodes.extend(child.walk())
        return nodes

    def describe(self, indent: int = 0) -> str:
        """Return a human-readable, EXPLAIN-like rendering of the subtree."""
        line = (
            f"{'  ' * indent}{self.label} "
            f"(rows={self.rows:.0f}, width={self.width_bytes:.0f})"
        )
        parts = [line]
        parts.extend(child.describe(indent + 1) for child in self.children)
        return "\n".join(parts)

    def signature(self) -> str:
        """Structural signature used to detect plan changes across configs."""
        child_sigs = ",".join(child.signature() for child in self.children)
        return f"{self.label}({child_sigs})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rows={self.rows:.0f})"


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------
class SeqScanNode(PlanNode):
    """Full sequential scan of a base table with local predicates.

    The recorded page reads are the reads expected to miss the warm cache
    of the build context; a table that fits entirely in the cache performs
    no physical I/O, as in the paper's warm-cache measurement methodology.
    """

    label = "SeqScan"

    def __init__(self, access: TableAccess, context: PlanBuildContext) -> None:
        table = context.database.table(access.table)
        out_rows = table.row_count * access.selectivity
        misses = miss_fraction(table.pages, context.cache_pages)
        usage = ResourceUsage(
            tuples=table.row_count * context.cpu_work_per_tuple,
            operator_evals=table.row_count * access.predicates_per_row,
            seq_pages=table.pages * misses,
            working_set_pages=table.pages,
        )
        super().__init__(rows=out_rows, width_bytes=access.output_width_bytes,
                         usage=usage)
        self.access = access
        self.table = table


class IndexScanNode(PlanNode):
    """Index scan of a base table: B-tree descent plus heap fetches."""

    label = "IndexScan"

    def __init__(self, access: TableAccess, context: PlanBuildContext) -> None:
        if access.index is None:
            raise ConfigurationError(
                f"access to {access.table!r} has no usable index"
            )
        table = context.database.table(access.table)
        index = context.database.index(access.index)
        fetched = table.row_count * access.effective_index_selectivity
        out_rows = table.row_count * access.selectivity

        index_leaf_pages = index.leaf_pages(table) * access.effective_index_selectivity
        index_descent_pages = index.height(table)
        if index.clustered:
            # Clustered fetches touch consecutive heap pages.
            heap_seq = min(table.pages, fetched / table.rows_per_page + 1.0)
            heap_random = 0.0
        else:
            heap_seq = 0.0
            heap_random = min(table.pages, fetched)

        working_set = (
            index_leaf_pages
            + index_descent_pages
            + min(table.pages, heap_seq + heap_random)
        )
        misses = miss_fraction(working_set, context.cache_pages)
        usage = ResourceUsage(
            tuples=fetched * context.cpu_work_per_tuple,
            index_tuples=fetched,
            operator_evals=fetched * access.predicates_per_row,
            seq_pages=(index_leaf_pages + heap_seq) * misses,
            random_pages=(index_descent_pages + heap_random) * misses,
            working_set_pages=working_set,
        )
        super().__init__(rows=out_rows, width_bytes=access.output_width_bytes,
                         usage=usage)
        self.access = access
        self.table = table
        self.index = index


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
class NestedLoopJoinNode(PlanNode):
    """Nested-loop join: the inner access is re-executed per outer row."""

    label = "NestLoop"

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        selectivity: float,
        join_predicates: float,
        context: PlanBuildContext,
    ) -> None:
        out_rows = outer.rows * inner.rows * selectivity
        rescans = max(0.0, outer.rows - 1.0)
        # Re-executions of the inner subtree repeat its logical operations.
        rescan_usage = inner.total_usage().scaled(rescans)
        usage = rescan_usage + ResourceUsage(
            operator_evals=outer.rows * inner.rows * join_predicates,
            tuples=out_rows * context.cpu_work_per_tuple,
        )
        width = outer.width_bytes + inner.width_bytes
        super().__init__(rows=out_rows, width_bytes=width, usage=usage,
                         children=(outer, inner))
        self.selectivity = selectivity


class HashJoinNode(PlanNode):
    """Hash join: builds a hash table on the inner input, probes with the outer.

    When the inner input does not fit into the operator's work memory, the
    spilled fraction of both inputs is written to temporary storage and read
    back, as in a Grace/hybrid hash join.  The spill volume shrinks linearly
    as work memory grows, and disappears once the inner side fits, which is
    one of the sources of the piecewise behaviour of cost versus memory.
    """

    label = "HashJoin"

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        selectivity: float,
        join_predicates: float,
        context: PlanBuildContext,
    ) -> None:
        out_rows = outer.rows * inner.rows * selectivity
        build_bytes = inner.output_bytes
        spill_fraction = 0.0
        if build_bytes > context.work_mem_bytes:
            spill_fraction = 1.0 - context.work_mem_bytes / build_bytes
        spilled_bytes = (inner.output_bytes + outer.output_bytes) * spill_fraction
        spilled_pages = spilled_bytes / context.database.page_size

        usage = ResourceUsage(
            # Build + probe hashing work.
            operator_evals=(inner.rows + outer.rows) * (1.0 + join_predicates),
            tuples=out_rows * context.cpu_work_per_tuple,
            pages_written=spilled_pages,
            seq_pages=spilled_pages,
        )
        width = outer.width_bytes + inner.width_bytes
        super().__init__(rows=out_rows, width_bytes=width, usage=usage,
                         children=(outer, inner))
        self.selectivity = selectivity
        self.spill_fraction = spill_fraction

    @property
    def in_memory(self) -> bool:
        """Whether the build side fits entirely in work memory."""
        return self.spill_fraction == 0.0


class SortMergeJoinNode(PlanNode):
    """Sort-merge join: both inputs sorted (if needed) then merged."""

    label = "MergeJoin"

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        selectivity: float,
        join_predicates: float,
        context: PlanBuildContext,
    ) -> None:
        sorted_outer = SortNode(outer, context)
        sorted_inner = SortNode(inner, context)
        out_rows = outer.rows * inner.rows * selectivity
        usage = ResourceUsage(
            operator_evals=(outer.rows + inner.rows) * join_predicates,
            tuples=out_rows * context.cpu_work_per_tuple,
        )
        width = outer.width_bytes + inner.width_bytes
        super().__init__(rows=out_rows, width_bytes=width, usage=usage,
                         children=(sorted_outer, sorted_inner))
        self.selectivity = selectivity


# ----------------------------------------------------------------------
# Sorting, aggregation, result delivery, updates
# ----------------------------------------------------------------------
class SortNode(PlanNode):
    """Sort of an intermediate result; spills to disk when memory is short.

    Spill I/O is recorded in the dedicated ``sort_spill_pages`` counter
    rather than in the ordinary page counters: temporary sort runs bypass
    the buffer cache, and keeping them separate lets the DB2 cost model
    under-weight them (the sort-heap modelling error Section 7.9 exploits).
    """

    label = "Sort"

    def __init__(self, child: PlanNode, context: PlanBuildContext) -> None:
        input_bytes = child.output_bytes
        comparisons = child.rows * max(1.0, math.log2(max(2.0, child.rows)))
        spill_fraction = 0.0
        if input_bytes > context.work_mem_bytes:
            spill_fraction = 1.0 - context.work_mem_bytes / input_bytes
        spilled_pages = input_bytes * spill_fraction / context.database.page_size
        usage = ResourceUsage(
            operator_evals=comparisons,
            sort_spill_pages=spilled_pages,
        )
        super().__init__(rows=child.rows, width_bytes=child.width_bytes,
                         usage=usage, children=(child,))
        self.spill_fraction = spill_fraction

    @property
    def in_memory(self) -> bool:
        """Whether the sort completes without spilling."""
        return self.spill_fraction == 0.0


class HashAggregateNode(PlanNode):
    """Hash-based aggregation; requires the group table to fit in memory."""

    label = "HashAggregate"

    def __init__(
        self,
        child: PlanNode,
        spec: AggregateSpec,
        context: PlanBuildContext,
    ) -> None:
        groups = max(1.0, child.rows * spec.group_fraction)
        usage = ResourceUsage(
            operator_evals=child.rows * (1.0 + spec.aggregates),
            tuples=groups,
        )
        super().__init__(rows=groups, width_bytes=child.width_bytes,
                         usage=usage, children=(child,))
        self.groups = groups

    @staticmethod
    def fits_in_memory(child: PlanNode, spec: AggregateSpec,
                       context: PlanBuildContext) -> bool:
        """Whether the hash table of groups fits in the operator's memory."""
        groups = max(1.0, child.rows * spec.group_fraction)
        return groups * child.width_bytes <= context.work_mem_bytes


class SortAggregateNode(PlanNode):
    """Sort-based aggregation: sorts the input and aggregates adjacent groups."""

    label = "GroupAggregate"

    def __init__(
        self,
        child: PlanNode,
        spec: AggregateSpec,
        context: PlanBuildContext,
    ) -> None:
        sorted_child = SortNode(child, context)
        groups = max(1.0, child.rows * spec.group_fraction)
        usage = ResourceUsage(
            operator_evals=child.rows * (1.0 + spec.aggregates),
            tuples=groups,
        )
        super().__init__(rows=groups, width_bytes=child.width_bytes,
                         usage=usage, children=(sorted_child,))
        self.groups = groups


class ResultNode(PlanNode):
    """Top-of-plan node that delivers rows to the client.

    The delivery cost (``rows_returned``) is deliberately *not* charged by
    the optimizer cost models — real optimizers ignore it because it is the
    same for every plan of a query — but the ground truth execution model
    charges it, mirroring the "non-modeled costs" discussed in Section 4.3.
    """

    label = "Result"

    def __init__(self, child: PlanNode, result_rows: Optional[float] = None) -> None:
        rows = child.rows if result_rows is None else float(result_rows)
        usage = ResourceUsage(rows_returned=rows)
        super().__init__(rows=rows, width_bytes=child.width_bytes,
                         usage=usage, children=(child,))


class UpdateNode(PlanNode):
    """Applies an OLTP statement's writes on top of its read plan.

    Dirtied pages are charged as page writes only: the pages being modified
    were just read by the statement's own read plan (so they are resident),
    and flushing them back is what the write cost accounts for.
    """

    label = "Update"

    def __init__(
        self,
        child: PlanNode,
        profile: UpdateProfile,
        context: PlanBuildContext,
    ) -> None:
        usage = ResourceUsage(
            tuples=profile.rows_written,
            pages_written=profile.pages_dirtied,
            working_set_pages=profile.pages_dirtied,
        )
        super().__init__(rows=child.rows, width_bytes=child.width_bytes,
                         usage=usage, children=(child,))
        self.profile = profile


@dataclass(frozen=True)
class QueryPlan:
    """A complete physical plan for one query.

    Attributes:
        query: the logical query the plan implements.
        root: root node of the operator tree (a :class:`ResultNode` or
            :class:`UpdateNode`).
        context: the build context (memory configuration) used.
    """

    query: QuerySpec
    root: PlanNode
    context: PlanBuildContext

    @property
    def usage(self) -> ResourceUsage:
        """Total logical resource usage of the plan."""
        return self.root.total_usage()

    @property
    def signature(self) -> str:
        """Structural signature; changes exactly when the plan shape changes."""
        return self.root.signature()

    def describe(self) -> str:
        """EXPLAIN-like rendering of the plan."""
        return self.root.describe()
