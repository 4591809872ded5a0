"""NumPy-vectorized matching engine (the C++-fidelity substitute).

Peregrine's hot loop is adjacency-list intersection on a 16-core C++
machine; CPython cannot match that with interpreted merge loops.  This
module provides vectorized versions of the :mod:`repro.core.candidates`
kernels operating on sorted ``numpy`` arrays — the closest
offline-available stand-in for the paper's compiled set operations — and
builds them into :class:`FrontierBatchedEngine`, the production engine:
a level-synchronous analogue of :func:`repro.core.engine.run_tasks` that
extends every live partial match of a matching-order level per numpy
dispatch.  :func:`fused_run` walks one shared frontier for a group of
patterns on top of it.

The engine covers the **full pattern-feature matrix** of the paper:

* edge-induced and vertex-induced matching (anti-edge difference
  kernels via :func:`np_difference`, Theorem 3.1);
* anti-edges and anti-vertices (§4.3) — anti-edges become difference
  masks during expansion, anti-vertex checks run on materialized
  matches;
* labeled patterns — :class:`AcceleratedGraphView` keeps a label array
  plus label-partitioned vertex arrays, so label constraints become
  boolean masks and label-restricted range scans instead of per-vertex
  Python comparisons;
* per-match callbacks and row batches in the reference engine's DFS
  order, and the enumeration-free tail count when no callback needs the
  matches.

Counts *and* callback order must agree **exactly** with the reference
interpreter on every feature combination — ``tests/test_accel.py``
fuzzes that equivalence against both the reference engine and the
networkx oracles.  :mod:`repro.core.session` dispatches every run here
unless a ``stats`` / ``timer`` hook pins the interpreter; the batched
engine beats the interpreter on every measured graph, sparse and tiny
ones included (``benchmarks/bench_engine_frontier.py``).
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from ..errors import BudgetExceededError, MatchingError, PartialResult
from ..graph.graph import DataGraph
from ..pattern.pattern import Pattern
from .callbacks import ExplorationControl, Match
from .matching_order import OrderedCore
from .plan import ExplorationPlan, NonCoreStep, generate_plan

__all__ = [
    "bounded_slices",
    "np_bounded",
    "np_intersect",
    "np_intersect_many",
    "np_difference",
    "AcceleratedGraphView",
    "FrontierBatchedEngine",
    "HubMembershipIndex",
    "ROARING_HUB_MIN_DEGREE",
    "hub_degree_threshold",
    "SharedFrontierGathers",
    "ACCEL_FRONTIER_CHUNK",
    "frontier_start_order",
    "shared_view",
    "frontier_count",
    "fused_run",
]

# Frontier rows expanded per kernel dispatch.  Each expansion touches
# O(rows * avg_degree) intermediate elements, so the default bounds peak
# memory to a few tens of MB on dense graphs while still amortizing
# numpy call overhead across thousands of partial matches.  Tunable per
# run via the ``frontier_chunk`` knob on :func:`repro.core.api.match`.
ACCEL_FRONTIER_CHUNK = 16_384

# Hub membership (the roaring second tier): a vertex qualifies for a
# packed dense bit row when its degree reaches both this floor and
# n / 64.  The floor keeps tiny graphs on pure searchsorted (row builds
# are not free); the density cut bounds the index at 8x the hubs' own
# adjacency bytes (a row costs n/8 bytes vs >= 8 * n/64 adjacency).
# ``benchmarks/bench_storage.py`` measures the membership crossover.
ROARING_HUB_MIN_DEGREE = 128


def hub_degree_threshold(num_vertices: int) -> int:
    """Minimum degree for a vertex to earn a dense membership row."""
    return max(ROARING_HUB_MIN_DEGREE, num_vertices >> 6)


def bounded_slices(weights: np.ndarray, cap: int):
    """Consecutive slices of ``weights`` whose sums stay near ``cap``.

    The chunking rule shared by :meth:`FrontierBatchedEngine._row_groups`
    (candidate totals per gather), :func:`_frontier_slices` (fused
    frontier walks) and — in its pure-Python mirror
    :func:`repro.runtime.scheduler.weighted_boundaries` — the concurrent
    runtimes' degree-weighted work chunks: a slice closes as soon as its
    cumulative weight reaches ``cap``, and a lone over-cap element still
    forms a slice of its own, so progress is guaranteed and the worst
    case is one element's weight, not ``rows * max_weight``.
    """
    if weights.size == 0:
        return
    cum = np.cumsum(weights)
    if int(cum[-1]) <= cap:
        yield slice(0, weights.size)
        return
    start = 0
    while start < weights.size:
        base = int(cum[start - 1]) if start else 0
        end = int(np.searchsorted(cum, base + cap, side="left")) + 1
        end = min(max(end, start + 1), weights.size)
        yield slice(start, end)
        start = end


def np_bounded(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Elements v of a sorted array with ``lo < v < hi`` (exclusive)."""
    left = np.searchsorted(values, lo, side="right")
    right = np.searchsorted(values, hi, side="left")
    return values[left:right]


def np_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique arrays.

    ``searchsorted``-based membership of the smaller array in the larger —
    the vectorized equivalent of the galloping merge in
    :func:`repro.core.candidates.intersect`.
    """
    if a.size > b.size:
        a, b = b, a
    if a.size == 0 or b.size == 0:
        return a[:0]
    idx = np.searchsorted(b, a)
    idx[idx == b.size] = 0
    return a[b[idx] == a]


def np_intersect_many(lists: list[np.ndarray]) -> np.ndarray:
    """Intersection of any number of sorted unique arrays, smallest first."""
    if not lists:
        return np.empty(0, dtype=np.int64)
    ordered = sorted(lists, key=lambda arr: arr.size)
    result = ordered[0]
    for other in ordered[1:]:
        if result.size == 0:
            break
        result = np_intersect(result, other)
    return result


def np_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted array difference ``a \\ b``."""
    if a.size == 0 or b.size == 0:
        return a
    idx = np.searchsorted(b, a)
    idx[idx == b.size] = 0
    return a[b[idx] != a]


class AcceleratedGraphView:
    """CSR ``numpy`` adjacency (+ label) views over a degree-ordered graph.

    The flat/offset arrays are plain contiguous ``int64`` buffers, which
    makes the view cheap to share: fork-inherited copy-on-write pages or
    ``multiprocessing.shared_memory`` segments both work without pickling
    a single adjacency list (see :func:`repro.runtime.parallel.process_count`).
    """

    __slots__ = (
        "graph",
        "_flat",
        "_offsets",
        "_labels",
        "_label_arrays",
        "_adj_keys",
        "_degrees",
        "_hub_index",
    )

    def __init__(self, graph: DataGraph):
        self.graph = graph
        arrays = graph.csr_arrays()
        if arrays is not None:
            # Array-backed graph (mmap store / .npz load): alias its CSR
            # sections zero-copy — cold start is the mmap call the loader
            # already made, not an O(E) rebuild.
            offsets, flat, labels = arrays
            self._offsets = offsets
            self._flat = flat
            self._labels = labels
        else:
            degrees = [graph.degree(v) for v in graph.vertices()]
            self._offsets = np.zeros(graph.num_vertices + 1, dtype=np.int64)
            np.cumsum(degrees, out=self._offsets[1:])
            self._flat = np.empty(int(self._offsets[-1]), dtype=np.int64)
            for v in graph.vertices():
                lo, hi = self._offsets[v], self._offsets[v + 1]
                self._flat[lo:hi] = graph.neighbors(v)
            labels = graph.labels()
            self._labels = (
                np.asarray(labels, dtype=np.int64) if labels is not None else None
            )
        self._label_arrays: dict[int, np.ndarray] | None = None
        self._adj_keys: np.ndarray | None = None
        self._degrees: np.ndarray | None = None
        self._hub_index = None

    @classmethod
    def from_csr(
        cls,
        flat: np.ndarray,
        offsets: np.ndarray,
        labels: np.ndarray | None = None,
        graph: DataGraph | None = None,
    ) -> "AcceleratedGraphView":
        """Wrap pre-built CSR buffers (e.g. shared-memory segments)."""
        view = cls.__new__(cls)
        view.graph = graph
        view._flat = flat
        view._offsets = offsets
        view._labels = labels
        view._label_arrays = None
        view._adj_keys = None
        view._degrees = None
        view._hub_index = None
        return view

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The raw ``(flat, offsets, labels)`` buffers (do not mutate)."""
        return self._flat, self._offsets, self._labels

    @property
    def num_vertices(self) -> int:
        return int(self._offsets.size - 1)

    @property
    def labels(self) -> np.ndarray | None:
        """Per-vertex label array (``None`` for unlabeled graphs)."""
        return self._labels

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of ``v`` (a zero-copy view)."""
        return self._flat[self._offsets[v]: self._offsets[v + 1]]

    def vertices_with_label(self, label: int) -> np.ndarray:
        """Sorted vertex-id array carrying ``label`` (lazily partitioned)."""
        if self._labels is None:
            return np.empty(0, dtype=np.int64)
        if self._label_arrays is None:
            self._label_arrays = {
                int(lab): np.flatnonzero(self._labels == lab).astype(np.int64)
                for lab in np.unique(self._labels)
            }
        return self._label_arrays.get(label, np.empty(0, dtype=np.int64))

    def degrees(self) -> np.ndarray:
        """Per-vertex degree array (lazy ``diff(offsets)``, cached).

        Every :class:`FrontierBatchedEngine` instance needs it for its
        min-degree pivot picks; caching it on the view means multi-pattern
        workloads (censuses, FSM rounds, fused runs) pay the O(E) diff
        once per graph rather than once per engine construction.
        """
        if self._degrees is None:
            self._degrees = np.diff(self._offsets)
        return self._degrees

    def adjacency_keys(self) -> np.ndarray:
        """Globally sorted ``owner * (n + 1) + neighbor`` keys (lazy).

        The flat CSR array is sorted *per segment* only; fusing the owner
        into each entry yields one globally sorted array, so a single
        ``searchsorted`` answers per-element queries over *different*
        adjacency lists at once — the primitive every frontier-batched
        membership test and bound rank is built on.  The ``n + 1``
        multiplier leaves headroom for queries with the sentinel bounds
        ``-1`` and ``n`` without colliding into adjacent segments.
        """
        if self._adj_keys is None:
            n = self.num_vertices
            owners = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self._offsets)
            )
            self._adj_keys = owners * (n + 1) + self._flat
        return self._adj_keys

    def hub_index(self, min_degree: int | None = None):
        """The view's :class:`HubMembershipIndex`, or ``None``.

        Built lazily at first request (i.e. at view-build time of the
        first batched engine) and cached; ``None`` when no vertex clears
        the degree threshold, so sparse graphs pay one ``max`` on the
        cached degree array and nothing else.
        """
        if self._hub_index is None:
            threshold = (
                hub_degree_threshold(self.num_vertices)
                if min_degree is None
                else min_degree
            )
            degrees = self.degrees()
            if degrees.size and int(degrees.max()) >= threshold:
                self._hub_index = HubMembershipIndex(self, threshold)
            else:
                self._hub_index = False  # checked: no hubs
        return self._hub_index or None

    def memory_bytes(self) -> int:
        total = self._flat.nbytes + self._offsets.nbytes
        if self._labels is not None:
            total += self._labels.nbytes
        return total


class HubMembershipIndex:
    """Roaring-compiled dense membership rows for hub neighborhoods.

    ``searchsorted`` over the global adjacency keys answers a membership
    query in O(log E) — unbeatable for sparse rows, but on power-law
    hubs the same dense row is probed over and over and every probe
    repays the full binary search.  This index gives each vertex whose
    degree clears the threshold a packed bit row: its CSR row is
    bulk-compiled into a :class:`~repro.bitmap.roaring.RoaringBitmap`
    (array/bitmap/run containers chosen per 65536-value chunk) and
    flattened into one ``(num_hubs, ceil(n / 8))`` uint8 matrix, so a
    batched query against hub owners is two vectorized lookups —
    ``bits[row, v >> 3] >> (v & 7)`` — with no search at all.  Non-hub
    owners fall through to the caller's searchsorted kernel; the split
    is decided per *vertex* at build time, per *query element* at run
    time.
    """

    __slots__ = ("num_vertices", "hubs", "row_of", "bits", "bitmaps")

    def __init__(self, view: "AcceleratedGraphView", min_degree: int):
        from ..bitmap.roaring import RoaringBitmap

        n = view.num_vertices
        self.num_vertices = n
        self.hubs = np.flatnonzero(view.degrees() >= min_degree).astype(
            np.int64
        )
        self.row_of = np.full(n, -1, dtype=np.int64)
        self.row_of[self.hubs] = np.arange(self.hubs.size, dtype=np.int64)
        row_bytes = (n + 7) >> 3
        self.bits = np.zeros((self.hubs.size, row_bytes), dtype=np.uint8)
        self.bitmaps: list = []
        for row, hub in enumerate(self.hubs):
            bitmap = RoaringBitmap.from_sorted(view.neighbors(int(hub)))
            self.bitmaps.append(bitmap)
            self.bits[row] = np.frombuffer(
                bitmap.to_dense_bytes(n), dtype=np.uint8
            )

    def member(
        self,
        owners: np.ndarray,
        values: np.ndarray,
        fallback: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Elementwise membership, hub rows via bits, the rest via ``fallback``."""
        rows = self.row_of[owners]
        on_hub = rows >= 0
        if not on_hub.any():
            return fallback(owners, values)
        if on_hub.all():
            return (
                self.bits[rows, values >> 3] >> (values & 7) & 1
            ).astype(bool)
        out = np.empty(owners.size, dtype=bool)
        hub_values = values[on_hub]
        out[on_hub] = (
            self.bits[rows[on_hub], hub_values >> 3] >> (hub_values & 7) & 1
        ).astype(bool)
        rest = ~on_hub
        out[rest] = fallback(owners[rest], values[rest])
        return out

    def memory_bytes(self) -> int:
        """Roaring payloads + the packed matrix + the row map."""
        return (
            sum(b.memory_bytes() for b in self.bitmaps)
            + self.bits.nbytes
            + self.row_of.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HubMembershipIndex({self.hubs.size} hubs, "
            f"{self.memory_bytes()} bytes)"
        )


def shared_view(ordered: DataGraph) -> AcceleratedGraphView:
    """The (cached) CSR view of a degree-ordered graph.

    Graphs are immutable, so the view is built once and reused across
    every accelerated run — motif censuses and FSM rounds issue hundreds
    of counts against one graph.
    """
    view = ordered._accel_view
    if view is None:
        view = AcceleratedGraphView(ordered)
        ordered._accel_view = view
    return view


def frontier_start_order(
    labels: np.ndarray | None, num_vertices: int, plan: ExplorationPlan
) -> np.ndarray:
    """The level-0 frontier: hub-first start vertices, label-filtered.

    The array form of the pruning rule
    :meth:`~repro.core.plan.ExplorationPlan.pinned_start_labels`
    defines (and :func:`repro.core.session._label_filtered_starts` applies
    to list-based runs), so the concurrent runtimes can partition one
    shared frontier instead of raw vertex-id ranges — workers then
    split *live* tasks, not vertices a label constraint would discard.
    """
    starts = np.arange(num_vertices - 1, -1, -1, dtype=np.int64)
    if labels is None:
        return starts
    top_labels = plan.pinned_start_labels()
    if top_labels is None:
        return starts
    wanted = np.fromiter(sorted(top_labels), dtype=np.int64)
    return starts[np.isin(labels[starts], wanted)]


class FrontierBatchedEngine:
    """Level-synchronous batched analogue of the reference interpreter.

    Where the interpreter recurses per partial match, this engine holds
    *all* live partial matches of a matching-order level in one
    ``(n_partials, level)`` array and extends the whole level per numpy
    dispatch:

    * candidate neighborhoods are gathered with a CSR degree-prefix
      gather from each row's cheapest (min-degree) constraint vertex,
      pre-clipped to the symmetry bound by a rank query;
    * remaining edge constraints, anti-edge differences, label
      constraints and injectivity become boolean masks over the
      concatenated candidate segments (membership via one
      ``searchsorted`` over the view's :meth:`adjacency_keys`);
    * the final completion step is counted with per-row arithmetic
      instead of enumerated (the vectorized tail count), which is why the
      batched engine also wins on single-vertex-core patterns.

    Exploration order is the reference engine's DFS order: expansion
    preserves row order and candidate order, so leaves surface in DFS
    preorder; with several ordered cores, start vertices are walked in
    ``chunk``-sized slices through every core and each slice's per-core
    match batches are merge-sorted (keyed by level-0 origin) back into
    the reference interleaving before callbacks fire, so the merge
    buffer never holds more than one slice's matches.  Counts *and*
    callback order are therefore identical to
    :func:`repro.core.engine.run_tasks`.

    Memory is bounded two ways (default :data:`ACCEL_FRONTIER_CHUNK`):
    oversized frontiers are split into ``chunk``-row blocks exhausted
    depth-first, and each expansion gathers its candidate segments in
    groups capped near ``chunk`` *candidates* (:meth:`_row_groups`), so
    peak intermediates stay ~``O(chunk)`` per level regardless of graph
    density — a single row's segment (at most one adjacency list or one
    ``arange(bound)``) is the only irreducible allocation.
    """

    __slots__ = (
        "view",
        "labels",
        "n",
        "flat",
        "offsets",
        "degrees",
        "keys",
        "stride",
        "hubs",
        "plan",
        "steps",
        "on_match",
        "on_batch",
        "count_only",
        "can_count_tail",
        "chunk",
        "width",
        "total",
        "control",
        "budget",
        "shared",
        "_cur_oc",
        "_cur_rank",
        "_pending",
        "_ordered_emit",
    )

    def __init__(self, view: AcceleratedGraphView):
        self.view = view
        self.labels = view.labels
        self.n = view.num_vertices
        flat, offsets, _ = view.csr()
        self.flat = flat
        self.offsets = offsets
        self.degrees = view.degrees()
        self.keys = view.adjacency_keys()
        self.stride = self.n + 1
        self.hubs = view.hub_index()
        # A fused multi-pattern run attaches a SharedFrontierGathers here
        # so level-1 expansions reuse one neighbor gather across member
        # patterns; standalone runs leave it None.
        self.shared: SharedFrontierGathers | None = None

    # ------------------------------------------------------------------
    # Batched kernels over concatenated candidate segments
    # ------------------------------------------------------------------

    def _member(self, owners: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Elementwise ``values[k] in neighbors(owners[k])``.

        Queries whose owner is a hub route through the view's packed
        roaring rows (two array lookups); the rest binary-search the
        global adjacency keys.  Anti-edge checks and injectivity masks
        — the dense-row-heavy membership consumers — all flow through
        here.
        """
        if self.keys.size == 0 or owners.size == 0:
            return np.zeros(owners.size, dtype=bool)
        if self.hubs is not None:
            return self.hubs.member(owners, values, self._member_sorted)
        return self._member_sorted(owners, values)

    def _member_sorted(
        self, owners: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """The searchsorted membership kernel (non-hub / fallback path)."""
        queries = owners * self.stride + values
        pos = np.searchsorted(self.keys, queries)
        pos[pos == self.keys.size] = 0
        return self.keys[pos] == queries

    def _rank(self, owners: np.ndarray, bounds: np.ndarray, side: str) -> np.ndarray:
        """Per-element rank of ``bounds[k]`` within ``neighbors(owners[k])``.

        ``side="left"`` counts neighbors strictly below the bound,
        ``side="right"`` neighbors at or below it.
        """
        queries = owners * self.stride + bounds
        return (
            np.searchsorted(self.keys, queries, side=side)
            - self.offsets[owners]
        )

    @staticmethod
    def _gather(lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row ids and within-segment offsets for concatenated segments."""
        lens = lens.astype(np.int64, copy=False)
        row_ids = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        total = row_ids.size
        if total == 0:
            return row_ids, np.empty(0, dtype=np.int64)
        seg_starts = np.cumsum(lens) - lens
        local = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, lens)
        return row_ids, local

    def _row_groups(self, lens: np.ndarray):
        """Split rows so each group's *candidate total* stays near ``chunk``.

        Input-row chunking alone cannot bound an expansion: a single
        level can fan ``chunk`` rows out to ``chunk * n`` candidates
        (e.g. an unconstrained core position whose candidates are
        ``arange(bound)``).  Capping the cumulative candidate count per
        gather keeps every intermediate allocation near the chunk size;
        a lone row whose own segment exceeds the cap still goes through
        whole (one segment is one gather), which bounds the worst case
        at ``O(max_segment)``, not ``O(rows * max_segment)``.
        """
        return bounded_slices(lens, self.chunk)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(
        self,
        plan: ExplorationPlan,
        start_vertices: Iterable[int] | None = None,
        on_match: Callable[[Match], None] | None = None,
        on_batch: Callable[[np.ndarray], None] | None = None,
        count_only: bool = False,
        chunk: int | None = None,
        control: ExplorationControl | None = None,
        budget=None,
    ) -> int:
        """Run matching tasks over ``start_vertices``; return the count.

        ``on_batch`` is the array-native alternative to ``on_match``: it
        receives ``(rows, num_pattern_vertices)`` int64 arrays (column
        ``u`` holds the data vertex matched to pattern vertex ``u``,
        ``-1`` for anti-vertices) in degree-ordered ids, without
        per-match Python object construction.  Batch boundaries and
        inter-batch order are an implementation detail; the row multiset
        equals the reference engine's match multiset.

        ``control`` enables cooperative early termination (§5.3): the
        flag is polled before every frontier block and before each
        ``on_match`` callback, so a stop lands within one block's worth
        of work — or one *task's* worth when several ordered cores
        require order-merged emission (start slices shrink to single
        vertices so buffered matches can't defer the stopping callback).
        With ``on_match``, the returned count equals the callbacks
        actually fired; batch/count-only runs wind down at block
        granularity and may include the stopping block in full.

        ``budget`` is an armed :class:`~repro.core.callbacks.BudgetMeter`
        polled at the same block boundaries the control is (one cheap
        check per frontier chunk); exhaustion raises
        :class:`~repro.errors.BudgetExceededError` carrying the count
        accumulated so far.
        """
        pattern = plan.matched_pattern
        if pattern.is_labeled and self.labels is None:
            raise MatchingError(
                "pattern has label constraints but the data graph is unlabeled"
            )
        if on_match is not None and on_batch is not None:
            raise ValueError("pass on_match or on_batch, not both")
        self.plan = plan
        self.steps = plan.noncore_steps
        self.on_match = on_match
        self.on_batch = on_batch
        self.count_only = count_only and on_match is None and on_batch is None
        self.can_count_tail = self.count_only and not plan.anti_vertex_checks
        self.chunk = ACCEL_FRONTIER_CHUNK if chunk is None else max(1, int(chunk))
        self.width = pattern.num_vertices
        self.total = 0
        self.control = control
        self.budget = budget
        if start_vertices is None:
            starts = np.arange(self.n - 1, -1, -1, dtype=np.int64)
        elif isinstance(start_vertices, np.ndarray):
            starts = start_vertices.astype(np.int64, copy=False)
        else:
            starts = np.fromiter(start_vertices, dtype=np.int64)
        # Several ordered cores interleave per start vertex in the
        # reference order; exact callback order then needs a merge keyed
        # by each match's level-0 origin.  The merge buffer is bounded by
        # walking start *slices* through every core and emitting after
        # each slice — pending matches never exceed one slice's yield.
        self._ordered_emit = (
            on_match is not None and len(plan.ordered_cores) > 1
        )
        self._pending = [] if self._ordered_emit else None
        if self._ordered_emit and control is not None:
            # Ordered emission defers callbacks until a slice is fully
            # explored, and callbacks are the only place this control
            # can be stopped in a single-threaded run — so walk one
            # start vertex per slice: a stop then lands within one
            # task's work, mirroring the reference engine's per-task
            # control checks, instead of after a whole chunk of starts.
            slice_size = 1
        elif self._ordered_emit:
            slice_size = self.chunk
        else:
            slice_size = starts.size
        for lo in range(0, starts.size, max(1, slice_size)):
            if self._stopped():
                break
            sl = starts[lo: lo + max(1, slice_size)]
            if budget is not None:
                budget.charge_rows(int(sl.size))
                budget.check(self.total)
            self._run_cores(sl)
            if budget is not None:
                budget.levels_completed += 1
            if self._ordered_emit:
                self._emit_pending()
                self._pending = []
        return self.total

    def _stopped(self) -> bool:
        """Whether a caller-supplied control has requested termination."""
        return self.control is not None and self.control.stopped

    def _run_cores(self, starts: np.ndarray) -> None:
        """Run every ordered core over one slice of start vertices."""
        for rank, oc in enumerate(self.plan.ordered_cores):
            if self._stopped():
                return
            self._cur_oc = oc
            self._cur_rank = rank
            top_label = oc.labels[oc.size - 1]
            if top_label is not None:
                keep = self.labels[starts] == top_label
                oc_starts = starts[keep]
                origin = np.flatnonzero(keep).astype(np.int64)
            else:
                oc_starts = starts
                origin = np.arange(starts.size, dtype=np.int64)
            self._process_core(oc_starts[:, None], origin, 1)

    # ------------------------------------------------------------------
    # Core matching (high-to-low over one ordered core, level-batched)
    # ------------------------------------------------------------------

    def _process_core(
        self, block: np.ndarray, origin: np.ndarray, level: int
    ) -> None:
        oc = self._cur_oc
        if block.shape[0] == 0 or self._stopped():
            return
        if level == oc.size:
            self._core_complete(block, origin)
            return
        if block.shape[0] > self.chunk:
            for lo in range(0, block.shape[0], self.chunk):
                hi = lo + self.chunk
                self._process_core(block[lo:hi], origin[lo:hi], level)
            return
        if self.budget is not None:
            self.budget.charge_partials(block.shape[0])
            self.budget.check(self.total)
        for nxt, nxt_origin in self._expand_core(oc, block, origin, level):
            self._process_core(nxt, nxt_origin, level + 1)

    def _expand_core(
        self, oc: OrderedCore, block: np.ndarray, origin: np.ndarray, level: int
    ):
        """Assign core position ``top - level``; yields expanded sub-blocks.

        Per-row candidate segments are described once (source array, base
        offset, length), then gathered in :meth:`_row_groups`-bounded
        groups so no single expansion materializes more than ~``chunk``
        candidates at a time.
        """
        top = oc.size - 1
        i = top - level
        rows = block.shape[0]
        bound = block[:, -1]  # the (strictly larger) value at position i+1
        later = oc.later_neighbors(i)
        label = oc.labels[i]
        anti_later = [b for a, b in oc.anti_edges if a == i]
        if (
            level == 1
            and later
            and not anti_later
            and self.shared is not None
            and self.shared.matches(block[:, 0])
        ):
            # At level 1 the only later core position is the top, so the
            # expansion is "neighbors of the start, strictly below it" —
            # a pure variant of the slice's shared first-level expansion.
            exp_block, rows = self.shared.expansion(False, True, label)
            yield exp_block, self.shared.origin_rows(origin, rows)
            return
        pick = None
        if later:
            owner_cols = block[:, [top - j for j in later]]
            pick = np.argmin(self.degrees[owner_cols], axis=1)
            pivot = owner_cols[np.arange(rows), pick]
            lens = self._rank(pivot, bound, "left")
            seg_base = self.offsets[pivot]
            source = self.flat
        elif label is not None:
            # No later core neighbor but a label: scan the (sorted) label
            # partition below the bound instead of every vertex.
            source = self.view.vertices_with_label(label)
            lens = np.searchsorted(source, bound).astype(np.int64)
            seg_base = np.zeros(rows, dtype=np.int64)
            label = None
        else:
            lens = bound
            seg_base = None
            source = None  # candidates are 0 .. bound-1 verbatim
        for rows_slice in self._row_groups(lens):
            row_ids, local = self._gather(lens[rows_slice])
            if source is not None:
                cands = source[seg_base[rows_slice][row_ids] + local]
            else:
                cands = local
            g_block = block[rows_slice]
            mask = np.ones(cands.size, dtype=bool)
            if later and len(later) > 1:
                g_pick = pick[rows_slice]
                for k, j in enumerate(later):
                    # the pivot's own membership is implicit
                    hit = self._member(g_block[row_ids, top - j], cands)
                    mask &= hit | (g_pick[row_ids] == k)
            for j in anti_later:
                mask &= ~self._member(g_block[row_ids, top - j], cands)
            if label is not None and cands.size:
                mask &= self.labels[cands] == label
            if not mask.all():
                row_ids = row_ids[mask]
                cands = cands[mask]
            yield (
                np.concatenate([g_block[row_ids], cands[:, None]], axis=1),
                origin[rows_slice][row_ids],
            )

    # ------------------------------------------------------------------
    # Completion (non-core steps, batched)
    # ------------------------------------------------------------------

    def _columns(self, step_index: int) -> list[int]:
        """Pattern vertex held by each frontier column at ``step_index``."""
        return list(self.plan.core) + [
            s.vertex for s in self.steps[:step_index]
        ]

    def _core_complete(self, block: np.ndarray, origin: np.ndarray) -> None:
        """Remap finished core rows through each sequence, interleaved."""
        oc = self._cur_oc
        rows = block.shape[0]
        if self.count_only and not self.steps and not self.plan.anti_vertex_checks:
            # Core-only count: one match per collapsed sequence per row.
            self.total += rows * len(oc.sequences)
            return
        top = oc.size - 1
        core_vertices = self.plan.core
        perms = []
        for seq in oc.sequences:
            pos_of = {vertex: position for position, vertex in enumerate(seq)}
            perms.append([top - pos_of[v] for v in core_vertices])
        if len(perms) == 1:
            remapped = block[:, perms[0]]
            rep_origin = origin
        else:
            # Row-major (row, sequence) interleave keeps the reference
            # emission order: each core match walks all its sequences
            # before the next core match starts.
            stacked = np.stack([block[:, p] for p in perms], axis=1)
            remapped = stacked.reshape(rows * len(perms), len(core_vertices))
            rep_origin = np.repeat(origin, len(perms))
        self._process_steps(remapped, rep_origin, 0)

    def _process_steps(
        self, block: np.ndarray, origin: np.ndarray, step_index: int
    ) -> None:
        if block.shape[0] == 0 or self._stopped():
            return
        steps = self.steps
        if step_index == len(steps):
            self._finalize(block, origin)
            return
        if block.shape[0] > self.chunk:
            for lo in range(0, block.shape[0], self.chunk):
                hi = lo + self.chunk
                self._process_steps(block[lo:hi], origin[lo:hi], step_index)
            return
        if self.budget is not None:
            self.budget.charge_partials(block.shape[0])
            self.budget.check(self.total)
        if step_index + 1 == len(steps) and self.can_count_tail:
            self.total += self._count_tail_step(block, step_index)
            return
        for nxt, nxt_origin in self._expand_step(block, origin, step_index):
            self._process_steps(nxt, nxt_origin, step_index + 1)

    def _step_context(self, block: np.ndarray, step_index: int):
        """Per-row candidate geometry for one completion step."""
        step = self.steps[step_index]
        col_of = {v: c for c, v in enumerate(self._columns(step_index))}
        rows = block.shape[0]
        nbr_cols = [col_of[v] for v in step.neighbors]
        # Tightest symmetry bounds per row (vectorized max/min folds).
        lo = np.full(rows, -1, dtype=np.int64)
        for w in step.lower_bounds:
            np.maximum(lo, block[:, col_of[w]], out=lo)
        hi = np.full(rows, self.n, dtype=np.int64)
        for w in step.upper_bounds:
            np.minimum(hi, block[:, col_of[w]], out=hi)
        owner_cols = block[:, nbr_cols]
        pick = np.argmin(self.degrees[owner_cols], axis=1)
        pivot = owner_cols[np.arange(rows), pick]
        start_rank = self._rank(pivot, lo, "right")
        end_rank = self._rank(pivot, hi, "left")
        lens = np.maximum(end_rank - start_rank, 0)
        return step, col_of, nbr_cols, lo, hi, pick, pivot, start_rank, lens

    def _step_mask(
        self,
        g_block: np.ndarray,
        row_ids: np.ndarray,
        cands: np.ndarray,
        step: NonCoreStep,
        col_of: dict[int, int],
        nbr_cols: list[int],
        g_pick: np.ndarray,
    ) -> np.ndarray:
        """Constraint masks for one gathered candidate group."""
        mask = np.ones(cands.size, dtype=bool)
        if len(nbr_cols) > 1:
            for k, c in enumerate(nbr_cols):
                # the pivot's own membership is implicit
                hit = self._member(g_block[row_ids, c], cands)
                mask &= hit | (g_pick[row_ids] == k)
        for v in step.anti_neighbors:
            mask &= ~self._member(g_block[row_ids, col_of[v]], cands)
        if step.label is not None and cands.size:
            mask &= self.labels[cands] == step.label
        # Injectivity: the candidate may equal none of the row's matched
        # vertices (the frontier columns are exactly the used set).
        for c in range(g_block.shape[1]):
            mask &= cands != g_block[row_ids, c]
        return mask

    def _count_tail_step(self, block: np.ndarray, step_index: int) -> int:
        """Count the final completion step without enumerating it."""
        step, col_of, nbr_cols, lo, hi, pick, pivot, start_rank, lens = (
            self._step_context(block, step_index)
        )
        if (
            len(nbr_cols) == 1
            and not step.anti_neighbors
            and step.label is None
        ):
            # Pure degree arithmetic per frontier row: the candidate set
            # is one bounded adjacency segment, so its size is a rank
            # difference and injectivity subtracts the used vertices that
            # land inside it — no candidate array is ever gathered.
            total = int(lens.sum())
            for c in range(block.shape[1]):
                used = block[:, c]
                inside = (used > lo) & (used < hi) & self._member(pivot, used)
                total -= int(np.count_nonzero(inside))
            return total
        total = 0
        seg_base = self.offsets[pivot] + start_rank
        for rows_slice in self._row_groups(lens):
            row_ids, local = self._gather(lens[rows_slice])
            cands = self.flat[seg_base[rows_slice][row_ids] + local]
            mask = self._step_mask(
                block[rows_slice], row_ids, cands, step, col_of, nbr_cols,
                pick[rows_slice],
            )
            total += int(np.count_nonzero(mask))
        return total

    def _expand_step(
        self, block: np.ndarray, origin: np.ndarray, step_index: int
    ):
        """Assign one non-core vertex; yields expanded sub-blocks."""
        step, col_of, nbr_cols, _lo, _hi, pick, pivot, start_rank, lens = (
            self._step_context(block, step_index)
        )
        if (
            step_index == 0
            and block.shape[1] == 1
            and len(nbr_cols) == 1
            and not step.anti_neighbors
            and self.shared is not None
            and self.shared.matches(block[:, 0])
        ):
            # Single-vertex-core first step: the only matched vertex is
            # the start, so bounds can only clip to above/below it and
            # the candidates are another variant of the slice's shared
            # first-level expansion (injectivity is vacuous — a simple
            # graph never lists a vertex among its own neighbors).
            exp_block, rows = self.shared.expansion(
                bool(step.lower_bounds),
                bool(step.upper_bounds),
                step.label,
            )
            yield exp_block, self.shared.origin_rows(origin, rows)
            return
        seg_base = self.offsets[pivot] + start_rank
        for rows_slice in self._row_groups(lens):
            row_ids, local = self._gather(lens[rows_slice])
            cands = self.flat[seg_base[rows_slice][row_ids] + local]
            g_block = block[rows_slice]
            mask = self._step_mask(
                g_block, row_ids, cands, step, col_of, nbr_cols,
                pick[rows_slice],
            )
            if not mask.all():
                row_ids = row_ids[mask]
                cands = cands[mask]
            yield (
                np.concatenate([g_block[row_ids], cands[:, None]], axis=1),
                origin[rows_slice][row_ids],
            )

    # ------------------------------------------------------------------
    # Anti-vertex verification + emission
    # ------------------------------------------------------------------

    def _finalize(self, block: np.ndarray, origin: np.ndarray) -> None:
        checks = self.plan.anti_vertex_checks
        cols = self._columns(len(self.steps))
        if checks:
            col_of = {v: c for c, v in enumerate(cols)}
            alive = np.ones(block.shape[0], dtype=bool)
            for check in checks:
                if not check.neighbors:
                    continue
                nbr_cols = [col_of[v] for v in check.neighbors]
                rows = block.shape[0]
                owner_cols = block[:, nbr_cols]
                pick = np.argmin(self.degrees[owner_cols], axis=1)
                pivot = owner_cols[np.arange(rows), pick]
                lens = self.degrees[pivot]
                for rows_slice in self._row_groups(lens):
                    row_ids, local = self._gather(lens[rows_slice])
                    cands = self.flat[
                        self.offsets[pivot[rows_slice]][row_ids] + local
                    ]
                    g_block = block[rows_slice]
                    mask = np.ones(cands.size, dtype=bool)
                    if len(nbr_cols) > 1:
                        g_pick = pick[rows_slice]
                        for k, c in enumerate(nbr_cols):
                            hit = self._member(g_block[row_ids, c], cands)
                            mask &= hit | (g_pick[row_ids] == k)
                    for c in range(g_block.shape[1]):
                        mask &= cands != g_block[row_ids, c]
                    # Rows with any surviving common neighbor outside the
                    # match violate the anti-vertex; scatter-reject them.
                    alive[rows_slice.start + row_ids[mask]] = False
            if not alive.all():
                block = block[alive]
                origin = origin[alive]
        if self.on_match is None:
            # Count-only / batch paths count whole blocks up front: a
            # stop between blocks never splits a delivered batch.
            self.total += block.shape[0]
            if self.on_batch is not None:
                mappings = np.full(
                    (block.shape[0], self.width), -1, dtype=np.int64
                )
                mappings[:, cols] = block
                self.on_batch(mappings)
            return
        mappings = np.full((block.shape[0], self.width), -1, dtype=np.int64)
        mappings[:, cols] = block
        if self._ordered_emit:
            self._pending.append((origin, self._cur_rank, mappings))
            return
        self._emit_rows(mappings.tolist())

    def _emit_rows(self, rows: list[list[int]]) -> None:
        """Fire ``on_match`` per row, counting matches as they emit.

        Mirrors the reference engine's accounting: the returned total is
        the number of callbacks fired, so an early-terminating callback
        (``control.stop()``) suppresses — and uncounts — everything after
        the stopping match.
        """
        pattern = self.plan.pattern
        on_match = self.on_match
        control = self.control
        if control is None:
            self.total += len(rows)
            for row in rows:
                on_match(Match(pattern, tuple(row)))
            return
        for row in rows:
            if control.stopped:
                break
            self.total += 1
            on_match(Match(pattern, tuple(row)))

    def _emit_pending(self) -> None:
        """Merge one slice's per-core match batches into reference order."""
        pending = self._pending
        if not pending:
            return
        origins = np.concatenate([origin for origin, _, _ in pending])
        ranks = np.concatenate(
            [
                np.full(origin.size, rank, dtype=np.int64)
                for origin, rank, _ in pending
            ]
        )
        mappings = np.vstack([rows for _, _, rows in pending])
        # Stable sort: primary key origin (start order), secondary key
        # ordered-core rank; ties keep intra-core DFS emission order.
        order = np.lexsort((ranks, origins))
        self._emit_rows(mappings[order].tolist())


class SharedFrontierGathers:
    """One slice's first-level expansions, shared across fused members.

    The fused multi-pattern runner walks the level-0 frontier in slices
    and runs every member pattern over each slice.  A member's *first*
    expansion — a multi-position core's level-1, or the first completion
    step of a single-vertex-core plan — always extends the bare start
    vertex by its own neighbors, so its output is fully determined by a
    small *variant signature*: the symmetry bounds relative to the start
    (none / below-start / above-start), the new vertex's label
    constraint, and whether an anti-edge to the start applies.  (The
    engine's injectivity mask is vacuous here: a simple graph never lists
    a vertex among its own neighbors.)

    This cache memoizes the fully expanded ``(block, rows)`` pair per
    variant, computed exactly the way a standalone engine would (rank
    queries + one CSR gather) — so the *first* member needing a variant
    pays the sequential price and every further member gets it free.
    Motif censuses and FSM rounds concentrate on a handful of variants,
    which is where fusion's multiplicative saving comes from.

    :meth:`expansion` only serves a request whose start array equals the
    slice verbatim (label-filtered per-core subsets fall back to the
    engine's own path), so correctness never depends on the cache: a
    miss simply costs the un-fused expansion.
    """

    __slots__ = (
        "flat",
        "offsets",
        "degrees",
        "keys",
        "stride",
        "labels",
        "_starts",
        "_identity",
        "_expansions",
    )

    def __init__(self, view: AcceleratedGraphView):
        flat, offsets, labels = view.csr()
        self.flat = flat
        self.offsets = offsets
        self.degrees = view.degrees()
        self.keys = view.adjacency_keys()
        self.stride = view.num_vertices + 1
        self.labels = labels
        self._starts: np.ndarray | None = None
        self._identity: np.ndarray | None = None
        self._expansions: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def reset(self, starts: np.ndarray) -> None:
        """Begin a new frontier slice; previous expansions are dropped."""
        self._starts = starts
        self._identity = None
        self._expansions = {}

    def matches(self, starts: np.ndarray) -> bool:
        """Whether ``starts`` is exactly the current slice."""
        current = self._starts
        return (
            current is not None
            and starts.size == current.size
            and bool(np.array_equal(starts, current))
        )

    def origin_rows(self, origin: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``origin[rows]``, skipping the gather for identity origins.

        A cache hit implies the member's level-0 frontier is the whole
        slice, so its origin array is almost always ``arange`` — one
        cheap O(rows) equality check saves an O(candidates) gather.
        """
        if self._identity is None:
            self._identity = np.arange(self._starts.size, dtype=np.int64)
        if origin.size == self._identity.size and np.array_equal(
            origin, self._identity
        ):
            return rows
        return origin[rows]

    def expansion(
        self,
        bounded_below: bool,
        bounded_above: bool,
        label: int | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The slice's first-level expansion for one variant signature.

        Returns ``(block, rows)``: ``block`` is the expanded
        ``(n_partials, 2)`` frontier — column 0 the start vertex, column
        1 its surviving neighbor — and ``rows`` the per-partial index
        into the slice.  ``bounded_below``/``bounded_above`` clip each
        start's neighbor segment to strictly above/below the start
        itself (the only symmetry bounds expressible at the first
        level); ``label`` keeps only candidates carrying it.  An
        anti-edge to the start can never constrain a first-level
        candidate (the candidate is a neighbor of the start, and a
        vertex pair cannot carry both an edge and an anti-edge), so the
        variant space is exactly these three axes.  Callers must not
        mutate the returned arrays.
        """
        key = (bounded_below, bounded_above, label)
        cached = self._expansions.get(key)
        if cached is not None:
            return cached
        starts = self._starts
        seg_base = self.offsets[starts]
        if bounded_below:
            queries = starts * self.stride + starts
            start_rank = np.searchsorted(self.keys, queries, "right") - seg_base
            seg_base = seg_base + start_rank
        else:
            start_rank = 0
        if bounded_above:
            queries = starts * self.stride + starts
            end_rank = np.searchsorted(self.keys, queries, "left") - self.offsets[starts]
        else:
            end_rank = self.degrees[starts]
        lens = np.maximum(end_rank - start_rank, 0)
        rows, local = FrontierBatchedEngine._gather(lens)
        cands = self.flat[seg_base[rows] + local]
        if label is not None:
            keep = self.labels[cands] == label
            rows = rows[keep]
            cands = cands[keep]
        block = np.empty((cands.size, 2), dtype=np.int64)
        block[:, 0] = starts[rows]
        block[:, 1] = cands
        cached = (block, rows)
        self._expansions[key] = cached
        return cached


def _frontier_slices(weights: np.ndarray, cap: int):
    """Slice the fused frontier so per-slice candidate totals stay near ``cap``.

    The per-start weights are ``degree + 1``, so a slice never exceeds
    ``cap`` rows and its shared gather never materializes much more than
    ``cap`` candidates (one start's full adjacency list is the
    irreducible worst case) — the same :func:`bounded_slices` rule the
    engine's own row grouping uses.
    """
    return bounded_slices(weights, cap)


def fused_run(
    view: AcceleratedGraphView,
    members: list[tuple[ExplorationPlan, Callable | None, Callable | None]],
    start_vertices: Iterable[int] | None = None,
    chunk: int | None = None,
    control: ExplorationControl | None = None,
    budget=None,
) -> list[int]:
    """Run several plans over one shared frontier; return per-member counts.

    ``members`` are ``(plan, on_match, on_batch)`` triples in reference
    order (at most one of the callbacks each; both ``None`` counts
    without enumerating).  All members must share the level-0 frontier:
    ``start_vertices`` is that fused frontier (``None`` = every vertex,
    hub-first), typically the union of the group's pinned start labels as
    computed by :meth:`repro.core.session.MiningSession` grouping.

    The frontier is walked once in degree-weighted slices; per slice,
    each member's :class:`FrontierBatchedEngine` runs with the slice's
    :class:`SharedFrontierGathers` attached, so first-level expansions
    reuse one CSR gather across the whole group and only per-pattern
    constraint masks diverge.  Per-member counts and callback order are
    identical to running each member alone (slices partition the same
    start order, and in-slice exploration is the engine's own DFS), which
    ``tests/test_multipattern.py`` fuzz-enforces.

    ``control`` is polled between frontier slices and threaded into each
    member engine (which polls it between blocks and per emitted match),
    so a stop lands within one slice of one member's work.  ``budget``
    is one armed :class:`~repro.core.callbacks.BudgetMeter` shared by
    every member — the deadline and row caps bound the whole fused call.
    On exhaustion the raised
    :class:`~repro.errors.BudgetExceededError` carries the *summed*
    partial with per-member counts in ``partial.detail["totals"]``.
    """
    n = view.num_vertices
    if start_vertices is None:
        starts = np.arange(n - 1, -1, -1, dtype=np.int64)
    elif isinstance(start_vertices, np.ndarray):
        starts = start_vertices.astype(np.int64, copy=False)
    else:
        starts = np.fromiter(start_vertices, dtype=np.int64)
    cap = ACCEL_FRONTIER_CHUNK if chunk is None else max(1, int(chunk))
    engines = [FrontierBatchedEngine(view) for _ in members]
    shared = SharedFrontierGathers(view)
    totals = [0] * len(members)
    # degree + 1 keeps zero-degree starts advancing and bounds slice rows.
    weights = view.degrees()[starts] + 1
    for sl in _frontier_slices(weights, cap):
        if control is not None and control.stopped:
            break
        sl_starts = starts[sl]
        shared.reset(sl_starts)
        for idx, (plan, on_match, on_batch) in enumerate(members):
            engine = engines[idx]
            engine.shared = shared
            try:
                totals[idx] += engine.run(
                    plan,
                    start_vertices=sl_starts,
                    on_match=on_match,
                    on_batch=on_batch,
                    count_only=on_match is None and on_batch is None,
                    chunk=cap,
                    control=control,
                    budget=budget,
                )
            except BudgetExceededError as err:
                totals[idx] += int(err.partial)
                partial = PartialResult(
                    sum(totals),
                    levels_completed=err.partial.levels_completed,
                    truncated=True,
                    reason=err.partial.reason,
                    detail={"totals": list(totals)},
                )
                raise BudgetExceededError(str(err), partial) from None
            finally:
                engine.shared = None
    return totals


def frontier_count(
    graph: DataGraph,
    pattern: Pattern,
    plan: ExplorationPlan | None = None,
    view: AcceleratedGraphView | None = None,
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    chunk: int | None = None,
) -> int:
    """Frontier-batched match counting (full pattern-feature matrix).

    Semantically identical to ``repro.core.count`` on every feature
    combination; raises :class:`~repro.errors.MatchingError` only where
    the reference engine would (labeled pattern on an unlabeled graph).
    A caller-supplied ``view`` is only trusted when it was built for
    this graph's degree ordering; anything else is rebuilt.
    """
    if plan is None:
        plan = generate_plan(
            pattern, edge_induced=edge_induced, symmetry_breaking=symmetry_breaking
        )
    ordered, _ = graph.degree_ordered()
    if view is None or view.graph is not ordered:
        view = shared_view(ordered)
    return FrontierBatchedEngine(view).run(plan, count_only=True, chunk=chunk)
