"""Concurrent matching runtime: thread pool + process runner (§5, Fig 12).

``parallel_match`` reproduces Peregrine's architecture faithfully: worker
threads pull degree-weighted frontier chunks from a shared atomic-counter
scheduler, run the engine with thread-local aggregators, and honor a
shared early-termination control.  By default the workers drive the
frontier-batched engine over chunks of the level-0 frontier — numpy
kernels release the GIL, so the thread pool gets real parallelism on the
hot loop, and each worker's engine polls the shared control between
frontier blocks and per emitted match; ``engine="reference"`` keeps the
threads on the interpreter (per-thread :class:`EngineStats`), where
CPython's GIL serializes the list operations.

Process-level scaling is one crash-tolerant runner:
``process_count_many`` starts worker processes that lease chunks from a
shared :class:`~repro.runtime.scheduler.LeaseBoard`, run each chunk's
fused pattern group, and land its counts exactly once; chunks whose
worker died are requeued.  ``process_count`` is its one-pattern wrapper,
and the Figure 12 scalability benchmark drives it.  Workers inherit the
parent's CSR view where the fork start method exists; elsewhere they
spawn and re-open the graph's ``.rgx`` store (never per-worker graph
pickling).

**Work placement** is one layer, :mod:`repro.runtime.scheduler`, shared
by threads and processes: the frontier is cut into chunks
(:class:`~repro.runtime.scheduler.ChunkLedger`) and workers *pull* chunk
indices from a shared cursor until the queue drains — ``threading.Lock``
under threads, a ``multiprocessing.Value`` under processes.  The two
schedules are two ways to cut the ledger.  ``schedule="dynamic"`` (the
default) makes degree-weighted chunks (same closing rule as the engines'
:func:`~repro.core.accel.bounded_slices`), which absorbs stragglers on
skewed graphs: whoever finishes early keeps pulling, so one mega-hub
task never holds the whole run the way a fixed partition does.
``schedule="static"`` makes one stride slice per worker, the ablation
baseline (``benchmarks/bench_parallel.py`` measures the gap;
``chunk_hint`` tunes dynamic chunk granularity).

Both entry points accept a :class:`~repro.core.session.MiningSession` in
place of the graph: the runtime then reuses the session's degree
ordering, id translation, CSR view and plan cache instead of re-deriving
them per call (plain graphs resolve to their shared default session).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..errors import (
    MatchingError,
    PartialResult,
    QueryCancelledError,
    WorkerCrashError,
)
from ..core import accel
from ..core.callbacks import Aggregator, ExplorationControl, Match
from ..core.engine import EngineStats, run_tasks
from ..core.session import (
    MiningSession,
    MultiPatternPlan,
    as_session,
    group_start_vertices,
)
from ..graph.graph import DataGraph
from ..pattern.pattern import Pattern
from .aggregation import AggregatorThread
from .scheduler import (
    ChunkLedger,
    LeaseBoard,
    ProcessCursor,
    TaskScheduler,
    static_slices,
)

__all__ = [
    "ParallelResult",
    "parallel_match",
    "process_count",
    "process_count_many",
    "FAULT_ENV",
    "MAX_CHUNK_RETRIES",
    "DEFAULT_NUM_THREADS",
    "DEFAULT_NUM_PROCESSES",
]

_SCHEDULE_CHOICES = ("dynamic", "static")

# Crash-tolerance knobs.  A chunk whose worker dies is requeued up to
# MAX_CHUNK_RETRIES times before the run gives up with WorkerCrashError
# (a chunk that kills every worker that touches it is a poison pill, not
# a transient crash).  FAULT_ENV is the deterministic fault-injection
# knob: "worker:chunk" (either side may be "*") makes the matching
# worker exit hard — os._exit, no cleanup, exactly like an OOM kill —
# immediately after leasing the matching chunk.
FAULT_ENV = "REPRO_FAULT_WORKER_DIE"
MAX_CHUNK_RETRIES = 2

# Legacy fixed pool sizes, used when the caller passes ``None`` without
# auto planning.  Under ``plan="auto"`` a ``None`` pool size instead
# hands sizing to the planner: the probe's work-volume estimate picks
# the worker count out of a machine-sized budget (``os.cpu_count()``).
DEFAULT_NUM_THREADS = 4
DEFAULT_NUM_PROCESSES = 2


def _resolve_pool_size(requested, plan_mode, default):
    """Planner-sized pools: ``None`` defers to the plan (PR 10).

    An explicit integer always wins.  ``None`` under ``plan="auto"``
    offers the machine's core count as the budget — the planner then
    *sizes* the pool from measured work volume instead of merely capping
    the caller's guess.  ``None`` under ``plan="fixed"`` keeps the
    legacy default.
    """
    if requested is not None:
        return requested
    if plan_mode == "auto":
        return os.cpu_count() or default
    return default


def _resolve_plan_mode(session, plan):
    """Fill the dispatch-policy knob from session defaults; validate.

    ``None`` inherits the session's ``ExecOptions.planner`` default;
    ``"fixed"`` keeps the global thresholds, ``"auto"`` plans the run
    from the probe walk (:mod:`repro.runtime.planner`).
    """
    from .planner import PLANNER_CHOICES

    if plan is None:
        plan = session.defaults.planner
    if plan not in PLANNER_CHOICES:
        raise ValueError(
            f"plan must be one of {PLANNER_CHOICES}, got {plan!r}"
        )
    return plan


def _resolve_scheduling(session, schedule, chunk_hint):
    """Fill ``schedule``/``chunk_hint`` from session defaults; validate."""
    defaults = session.defaults
    if schedule is None:
        schedule = defaults.schedule
    if chunk_hint is None:
        chunk_hint = defaults.chunk_hint
    if schedule not in _SCHEDULE_CHOICES:
        raise ValueError(
            f"schedule must be one of {_SCHEDULE_CHOICES}, got {schedule!r}"
        )
    if chunk_hint is not None and chunk_hint < 1:
        raise ValueError(f"chunk_hint must be >= 1, got {chunk_hint}")
    return schedule, chunk_hint


@dataclass
class ParallelResult:
    """Outcome of a ``parallel_match`` run.

    ``engine`` records which engine the workers drove
    (``"reference"`` or ``"accel-batch"``); engine stats are a
    reference-engine feature, so ``stats`` counters are zero for
    vectorized runs.  ``schedule`` records the work placement used
    (``"dynamic"`` chunk pulling vs. ``"static"`` stride slices).
    """

    matches: int
    num_threads: int
    stats: EngineStats
    aggregates: dict = field(default_factory=dict)
    per_thread_matches: list[int] = field(default_factory=list)
    per_thread_cpu: list[float] = field(default_factory=list)
    engine: str = "reference"
    schedule: str = "dynamic"

    def load_imbalance(self) -> float:
        """Max-minus-min share of matches across threads (0 = perfect).

        Match counts are a *work placement* metric: hub tasks carry most
        matches, so skew here is expected.  The paper's §6.7 balance claim
        is about finish times — see :meth:`time_imbalance`.
        """
        if not self.per_thread_matches or self.matches == 0:
            return 0.0
        hi = max(self.per_thread_matches)
        lo = min(self.per_thread_matches)
        return (hi - lo) / self.matches

    def time_imbalance(self) -> float:
        """Relative gap between the busiest and idlest thread's CPU time.

        The paper reports a <=71 ms finish-time gap across threads; this
        is the analogous measure for our runtime (per-thread CPU seconds
        via ``time.thread_time``, so GIL wait time is excluded).
        """
        if not self.per_thread_cpu:
            return 0.0
        hi = max(self.per_thread_cpu)
        lo = min(self.per_thread_cpu)
        return 0.0 if hi == 0 else (hi - lo) / hi


def _thread_engine_mode(engine: str) -> str:
    """Resolve the thread-pool engine: ``reference`` or ``accel-batch``.

    ``auto`` means the frontier-batched engine (numpy kernels drop the
    GIL, so workers overlap); ``reference`` keeps the interpreter, which
    owns the per-thread stats.  Both honor a shared early-termination
    control — the batched engine polls it between frontier blocks and
    per emitted match.
    """
    choices = ("auto", "accel-batch", "reference")
    if engine not in choices:
        raise ValueError(f"engine must be one of {choices}, got {engine!r}")
    return "reference" if engine == "reference" else "accel-batch"


def _count_frontier(session, plan, batched=True, need_weights=True):
    """The level-0 frontier (and per-start weights) for one engine.

    The batched engine slices the hub-first, label-filtered frontier of
    the shared CSR view; the reference engine does its own per-start
    label checks, so its frontier is the plain hub-first id order.
    Weights are ``degree + 1`` — the same rule the fused runner uses to
    bound slice work — so chunk extents track expected per-start cost.
    Static schedules never read the weights, so callers skip the
    (reference: O(n) Python) derivation with ``need_weights=False``.
    """
    if batched:
        view = session.view
        frontier = accel.frontier_start_order(
            view.labels, view.num_vertices, plan
        )
        weights = view.degrees()[frontier] + 1 if need_weights else None
        return frontier, weights
    ordered = session.ordered
    frontier = range(ordered.num_vertices - 1, -1, -1)
    weights = (
        [ordered.degree(v) + 1 for v in frontier] if need_weights else None
    )
    return frontier, weights


def parallel_match(
    graph: DataGraph | MiningSession,
    pattern: Pattern,
    num_threads: int | None = 4,
    callback: Callable[[Match, Aggregator], None] | None = None,
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    control: ExplorationControl | None = None,
    chunk_size: int | None = None,
    aggregate_interval: float = 0.005,
    on_update: Callable[[Aggregator], None] | None = None,
    engine: str = "auto",
    combine: Callable | None = None,
    global_aggregator: Aggregator | None = None,
    schedule: str | None = None,
    chunk_hint: int | None = None,
    plan: str | None = None,
) -> ParallelResult:
    """Match a pattern with ``num_threads`` worker threads.

    ``num_threads=None`` defers pool sizing: under ``plan="auto"`` the
    planner sizes the pool from the probe's measured work volume (with
    the machine's core count as the budget); under ``plan="fixed"`` the
    legacy default of :data:`DEFAULT_NUM_THREADS` applies.

    ``callback(match, local_aggregator)`` runs on the worker thread that
    found the match; values it maps into the local aggregator surface in
    the global aggregate via the asynchronous aggregator thread.
    ``combine`` is the aggregators' reduction function (default:
    addition); because workers fold values in a nondeterministic
    interleaving, it must be order-insensitive (associative and
    commutative) for the aggregates to be deterministic —
    :meth:`repro.core.session.MiningSession.aggregate` routes its
    ``reduce`` through here when threaded.  ``global_aggregator``
    optionally supplies the destination aggregator (it must share
    ``combine``); callers spanning several runs — multi-pattern
    aggregates — pass one so ``on_update`` observes the *cumulative*
    totals rather than each run's private map.

    With ``engine="auto"`` the workers drive the frontier-batched engine
    over chunks of the level-0 frontier: each chunk's numpy kernels run
    with the GIL released, so worker threads overlap on the hot loop
    instead of serializing, and a user ``control`` is polled between
    frontier blocks and per emitted match.  Reference-engine runs
    keep per-thread :class:`EngineStats`; vectorized runs report zero
    stats (see :class:`ParallelResult`).

    ``schedule``/``chunk_hint`` pick the work placement (see the module
    docstring): ``"dynamic"`` (default) pulls degree-weighted chunks
    from the shared scheduler, ``"static"`` hands each thread one stride
    slice up front.  With no hint, chunks are sized automatically for
    ``num_threads`` (:data:`~repro.runtime.scheduler.CHUNKS_PER_WORKER`
    per thread); ``chunk_size`` is the legacy spelling of the same hint
    (an explicit ``chunk_hint`` beats it, and either explicit value
    beats the session default).  ``None`` values inherit the session's
    :class:`~repro.core.session.ExecOptions` defaults.

    ``graph`` may be a :class:`~repro.core.session.MiningSession`, in
    which case its cached ordering, translation and plans are reused.
    """
    session = as_session(graph)
    # Per-call knobs win over session defaults: an explicit chunk_hint
    # beats the legacy chunk_size spelling, which in turn beats the
    # session's ExecOptions default; only then does auto sizing apply.
    if chunk_hint is None and chunk_size is not None:
        chunk_hint = chunk_size
    plan_mode = _resolve_plan_mode(session, plan)
    num_threads = _resolve_pool_size(num_threads, plan_mode, DEFAULT_NUM_THREADS)
    if plan_mode == "auto":
        # One probe plans the thread run: schedule/chunk by skew,
        # thread count by work volume.  Knobs the caller pinned
        # explicitly stay pinned.
        from . import planner as _planner

        query_plan = _planner.plan_query(
            session,
            pattern,
            session.options(
                edge_induced=edge_induced,
                symmetry_breaking=symmetry_breaking,
            ),
            num_workers=num_threads,
        )
        num_threads = query_plan.num_workers
        if schedule is None:
            schedule = query_plan.schedule
        if chunk_hint is None:
            chunk_hint = query_plan.chunk_hint
    mode = _thread_engine_mode(engine)
    schedule, chunk_hint = _resolve_scheduling(session, schedule, chunk_hint)
    plan = session.plan_for(
        pattern, edge_induced=edge_induced, symmetry_breaking=symmetry_breaking
    )
    ordered = session.ordered
    old_of_new = session.translation
    view = session.view if mode == "accel-batch" else None
    frontier, weights = _count_frontier(
        session,
        plan,
        batched=mode == "accel-batch",
        need_weights=schedule == "dynamic",
    )
    if schedule == "dynamic":
        scheduler = TaskScheduler(
            frontier,
            chunk_size=chunk_hint,
            weights=weights,
            num_workers=num_threads,
        )
        slices = None
    else:
        scheduler = None
        slices = static_slices(frontier, num_threads)
    shared_control = control if control is not None else ExplorationControl()
    global_agg = (
        global_aggregator
        if global_aggregator is not None
        else Aggregator(combine=combine)
    )
    local_aggs = [Aggregator(combine=combine) for _ in range(num_threads)]
    local_stats = [EngineStats() for _ in range(num_threads)]
    thread_matches = [0] * num_threads
    thread_cpu = [0.0] * num_threads

    def chunks_for(tid: int):
        """This worker's chunk stream under the selected schedule."""
        if slices is not None:
            yield slices[tid]
            return
        while True:
            chunk = scheduler.next_chunk()
            if len(chunk) == 0:
                return
            yield chunk

    def worker(tid: int) -> None:
        local = local_aggs[tid]
        on_match = None
        if callback is not None:
            def on_match(m: Match) -> None:
                translated = tuple(
                    old_of_new[v] if v >= 0 else -1 for v in m.mapping
                )
                callback(Match(m.pattern, translated), local)

        batched = (
            accel.FrontierBatchedEngine(view) if mode == "accel-batch" else None
        )
        total = 0
        cpu_begin = time.thread_time()
        for chunk in chunks_for(tid):
            if shared_control.stopped:
                break
            if batched is not None:
                total += batched.run(
                    plan,
                    start_vertices=chunk,
                    on_match=on_match,
                    count_only=callback is None,
                    control=shared_control,
                )
            else:
                total += run_tasks(
                    ordered,
                    plan,
                    start_vertices=chunk,
                    on_match=on_match,
                    control=shared_control,
                    stats=local_stats[tid],
                    count_only=callback is None,
                )
        thread_matches[tid] = total
        thread_cpu[tid] = time.thread_time() - cpu_begin

    threads = [
        threading.Thread(target=worker, args=(tid,), name=f"matcher-{tid}")
        for tid in range(num_threads)
    ]
    agg_thread = AggregatorThread(
        global_agg, local_aggs, interval=aggregate_interval, on_update=on_update
    )
    agg_thread.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    agg_thread.stop()

    merged = EngineStats()
    for s in local_stats:
        merged.merge(s)
    return ParallelResult(
        matches=sum(thread_matches),
        num_threads=num_threads,
        stats=merged,
        aggregates=global_agg.result(),
        per_thread_matches=thread_matches,
        per_thread_cpu=thread_cpu,
        engine=mode,
        schedule=schedule,
    )


# ----------------------------------------------------------------------
# Process-based scaling (Figure 12): one crash-tolerant lease-board
# runner.
#
# ``multiprocessing.Pool`` is the wrong substrate for fault tolerance —
# a worker that dies abruptly mid-task leaves ``pool.map`` hung (or, on
# newer CPythons, kills the whole map with no record of which inputs
# finished).  The runner therefore starts raw ``ctx.Process`` workers
# over a :class:`~repro.runtime.scheduler.LeaseBoard`: a worker *leases*
# a chunk before running it and lands the chunk's counts atomically with
# its done-mark, so after every worker exits the parent knows exactly
# which chunks never completed.  Those are requeued into a fresh round of
# workers (bounded by :data:`MAX_CHUNK_RETRIES` per chunk); when even
# respawning fails (fork/spawn returning ``OSError`` under resource
# exhaustion) the parent degrades to running the remaining chunks
# in-process.  Exact counts survive any single- or multi-worker crash
# because a chunk's count lands exactly once.
#
# Both schedules drain the same board; they differ only in how the
# ledger is cut — degree-weighted chunks (``ChunkLedger.build``) or one
# stride slice per worker (``ChunkLedger.static``).
#
# The graph reaches workers one of two ways, picked by the platform:
# where the fork start method exists, workers inherit the parent's CSR
# view copy-on-write (zero bytes moved, adjacency keys and hub index
# included); elsewhere they spawn and re-open an on-disk ``.rgx`` store —
# the graph's own degree-sorted backing file, or one temporary spill —
# sharing its pages through the OS page cache.
#
# Cancellation rides the same machinery: a shared one-way flag that
# workers poll between chunks and engines poll inside a chunk (via
# :class:`_SharedCancel`), bridged from the caller's
# ``ExplorationControl`` by a parent-side thread.
# ----------------------------------------------------------------------


def _fork_available() -> bool:
    """Whether workers can inherit the parent's view (fork start method)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _parse_fault(spec: str | None):
    """Parse a ``"worker:chunk"`` fault spec (either side ``"*"``)."""
    if not spec:
        return None
    worker, sep, chunk = spec.partition(":")
    if not sep:
        raise ValueError(
            f"{FAULT_ENV} must be 'worker:chunk' (either side '*'), "
            f"got {spec!r}"
        )
    return (worker.strip(), chunk.strip())


def _fault(worker_id: int, chunk_index: int, spec) -> None:
    """Deterministic fault-injection seam: die hard when the spec matches.

    ``os._exit`` skips every handler and ``finally`` — the closest
    user-space stand-in for an OOM kill or segfault.  Runs right after a
    chunk lease so the death window the requeue protocol must cover
    (leased, not done) is always exercised.
    """
    if spec is None:
        return
    worker, chunk = spec
    if (worker == "*" or worker == str(worker_id)) and (
        chunk == "*" or chunk == str(chunk_index)
    ):
        os._exit(1)


class _SharedCancel:
    """ExplorationControl facade over a shared one-way cancel flag.

    Engines only read ``.stopped``; backing it with a
    ``multiprocessing.Value`` makes one parent-side ``stop()`` visible
    inside every worker's engine loop, so cancellation lands mid-chunk.
    """

    __slots__ = ("_flag",)

    def __init__(self, flag):
        self._flag = flag

    @property
    def stopped(self) -> bool:
        return bool(self._flag.value)

    def stop(self) -> None:
        self._flag.value = 1


@dataclass(frozen=True)
class _Job:
    """Everything a worker needs, passed as a ``Process`` argument.

    ``graph`` is the parent's :class:`~repro.core.accel.AcceleratedGraphView`
    under fork (inherited, never pickled) or an ``.rgx`` path under spawn.
    Chunk indices are global across fused groups: ``offsets[g]`` is the
    first index of group ``g``, whose chunks come from ``ledgers[g]``.
    """

    graph: object
    plans: list
    groups: list
    ledgers: list
    offsets: list
    frontier_chunk: int | None


def _worker_state(job: _Job):
    """A worker's ``(view, members per group, store)``, built locally.

    Nothing is bound in a module global, so a run drained in-process
    (the respawn-failure fallback) pins nothing once it returns.  A
    re-opened store is returned so the worker can release its mapping.
    """
    store = None
    view = job.graph
    if isinstance(view, str):
        from ..graph.binary_io import GraphStore

        store = GraphStore(view)
        view = accel.shared_view(store.graph())
    members_of = [
        [(job.plans[idx], None, None) for idx in group] for group in job.groups
    ]
    return view, members_of, store


def _worker(worker_id, board, cursor, active, cancel_flag, fault_spec, job):
    """One crash-tolerant worker: claim, lease, run, land — repeat.

    ``active`` is this round's list of still-pending chunk indices; the
    cursor claims positions into it, so requeued rounds reuse the same
    protocol over a shrinking list.  Each chunk runs its whole fused
    group through :func:`repro.core.accel.fused_run`, so shared
    first-level gathers keep amortizing inside a chunk.  A chunk
    interrupted by cancellation is deliberately *not* completed — its
    count is partial — so the parent's partial total only ever sums
    fully-counted chunks.
    """
    view, members_of, store = _worker_state(job)
    # The shared flag reaches the engine of every chunk run, so a cancel
    # stops workers *inside* a chunk, between frontier blocks.
    control = _SharedCancel(cancel_flag)
    try:
        while not cancel_flag.value:
            pos = cursor.claim()
            if pos >= len(active):
                return
            index = active[pos]
            board.lease(index, worker_id)
            _fault(worker_id, index, fault_spec)
            gi = bisect_right(job.offsets, index) - 1
            counts = accel.fused_run(
                view,
                members_of[gi],
                start_vertices=job.ledgers[gi].chunk(index - job.offsets[gi]),
                chunk=job.frontier_chunk,
                control=control,
            )
            if cancel_flag.value:
                return
            board.complete(index, counts)
    finally:
        if store is not None:
            store.close()


def _lease_rounds(ctx, num_workers, board, num_chunks, cancel, job):
    """Run worker rounds until every chunk lands; ``(pending, failed)``.

    Returns early with chunks still ``pending`` when ``cancel`` fires,
    and with ``failed`` chunks once one exhausts its retries.
    """
    fault_spec = _parse_fault(os.environ.get(FAULT_ENV))
    cancel_flag = ctx.Value("b", 0)
    pending = list(range(num_chunks))
    retries = [0] * num_chunks
    next_worker = 0
    bridge_stop = threading.Event()
    bridge = None
    if cancel is not None:
        # Callers hand in plain ExplorationControl/DeadlineControl
        # objects, which workers cannot see — this thread bridges the
        # caller-side token into the shared flag the workers poll.
        def poll_cancel():
            while not bridge_stop.is_set():
                if cancel.stopped:
                    cancel_flag.value = 1
                    return
                bridge_stop.wait(0.002)

        bridge = threading.Thread(
            target=poll_cancel, name="cancel-bridge", daemon=True
        )
        bridge.start()
    try:
        while pending:
            if cancel is not None and cancel.stopped:
                cancel_flag.value = 1
            if cancel_flag.value:
                return pending, []
            active = pending
            cursor = ProcessCursor(ctx)
            procs = []
            for _ in range(min(num_workers, len(active))):
                proc = ctx.Process(
                    target=_worker,
                    args=(
                        next_worker, board, cursor, active, cancel_flag,
                        fault_spec, job,
                    ),
                    name=f"tolerant-{next_worker}",
                )
                try:
                    proc.start()
                except OSError:
                    break
                next_worker += 1
                procs.append(proc)
            if not procs:
                # Respawn failed outright (fd/pid exhaustion): degrade to
                # in-process draining.  Fault injection is disabled here —
                # os._exit in the caller's process is not a recovery.
                _worker(
                    next_worker, board, cursor, active, cancel_flag, None, job
                )
                next_worker += 1
            for proc in procs:
                proc.join()
            pending = board.pending(active)
            if cancel_flag.value:
                return pending, []
            failed = []
            for index in pending:
                retries[index] += 1
                if retries[index] > MAX_CHUNK_RETRIES:
                    failed.append(index)
            if failed:
                return pending, failed
        return [], []
    finally:
        bridge_stop.set()
        if bridge is not None:
            bridge.join()


def _drain(ctx, num_workers, job, cancel, num_patterns):
    """Drain every chunk of ``job`` over one lease board; per-pattern totals.

    Each chunk's count slots hold one value per fused-group member.
    Raises :class:`~repro.errors.WorkerCrashError` when a chunk exhausts
    its retries and :class:`~repro.errors.QueryCancelledError` when
    ``cancel`` fires with chunks outstanding — both carrying the partial
    over fully-counted chunks, per-pattern totals in
    ``partial.detail["totals"]``.
    """
    num_chunks = job.offsets[-1]
    if num_chunks == 0:
        return [0] * num_patterns
    slot_offsets = [0]
    for group, ledger in zip(job.groups, job.ledgers):
        for _ in range(len(ledger)):
            slot_offsets.append(slot_offsets[-1] + len(group))
    board = LeaseBoard(ctx, num_chunks, slot_offsets)

    def totals_of(indices):
        totals = [0] * num_patterns
        for index in indices:
            gi = bisect_right(job.offsets, index) - 1
            for pos, value in enumerate(board.values(index)):
                totals[job.groups[gi][pos]] += value
        return totals

    def partial(reason, detail):
        done = board.done_indices(num_chunks)
        totals = totals_of(done)
        return PartialResult(
            sum(totals),
            levels_completed=len(done),
            truncated=True,
            reason=reason,
            detail={**detail, "totals": totals},
        )

    pending, failed = _lease_rounds(
        ctx, num_workers, board, num_chunks, cancel, job
    )
    if failed:
        raise WorkerCrashError(
            f"{len(failed)} chunk(s) still incomplete after "
            f"{MAX_CHUNK_RETRIES} requeue(s): workers keep dying "
            f"on chunk(s) {failed[:8]}",
            partial(
                "worker crash",
                {
                    "failed_chunks": failed,
                    "retries": MAX_CHUNK_RETRIES,
                    "num_chunks": num_chunks,
                },
            ),
        )
    if pending:
        raise QueryCancelledError(
            f"query cancelled with {len(pending)} of {num_chunks} "
            f"chunk(s) incomplete",
            partial(
                "cancelled",
                {"pending_chunks": len(pending), "num_chunks": num_chunks},
            ),
        )
    return totals_of(range(num_chunks))


def _apply_guard_mode(
    session,
    patterns,
    guard,
    num_processes,
    frontier_chunk,
    edge_induced,
    symmetry_breaking,
):
    """Process-runtime admission guard: probe, then refuse or downgrade.

    Returns the (possibly downgraded) ``(num_processes, frontier_chunk)``
    pair — an explosive estimate under ``guard="downgrade"`` caps the
    worker count (bounding fork-side memory multiplication) and tightens
    the per-engine frontier chunk.  ``guard="refuse"`` raises
    :class:`~repro.errors.QueryRefusedError` on the first pattern
    predicted explosive.
    """
    if guard in (None, "off"):
        return num_processes, frontier_chunk
    from . import guards

    if guard not in guards.GUARD_CHOICES:
        raise ValueError(
            f"guard must be one of {guards.GUARD_CHOICES}, got {guard!r}"
        )
    # Probe through the session cache so admission and planning share
    # one walk per (pattern, flags) — a guarded planned query probes
    # exactly once.
    exec_opts = session.options(
        edge_induced=edge_induced, symmetry_breaking=symmetry_breaking
    )
    seen_signatures: set = set()
    for pattern in patterns:
        signature = pattern.signature()
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)
        estimate = session._guard_estimate(pattern, exec_opts)
        if not estimate.explosive:
            continue
        if guard == "refuse":
            raise guards.refusal(estimate)
        num_processes = guards.cap_workers(estimate, num_processes)
        frontier_chunk = (
            guards.DOWNGRADE_FRONTIER_CHUNK
            if frontier_chunk is None
            else min(frontier_chunk, guards.DOWNGRADE_FRONTIER_CHUNK)
        )
    return num_processes, frontier_chunk


def _rgx_store(session):
    """An on-disk degree-ordered ``.rgx`` path for the session's graph.

    Returns ``(path, is_temp)``.  When the session's ordered graph is
    already array-backed by an on-disk store (a converted ``.rgx`` file
    whose ids are degree-sorted) spawned workers re-open that file
    directly and nothing is written.  Anything else — generated graphs,
    unsorted stores — is spilled to a temporary ``.rgx`` once; the caller
    must unlink it (workers keep their mappings alive across the unlink,
    so cleanup in a ``finally`` is safe even mid-run).
    """
    import tempfile

    from ..graph.binary_io import save_mmap

    ordered = session.ordered
    store = ordered.backing_store
    if store is not None and ordered.is_degree_ordered():
        return store.path, False
    fd, path = tempfile.mkstemp(prefix="repro-graph-", suffix=".rgx")
    os.close(fd)
    save_mmap(ordered, path)
    return path, True


def process_count(
    graph: DataGraph | MiningSession,
    pattern: Pattern,
    num_processes: int | None = 2,
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    schedule: str | None = None,
    chunk_hint: int | None = None,
    cancel: ExplorationControl | None = None,
    guard: str | None = None,
    plan: str | None = None,
) -> int:
    """Count matches of one pattern with worker processes.

    The single-pattern face of :func:`process_count_many` — same runner,
    same knobs, one member: ``process_count_many(graph, [pattern],
    ...)[pattern]``.  The Figure 12 scalability benchmark drives it.
    """
    return process_count_many(
        graph,
        [pattern],
        num_processes=num_processes,
        edge_induced=edge_induced,
        symmetry_breaking=symmetry_breaking,
        schedule=schedule,
        chunk_hint=chunk_hint,
        cancel=cancel,
        guard=guard,
        plan=plan,
    )[pattern]


def process_count_many(
    graph: DataGraph | MiningSession,
    patterns: Sequence[Pattern],
    num_processes: int | None = 2,
    edge_induced: bool = True,
    symmetry_breaking: bool = True,
    label_index: bool = True,
    schedule: str | None = None,
    chunk_hint: int | None = None,
    frontier_chunk: int | None = None,
    cancel: ExplorationControl | None = None,
    guard: str | None = None,
    plan: str | None = None,
) -> dict[Pattern, int]:
    """Count every pattern with worker processes over fused frontier chunks.

    Patterns are grouped by shared level-0 frontier signature
    (:class:`~repro.core.session.MultiPatternPlan`, group floor 1), each
    group's frontier (hub-first, label-filtered start tasks) is cut into
    chunks, and worker processes pull chunks from one shared queue
    spanning *all* groups — every chunk runs the whole group through
    :func:`repro.core.accel.fused_run`, so motif censuses and FSM-style
    pattern sets scale across cores without giving up the shared
    first-level gathers.

    ``schedule`` picks how the frontier is cut.  ``"dynamic"`` (default)
    makes degree-weighted chunks (``chunk_hint`` tunes the granularity:
    target starts per chunk on a uniform frontier), so whoever finishes
    early keeps pulling and one mega-hub never holds the whole run.
    ``"static"`` makes one stride slice per worker (the §5.2
    interleaving without stealing, kept as the ablation baseline).
    ``num_processes=None`` defers pool sizing: under ``plan="auto"`` the
    planner sizes the pool from measured work volume (budgeted at the
    machine's core count); under ``plan="fixed"`` the legacy default of
    :data:`DEFAULT_NUM_PROCESSES` applies.  ``None`` knobs inherit the
    session's :class:`~repro.core.session.ExecOptions` defaults.

    Counts are pinned to the sequential ``count_many`` (the census/Möbius
    rewrite is a sequential-only optimization; the process path counts
    every requested plan directly).  ``frontier_chunk`` bounds each
    worker engine's per-dispatch frontier exactly as in sequential runs.
    With ``num_processes <= 1`` the call falls back to the sequential
    session path.  Workers inherit the parent's CSR view where the fork
    start method exists and otherwise re-open the graph's ``.rgx`` store
    (its own degree-sorted file, or one temporary spill), so scaling
    ``num_processes`` never multiplies graph copies or pickling time.

    Both schedules are **crash-tolerant**: chunk leases over a shared
    :class:`~repro.runtime.scheduler.LeaseBoard` let the parent requeue
    any chunk whose worker died before its counts landed (bounded
    retries, then :class:`~repro.errors.WorkerCrashError` carrying the
    partial), so a mid-run worker death still yields exact counts.
    ``cancel`` (any :class:`~repro.core.callbacks.ExplorationControl`,
    e.g. a :class:`~repro.runtime.termination.DeadlineControl`) is
    bridged into a shared flag workers honor *mid-chunk*; firing it with
    chunks outstanding raises :class:`~repro.errors.QueryCancelledError`
    with per-pattern partial totals in ``partial.detail["totals"]``.
    ``guard`` ("refuse" or "downgrade") runs the
    :mod:`~repro.runtime.guards` admission probe first — refusing
    predicted-explosive pattern sets, or capping the worker count and
    the frontier chunk.
    """
    session = as_session(graph)
    plan_mode = _resolve_plan_mode(session, plan)
    num_processes = _resolve_pool_size(
        num_processes, plan_mode, DEFAULT_NUM_PROCESSES
    )
    patterns = list(patterns)
    num_processes, frontier_chunk = _apply_guard_mode(
        session, patterns, guard, num_processes, frontier_chunk,
        edge_induced, symmetry_breaking,
    )
    if plan_mode == "auto" and patterns:
        # One probe per distinct member (shared with the guard above)
        # plans the whole drain: pool size from summed level-1 volume,
        # schedule from skew, frontier chunk from predicted partials.
        from . import planner as _planner

        workload_plan = _planner.plan_workload(
            session,
            patterns,
            session.options(
                edge_induced=edge_induced,
                symmetry_breaking=symmetry_breaking,
                frontier_chunk=frontier_chunk,
            ),
            num_workers=num_processes,
        )
        num_processes = workload_plan.num_workers
        if schedule is None:
            schedule = workload_plan.schedule
        if chunk_hint is None:
            chunk_hint = workload_plan.chunk_hint
        frontier_chunk = workload_plan.frontier_chunk
    schedule, chunk_hint = _resolve_scheduling(session, schedule, chunk_hint)
    if num_processes <= 1 or not patterns:
        return session.count_many(
            patterns,
            edge_induced=edge_induced,
            symmetry_breaking=symmetry_breaking,
            label_index=label_index,
            frontier_chunk=frontier_chunk,
            plan=plan_mode,
        )

    ordered = session.ordered
    labels = ordered.labels()
    plans = [
        session.plan_for(
            p, edge_induced=edge_induced, symmetry_breaking=symmetry_breaking
        )
        for p in patterns
    ]
    if labels is None and any(pl.matched_pattern.is_labeled for pl in plans):
        raise MatchingError(
            "pattern has label constraints but the data graph is unlabeled"
        )
    multi = MultiPatternPlan.build(
        plans, label_index=label_index and labels is not None, min_group=1
    )
    view = session.view
    degrees = view.degrees()
    np = accel.np

    groups: list[tuple[int, ...]] = []
    ledgers: list[ChunkLedger] = []
    offsets = [0]
    for group, key in zip(multi.groups, multi.group_keys):
        starts = group_start_vertices(ordered, key)
        if starts is None:
            frontier = np.arange(view.num_vertices - 1, -1, -1, dtype=np.int64)
        else:
            frontier = np.asarray(starts, dtype=np.int64)
        if schedule == "static":
            ledger = ChunkLedger.static(frontier, num_processes)
        else:
            ledger = ChunkLedger.build(
                frontier,
                weights=degrees[frontier] + 1,
                chunk_hint=chunk_hint,
                num_workers=num_processes,
            )
        groups.append(tuple(group))
        ledgers.append(ledger)
        offsets.append(offsets[-1] + len(ledger))

    job = _Job(view, plans, groups, ledgers, offsets, frontier_chunk)
    if _fork_available():
        totals = _drain(
            multiprocessing.get_context("fork"), num_processes, job, cancel,
            len(patterns),
        )
        return dict(zip(patterns, totals))
    path, is_temp = _rgx_store(session)
    try:
        totals = _drain(
            multiprocessing.get_context("spawn"), num_processes,
            replace(job, graph=path), cancel, len(patterns),
        )
    finally:
        # The spill file is parent-owned: unlink it no matter how the
        # drain exits — crash/cancel errors included.  Workers that
        # already mapped it keep their pages (POSIX unlink-while-mapped).
        if is_temp:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - already gone
                pass
    return dict(zip(patterns, totals))
