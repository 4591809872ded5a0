"""Session-centric query surface: pinned graph state, one options path.

Peregrine's headline contribution is a *declarative, pattern-aware API*
(§3, Fig 4): programs are written against ``match``/``count`` verbs and
aggregators while the system owns planning and execution.  A
:class:`MiningSession` is that API with the per-graph state made
explicit: it pins one :class:`~repro.graph.graph.DataGraph` and amortizes
everything derivable from it across queries —

* the degree-ordered copy and its id translation (§5.2), computed once;
* the numpy CSR :class:`~repro.core.accel.AcceleratedGraphView`, built
  lazily on the first vectorized run and shared by every later one;
* exploration plans (§4), cached per ``(pattern, edge_induced,
  symmetry_breaking)`` — motif censuses, FSM rounds and repeated service
  queries re-plan nothing;
* label-filtered start-vertex lists (the G-Miner §6.4 pruning), cached
  per plan.

Execution knobs live in one frozen :class:`ExecOptions` value with a
single resolution path: session defaults, overridden per call.  The
session exposes the full verb set — :meth:`MiningSession.match`,
:meth:`~MiningSession.count`, :meth:`~MiningSession.count_many`,
:meth:`~MiningSession.match_many`,
:meth:`~MiningSession.match_batches_many`,
:meth:`~MiningSession.exists`, :meth:`~MiningSession.match_batches` and
:meth:`~MiningSession.aggregate` (the paper's map/reduce aggregator
idiom, §5.4).  Multi-pattern verbs fuse compatible patterns
(:class:`MultiPatternPlan` grouping) onto one shared frontier walk
through :func:`repro.core.accel.fused_run`, with count-only
vertex-induced censuses demultiplexed off the shared non-induced basis
(:mod:`repro.core.multipattern`).  The module-level functions in
:mod:`repro.core.api` are
one-shot shims over the per-graph shared session
(:meth:`MiningSession.for_graph`), so legacy programs transparently get
the same caches.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence, Union

from ..errors import BudgetExceededError, MatchingError, PartialResult
from ..graph.graph import DataGraph
from ..pattern.pattern import Pattern
from . import accel as _accel
from .callbacks import Aggregator, Budget, ExplorationControl, Match
from .engine import EngineStats, run_tasks
from .multipattern import CensusTransform, census_eligible, census_transform
from .plan import ExplorationPlan, generate_plan

__all__ = [
    "ExecOptions",
    "MiningSession",
    "MultiPatternPlan",
    "as_session",
    "group_start_vertices",
    "FUSED_MIN_GROUP",
]

_ENGINE_CHOICES = ("auto", "accel-batch", "reference")

# Guardrail knob values (see ExecOptions.on_budget / ExecOptions.guard).
_ON_BUDGET_CHOICES = ("raise", "partial")
_GUARD_CHOICES = ("off", "refuse", "downgrade")

# Dispatch-policy knob values (see ExecOptions.planner): "fixed" keeps
# the static defaults, "auto" plans per query from the probe walk.
_PLANNER_CHOICES = ("fixed", "auto")

# What a session accepts as its graph: the graph itself, an opened .rgx
# GraphStore, or a filesystem path routed through open_graph.
GraphSource = Union[DataGraph, str, os.PathLike, "GraphStore"]


def _coerce_graph(source) -> DataGraph:
    """Resolve a session graph source to a :class:`DataGraph`.

    Accepts a graph directly, a filesystem path (``str``/``os.PathLike``
    — ``.rgx`` stores open zero-copy via
    :func:`~repro.graph.binary_io.open_graph`), or an already-opened
    :class:`~repro.graph.binary_io.GraphStore`.  The storage tier is
    imported lazily, only when a path or store is given.
    """
    if isinstance(source, DataGraph):
        return source
    if isinstance(source, (str, os.PathLike)):
        from ..graph.binary_io import open_graph

        return open_graph(source)
    from ..graph.binary_io import GraphStore

    if isinstance(source, GraphStore):
        return source.graph()
    raise TypeError(
        "expected DataGraph, GraphStore or a graph path, got "
        f"{type(source).__name__}"
    )

# Engine choices for the multi-pattern verbs: everything a single-pattern
# run accepts, plus "fused" to force the fused multi-pattern runner
# (ablations; "auto" fuses whenever the run qualifies).
_MULTI_ENGINE_CHOICES = ("fused",) + _ENGINE_CHOICES

# Smallest fusable group worth routing through the fused runner under
# engine="auto": a single-member group shares nothing, so it runs through
# the ordinary per-pattern dispatch.  engine="fused" ignores the floor.
FUSED_MIN_GROUP = 2

def _dispatch_engine(engine: str, stats: EngineStats | None, timer) -> str:
    """Resolve the engine choice to ``reference`` or ``accel-batch``.

    ``engine="auto"`` means the frontier-batched engine.  ``stats`` and
    ``timer`` are reference-engine instruments, so they pin the
    interpreter; forcing the batched engine alongside them raises.  An
    :class:`ExplorationControl` changes nothing: the batched engine polls
    it between frontier blocks and per emitted match.
    """
    if engine not in _ENGINE_CHOICES:
        raise ValueError(f"engine must be one of {_ENGINE_CHOICES}, got {engine!r}")
    if engine == "reference":
        return "reference"
    hooks_free = stats is None and timer is None
    if engine == "accel-batch" and not hooks_free:
        raise MatchingError(
            "engine='accel-batch' does not support stats/timer hooks; use "
            "engine='auto' to fall back to the reference engine"
        )
    return "accel-batch" if hooks_free else "reference"


def _starts_with_labels(ordered: DataGraph, labels) -> list[int]:
    """Union of the labels' vertices, descending (hub-first issue order).

    The one start-ordering rule shared by per-plan label filtering and
    the fused runner's group frontiers — both must walk the same
    hub-first order for fused and standalone runs to stay identical.
    """
    starts: set[int] = set()
    for label in labels:
        starts.update(ordered.vertices_with_label(label))
    return sorted(starts, reverse=True)


def _label_filtered_starts(ordered: DataGraph, plan: ExplorationPlan):
    """Start vertices restricted by the matching orders' top-position labels.

    The G-Miner observation (§6.4): indexing vertices by label prunes
    whole tasks when the pattern is labeled.  Every task's start vertex
    must match some ordered core's *top* position; when all cores pin
    that position to a label, only the union of those labels' vertices
    can seed a match.  Returns ``None`` (no restriction) when any core's
    top position is a wildcard or the graph is unlabeled.
    """
    if ordered.labels() is None:
        return None
    top_labels = plan.pinned_start_labels()
    if top_labels is None:
        return None
    return _starts_with_labels(ordered, top_labels)


def group_start_vertices(ordered: DataGraph, key: frozenset | None):
    """The fused level-0 frontier for one :class:`MultiPatternPlan` group.

    ``None`` (unrestricted) means "seed from every vertex, hub-first" —
    callers pass ``None`` through to the runner; a label-set key
    restricts to its vertices in the same hub-first order, exactly what
    each member's own :func:`_label_filtered_starts` would produce.
    Shared with the process runtime
    (:func:`repro.runtime.parallel.process_count_many`), which chunks
    this frontier across workers.
    """
    if key is None:
        return None
    return _starts_with_labels(ordered, key)


@dataclass(frozen=True)
class MultiPatternPlan:
    """A multi-pattern workload grouped for fused frontier execution.

    ``plans`` holds every member's exploration plan in reference order
    (the order the patterns were supplied in — results always demultiplex
    back to it).  Members are *compatible* when they share a level-0
    frontier: the grouping key is the plan's pinned-start-label set
    (:meth:`~repro.core.plan.ExplorationPlan.pinned_start_labels`), or
    ``None`` when starts are unrestricted — so unlabeled censuses and FSM
    structural rounds collapse into one group, while label-pinned
    patterns group per distinct label set.  ``groups`` lists the fusable
    groups (member indices, each at least ``min_group`` strong) and
    ``singles`` the left-over indices that run through the ordinary
    per-pattern dispatch.
    """

    plans: tuple[ExplorationPlan, ...]
    groups: tuple[tuple[int, ...], ...]
    group_keys: tuple[frozenset | None, ...]
    singles: tuple[int, ...]

    @classmethod
    def build(
        cls,
        plans: Sequence[ExplorationPlan],
        label_index: bool = True,
        min_group: int = FUSED_MIN_GROUP,
    ) -> "MultiPatternPlan":
        """Group ``plans`` by shared frontier signature.

        With ``label_index`` disabled every member seeds from the full
        vertex set, so all plans share the unrestricted frontier and
        collapse into one group regardless of label pins.
        """
        by_key: dict[frozenset | None, list[int]] = {}
        for idx, plan in enumerate(plans):
            pinned = plan.pinned_start_labels() if label_index else None
            key = frozenset(pinned) if pinned is not None else None
            by_key.setdefault(key, []).append(idx)
        groups: list[tuple[int, ...]] = []
        group_keys: list[frozenset | None] = []
        singles: list[int] = []
        for key, indices in by_key.items():
            if len(indices) >= max(1, min_group):
                groups.append(tuple(indices))
                group_keys.append(key)
            else:
                singles.extend(indices)
        return cls(
            plans=tuple(plans),
            groups=tuple(groups),
            group_keys=tuple(group_keys),
            singles=tuple(sorted(singles)),
        )


@dataclass(frozen=True)
class ExecOptions:
    """Every execution knob of a matching run, in one frozen value.

    A session holds one ``ExecOptions`` as its defaults; every verb
    accepts the same field names as keyword overrides and resolves them
    through :meth:`merged` — the single resolution path.  The fields are
    exactly the knobs the legacy per-function surface scattered across
    ``match``/``count``/``match_batches``/the runtimes:

    ``edge_induced`` / ``symmetry_breaking``
        matching semantics (Theorem 3.1; PRG-U ablation).
    ``engine`` / ``frontier_chunk``
        engine dispatch (see :func:`_dispatch_engine`) and the batched
        engine's per-dispatch frontier cap.
    ``label_index``
        label-filtered start pruning (§6.4); disable for ablations.
    ``flush_size``
        row-buffer size when ``match_batches`` runs on the reference
        engine.
    ``start_vertices``
        explicit task seeds (runtime partitioning); per-call only.
    ``control`` / ``stats`` / ``timer``
        early termination (§5.3) and profiling hooks (Fig 1 / Fig 11).
    ``plan``
        a precomputed :class:`~repro.core.plan.ExplorationPlan`,
        bypassing the session plan cache; per-call only.  The strings
        ``"auto"``/``"fixed"`` are accepted as a spelling of
        ``planner`` (below) and resolve to it in :meth:`merged`.
    ``planner``
        dispatch policy: ``"fixed"`` (default) keeps the static
        schedule/chunk defaults; ``"auto"`` runs the bounded probe walk
        once per (pattern, flags) and lets
        :func:`repro.runtime.planner.plan_query` choose schedule,
        frontier chunk, worker count and approximate routing from the
        measured per-pattern signals.  The probe is shared with the
        admission guard, so ``guard != "off"`` plus ``planner="auto"``
        still probes exactly once.
    ``schedule`` / ``chunk_hint``
        concurrent-runtime work placement (§5.2, §5.5):
        ``schedule="dynamic"`` (default) has workers pull
        degree-weighted frontier chunks from a shared cursor until the
        queue drains (work stealing — stragglers on skewed graphs are
        absorbed by whoever is free), ``"static"`` pre-assigns each
        worker a stride slice of the frontier (the ablation baseline).
        ``chunk_hint`` sets the target tasks-per-chunk on a uniform
        frontier (weight-normalized on skewed ones); ``None`` sizes
        chunks automatically.  Single-worker runs ignore both.
    ``budget`` / ``on_budget``
        execution guardrails: ``budget`` is a frozen
        :class:`~repro.core.callbacks.Budget` (wall-clock deadline,
        match / frontier-row / expanded-partial caps), armed per run and
        polled cooperatively between frontier chunks by every engine.
        Exhaustion raises :class:`~repro.errors.BudgetExceededError`
        carrying the partial count so far, or — with
        ``on_budget="partial"`` — returns that
        :class:`~repro.errors.PartialResult` (an ``int`` subclass with
        ``truncated=True``) instead of raising.
    ``guard``
        admission control: ``"refuse"`` probes the query's level-0
        frontier up front (:func:`repro.runtime.guards.estimate_cost`)
        and raises :class:`~repro.errors.QueryRefusedError` when the
        predicted expansion is explosive; ``"downgrade"`` instead
        tightens ``frontier_chunk`` (and the process runtimes cap
        workers); ``"off"`` (default) skips the probe entirely.  Under
        ``"downgrade"``, count-only queries predicted *far* past the
        explosive threshold additionally escalate to the approximate
        tier (see :data:`repro.runtime.guards.DOWNGRADE_APPROX_FACTOR`).
    ``approx`` / ``confidence`` / ``max_samples``
        the approximate-counting tier (ROADMAP item 4):
        ``approx=rel_err`` makes :meth:`~MiningSession.count` /
        :meth:`~MiningSession.count_many` return
        :class:`~repro.mining.sampling.ApproxCount` estimates instead of
        exact counts — sampled level-0 frontiers through the real
        engines with Horvitz–Thompson reweighting, growing the sample
        adaptively until the two-sided ``confidence`` interval is within
        ``rel_err`` of the estimate or ``max_samples`` starts were
        drawn (``None`` = up to the frontier size, at which point the
        run degenerates to an exact count).  Count-only: the other verbs
        reject it.
    ``latency_budget``
        seconds of predicted exact work the caller is willing to pay;
        under ``planner="auto"`` a query whose probe predicts more
        routes to the approximate tier automatically (``approx`` stays
        ``None`` → the planner engages
        :data:`repro.runtime.planner.AUTO_APPROX_REL_ERR`).
    ``seed``
        RNG seed for the sampling tier (deterministic estimates for
        tests and benchmarks); ``None`` seeds from entropy.
    """

    edge_induced: bool = True
    symmetry_breaking: bool = True
    engine: str = "auto"
    frontier_chunk: int | None = None
    label_index: bool = True
    flush_size: int = 4096
    start_vertices: Iterable[int] | None = None
    control: ExplorationControl | None = None
    stats: EngineStats | None = None
    timer: Any = None
    plan: ExplorationPlan | None = None
    planner: str = "fixed"
    schedule: str = "dynamic"
    chunk_hint: int | None = None
    budget: Budget | None = None
    on_budget: str = "raise"
    guard: str = "off"
    approx: float | None = None
    confidence: float = 0.95
    max_samples: int | None = None
    latency_budget: float | None = None
    seed: int | None = None

    def merged(self, overrides: Mapping[str, Any]) -> "ExecOptions":
        """Resolve per-call ``overrides`` against these defaults.

        Unknown names raise ``TypeError`` with the valid field list, so a
        typo'd knob fails loudly instead of being silently dropped.
        ``engine=None`` means "inherit the default" — session-consumer
        wrappers (mining entry points) forward their ``engine`` parameter
        unconditionally and ``None`` is its not-specified value.
        """
        if not overrides:
            return self
        unknown = [k for k in overrides if k not in _OPTION_FIELDS]
        if unknown:
            raise TypeError(
                f"unknown execution option(s) {sorted(unknown)}; "
                f"valid options: {sorted(_OPTION_FIELDS)}"
            )
        resolved = dict(overrides)
        if resolved.get("engine", "") is None:
            del resolved["engine"]
        # ``plan="auto"``/``plan="fixed"`` select the dispatch policy,
        # not a precomputed ExplorationPlan — translate the string
        # spelling to the ``planner`` field.
        if isinstance(resolved.get("plan"), str):
            resolved["planner"] = resolved.pop("plan")
        if not resolved:
            return self
        return dataclasses.replace(self, **resolved)


_OPTION_FIELDS = frozenset(f.name for f in dataclasses.fields(ExecOptions))

# Knobs that only make sense for a single query, not as session defaults.
_PER_CALL_ONLY = ("plan", "start_vertices")

# Cached plans are small but a long-lived service graph can see an
# unbounded stream of ad-hoc patterns; cap the cache and evict FIFO
# (insertion order) so memory stays bounded without an eviction policy
# knob.  Start lists are keyed per plan and evicted in lockstep.
PLAN_CACHE_LIMIT = 1024


class _LinkedControl(ExplorationControl):
    """A control that also observes an external cancel token.

    :meth:`stop` sets only the *internal* flag, so a query using this as
    its private stop signal never cancels the caller's shared token;
    :attr:`stopped` reports either side.
    """

    __slots__ = ("_external",)

    def __init__(self, external: ExplorationControl):
        super().__init__()
        self._external = external

    @property
    def stopped(self) -> bool:
        return self._event.is_set() or self._external.stopped


class MiningSession:
    """All of Peregrine's verbs over one pinned data graph.

    Construction is cheap — every derived structure (degree ordering,
    CSR view, plans, start lists) is built lazily on first use and cached
    for the session's lifetime.  Graphs are immutable, so nothing a
    session caches can go stale.

    Parameters
    ----------
    graph:
        the data graph every query of this session runs against — a
        :class:`DataGraph`, an opened
        :class:`~repro.graph.binary_io.GraphStore`, or a filesystem path
        (``.rgx`` stores open zero-copy; ``.npz`` and edge lists parse).
    defaults:
        an :class:`ExecOptions` to use as the session defaults, or
        ``None`` for the standard defaults.
    **options:
        alternative to ``defaults``: individual ``ExecOptions`` field
        overrides (``MiningSession(g, engine="reference")``).

    Example
    -------
    >>> s = MiningSession(graph)
    >>> s.count(generate_clique(3))
    >>> s.count_many(generate_all_vertex_induced(4), edge_induced=False)
    >>> s.exists(generate_clique(5))
    """

    __slots__ = (
        "graph",
        "defaults",
        "_ordered",
        "_old_of_new",
        "_translation",
        "_plans",
        "_starts",
        "_census",
        "_guard_cache",
        "last_query_plan",
        "plan_cache_hits",
        "plan_cache_misses",
    )

    def __init__(
        self,
        graph: GraphSource,
        defaults: ExecOptions | None = None,
        **options,
    ):
        if defaults is not None and options:
            raise TypeError("pass defaults= or keyword options, not both")
        base = defaults if defaults is not None else ExecOptions().merged(options)
        for name in _PER_CALL_ONLY:
            if getattr(base, name) is not None:
                raise ValueError(
                    f"{name!r} is a per-call option, not a session default"
                )
        self.graph = _coerce_graph(graph)
        self.defaults = base
        self._ordered: DataGraph | None = None
        self._old_of_new: list[int] | None = None
        self._translation = None  # numpy mirror of _old_of_new (lazy)
        self._plans: dict[tuple, ExplorationPlan] = {}
        self._starts: dict[tuple, list[int] | None] = {}
        self._census: dict[tuple, CensusTransform] = {}
        self._guard_cache: dict[tuple, Any] = {}
        # The most recent QueryPlan chosen under planner="auto"
        # (introspection: CLI explain, service echo, tests).
        self.last_query_plan = None
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    @classmethod
    def for_graph(cls, graph: GraphSource) -> "MiningSession":
        """The graph's shared default session (created on first use).

        This is what the legacy :mod:`repro.core.api` shims run on, so
        plain ``count(graph, p)`` calls share one plan cache per graph.
        The shared session always carries pristine defaults; shims pass
        every knob explicitly.  Paths and
        :class:`~repro.graph.binary_io.GraphStore` instances are accepted
        too; the shared session then lives on the loaded graph (and on
        the store's cached graph, so repeated ``for_graph(store)`` calls
        reuse one session).
        """
        graph = _coerce_graph(graph)
        session = graph._session_cache
        if session is None:
            session = cls(graph)
            graph._session_cache = session
        return session

    # ------------------------------------------------------------------
    # Cached per-graph state
    # ------------------------------------------------------------------

    @property
    def ordered(self) -> DataGraph:
        """The degree-ordered copy of the pinned graph (§5.2), cached."""
        if self._ordered is None:
            ordered, old_of_new = self.graph.degree_ordered()
            # Publish the translation before the ordered graph: a
            # concurrent first use observing _ordered set may then rely
            # on _old_of_new being set too (no lock on the lazy init;
            # degree_ordered itself is idempotent and graph-cached).
            self._old_of_new = old_of_new
            self._ordered = ordered
        return self._ordered

    @property
    def translation(self) -> list[int]:
        """``old_of_new`` id map from ordered ids back to caller ids."""
        if self._old_of_new is None:
            self.ordered
        return self._old_of_new

    @property
    def view(self):
        """The CSR :class:`AcceleratedGraphView` of the ordered graph."""
        return _accel.shared_view(self.ordered)

    def options(self, **overrides) -> ExecOptions:
        """Session defaults merged with ``overrides`` — the one knob path."""
        return self.defaults.merged(overrides)

    def plan_for(
        self,
        pattern: Pattern,
        edge_induced: bool | None = None,
        symmetry_breaking: bool | None = None,
    ) -> ExplorationPlan:
        """The (cached) exploration plan for ``pattern`` under the flags.

        ``None`` flags fall back to the session defaults.  The cache is
        keyed by the pattern's exact signature, so mutating a pattern
        after a query simply misses the cache instead of serving a stale
        plan.
        """
        if edge_induced is None:
            edge_induced = self.defaults.edge_induced
        if symmetry_breaking is None:
            symmetry_breaking = self.defaults.symmetry_breaking
        return self._cached_plan(pattern, edge_induced, symmetry_breaking)[0]

    def clear_caches(self) -> None:
        """Drop cached plans and start lists (hit/miss counters persist).

        The graph-level state (degree ordering, CSR view) stays — it is
        O(graph) once, whereas plans/start lists grow with the pattern
        stream (bounded by :data:`PLAN_CACHE_LIMIT`, FIFO-evicted).
        """
        self._plans.clear()
        self._starts.clear()
        self._census.clear()

    def close(self, release_store: bool = False) -> None:
        """Release everything this session derived from its graph.

        The registry hook for the service tier
        (:class:`repro.service.SessionRegistry`): an evicted session must
        not keep the graph's derived state — degree-ordered copy, CSR
        view, plans, start lists, guard estimates — alive through its own
        references.  With ``release_store=True`` the graph's backing
        :class:`~repro.graph.binary_io.GraphStore` is closed too (mmap
        descriptors freed immediately); pass it only when the caller owns
        the store — i.e. this session (or its registry) opened the path —
        since a closed store invalidates every other graph/view aliasing
        the mapped sections.  The session is unusable afterwards.
        """
        self.clear_caches()
        self._guard_cache.clear()
        self.last_query_plan = None
        self._ordered = None
        self._old_of_new = None
        self._translation = None
        graph = self.graph
        if graph is not None:
            # Drop the graph-cached derived objects we may have built, so
            # the graph itself does not pin the CSR view or this session.
            graph._accel_view = None
            graph._ordered_cache = None
            if graph._session_cache is self:
                graph._session_cache = None
            if release_store and graph.backing_store is not None:
                graph.backing_store.close()

    def cache_info(self) -> dict[str, Any]:
        """Cache occupancy/hit counters (tests, benchmarks, dashboards)."""
        return {
            "plans": len(self._plans),
            "plan_hits": self.plan_cache_hits,
            "plan_misses": self.plan_cache_misses,
            "start_lists": len(self._starts),
            "census_transforms": len(self._census),
            "ordered_built": self._ordered is not None,
            "view_built": (
                self._ordered is not None
                and self._ordered._accel_view is not None
            ),
        }

    def _cached_plan(
        self, pattern: Pattern, edge_induced: bool, symmetry_breaking: bool
    ):
        """The (plan, cache key) pair for ``pattern`` under the flags."""
        key = (pattern.signature(), edge_induced, symmetry_breaking)
        plan = self._plans.get(key)
        if plan is None:
            self.plan_cache_misses += 1
            plan = generate_plan(
                pattern,
                edge_induced=edge_induced,
                symmetry_breaking=symmetry_breaking,
            )
            self._plans[key] = plan
            if len(self._plans) > PLAN_CACHE_LIMIT:
                oldest = next(iter(self._plans))
                del self._plans[oldest]
                self._starts.pop(oldest, None)
        else:
            self.plan_cache_hits += 1
        return plan, key

    def _prepare(self, pattern: Pattern, opts: ExecOptions):
        """Shared verb prelude: resolve (plan, start vertices, engine).

        An explicit ``opts.plan`` bypasses the plan cache (and therefore
        the start-list cache keyed on it).
        """
        if opts.plan is not None:
            plan, key = opts.plan, None
        else:
            plan, key = self._cached_plan(
                pattern, opts.edge_induced, opts.symmetry_breaking
            )
        starts = opts.start_vertices
        if starts is None and opts.label_index:
            starts = self._starts_for(plan, key)
        selected = _dispatch_engine(opts.engine, opts.stats, opts.timer)
        return plan, starts, selected

    def _starts_for(self, plan: ExplorationPlan, key: tuple | None):
        """Label-filtered start vertices for ``plan`` (cached per plan)."""
        if key is None:
            return _label_filtered_starts(self.ordered, plan)
        if key not in self._starts:
            self._starts[key] = _label_filtered_starts(self.ordered, plan)
        return self._starts[key]

    def _translated(
        self, callback: Callable[[Match], None]
    ) -> Callable[[Match], None]:
        """Wrap ``callback`` to report matches in the caller's vertex ids."""
        old_of_new = self.translation

        def wrapper(m: Match) -> None:
            translated = tuple(
                old_of_new[v] if v >= 0 else -1 for v in m.mapping
            )
            callback(Match(m.pattern, translated))

        return wrapper

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------

    def match(
        self,
        pattern: Pattern,
        callback: Callable[[Match], None] | None = None,
        **options,
    ) -> int:
        """Find every canonical match of ``pattern``; return the count.

        Invokes ``callback`` once per match (if given).  Any
        :class:`ExecOptions` field can be overridden by keyword; see the
        legacy :func:`repro.core.api.match` for per-knob semantics.
        """
        opts = self.defaults.merged(options)
        return self._run_match(pattern, callback, opts)

    def count(self, pattern: Pattern, **options) -> int:
        """Number of canonical matches of ``pattern``.

        Equivalent to :meth:`match` without a callback, but lets the
        engine count final-step candidate sets without enumerating them.

        With ``approx=rel_err`` the count is *estimated* instead:
        sampled level-0 frontiers run through the same engines and the
        return value is an :class:`~repro.mining.sampling.ApproxCount`
        (an object with ``estimate``/``stderr``/``ci_low``/``ci_high``;
        ``int()`` rounds it) whose interval is grown adaptively until it
        is within ``rel_err`` of the estimate — see
        :mod:`repro.mining.sampling`.  ``confidence``, ``max_samples``
        and ``seed`` tune the estimator; a query may also *auto-route*
        to this tier under ``plan="auto"`` with a ``latency_budget``, or
        via the ``guard="downgrade"`` escalation step.
        """
        opts = self.defaults.merged(options)
        return self._run_match(pattern, None, opts)

    def count_many(
        self, patterns: Sequence[Pattern], num_processes: int = 1, **options
    ) -> dict[Pattern, int]:
        """Count each pattern over the shared session state.

        The multi-pattern overload of the paper's ``count`` (motif
        counting, Fig 4e): the ordered graph, CSR view and plan cache are
        reused across every pattern instead of being re-derived per call,
        and compatible patterns additionally *fuse* — one shared level-0
        frontier walk with shared numpy gathers serves the whole group
        (see :meth:`match_many` for the dispatch rules).

        With ``num_processes > 1`` the workload runs through
        :func:`repro.runtime.parallel.process_count_many`: the fused
        frontier is cut into degree-weighted chunks that worker
        processes pull from a shared queue (``schedule``/``chunk_hint``
        apply), each chunk served by the same fused runner — true
        parallel speedup for motif censuses.  The process path counts
        only (``engine`` must be ``"auto"`` or ``"fused"``; hook options
        raise).

        With ``approx=rel_err`` every pattern is *estimated* instead
        (:class:`~repro.mining.sampling.ApproxCount` values): patterns
        group exactly like the exact fused path and each group's
        sampled rounds ride one shared
        :func:`~repro.core.accel.fused_run` walk, so multi-pattern
        estimation pays one frontier sample per group, not per pattern.
        """
        patterns = list(patterns)
        opts = self.defaults.merged(options)
        if opts.approx is not None:
            if num_processes > 1:
                raise MatchingError(
                    "count_many(approx=...) runs the sampling estimator "
                    "in-process; drop approx or use num_processes=1"
                )
            self._check_guardrail_opts(opts)
            from ..mining.sampling import approx_count_many_session

            return approx_count_many_session(self, patterns, opts)
        if num_processes > 1:
            from ..runtime.parallel import process_count_many

            unsupported = [
                name
                for name in ("stats", "timer", "control", "plan",
                             "start_vertices", "budget", "latency_budget")
                if getattr(opts, name) is not None
            ]
            if unsupported:
                raise MatchingError(
                    f"count_many(num_processes={num_processes}) does not "
                    f"support the {sorted(unsupported)} option(s); drop "
                    "them or use num_processes=1"
                )
            if opts.engine not in ("auto", "fused"):
                raise MatchingError(
                    f"engine={opts.engine!r} is not available under "
                    "processes; use 'auto' or 'fused'"
                )
            return process_count_many(
                self,
                patterns,
                num_processes=num_processes,
                edge_induced=opts.edge_induced,
                symmetry_breaking=opts.symmetry_breaking,
                label_index=opts.label_index,
                schedule=opts.schedule,
                chunk_hint=opts.chunk_hint,
                frontier_chunk=opts.frontier_chunk,
                guard=opts.guard,
                plan=opts.planner,
            )
        totals = self._run_many(patterns, None, None, opts)
        return dict(zip(patterns, totals))

    def match_many(
        self,
        patterns: Sequence[Pattern],
        callbacks: Sequence[Callable[[Match], None] | None] | None = None,
        **options,
    ) -> list[int]:
        """Match every pattern; return per-pattern counts in input order.

        ``callbacks[i]`` (if given) fires once per match of
        ``patterns[i]``, in exactly the order a standalone
        :meth:`match` of that pattern would produce — fusion never
        reorders a member's own matches, only interleaves work *between*
        members.

        **Fused dispatch.**  With ``engine="auto"`` (and no
        ``stats``/``timer``/``plan``/``start_vertices`` overrides),
        patterns sharing a level-0 frontier signature are grouped by
        :class:`MultiPatternPlan` and groups of at least
        :data:`FUSED_MIN_GROUP` members run through
        :func:`repro.core.accel.fused_run`: one frontier walk, shared
        first-level gathers, per-pattern masks.  ``engine="fused"``
        forces fusion for every group (raising when the run does not
        qualify); any other engine runs the patterns sequentially on that
        engine.
        """
        patterns = list(patterns)
        opts = self.defaults.merged(options)
        return self._run_many(patterns, callbacks, None, opts)

    def match_batches_many(
        self,
        patterns: Sequence[Pattern],
        on_batches: Sequence[Callable],
        **options,
    ) -> list[int]:
        """Stream every pattern's matches as arrays; return per-pattern counts.

        The multi-pattern overload of :meth:`match_batches`:
        ``on_batches[i]`` receives ``patterns[i]``'s match rows (caller
        vertex ids, ``-1`` for anti-vertices).  Fusion follows the
        :meth:`match_many` dispatch rules — FSM rounds stream every
        structural pattern of a round off one shared frontier walk.
        """
        patterns = list(patterns)
        opts = self.defaults.merged(options)
        return self._run_many(patterns, None, list(on_batches), opts)

    def exists(self, pattern: Pattern, **options) -> bool:
        """Whether at least one match exists; stops at the first (§5.3).

        The paper's existence-query idiom (Fig 4f): the callback fires
        ``stopExploration()`` on the first match.  The frontier-batched
        engine polls the control between frontier blocks and per emitted
        match, so this qualifies for vectorized dispatch.  A ``control``
        override is honored as an external cancel: the probe stops when
        either the first match lands or the caller's control fires (a
        cancelled probe reports ``False``).  The probe's own stop never
        propagates to the caller's token — a successful ``exists`` won't
        cancel other runs sharing that control.
        """
        options = dict(options)
        external = options.get("control", self.defaults.control)
        control = (
            _LinkedControl(external) if external is not None
            else ExplorationControl()
        )
        options["control"] = control
        found: list[Match] = []

        def on_first(m: Match) -> None:
            found.append(m)
            control.stop()

        opts = self.defaults.merged(options)
        self._run_match(pattern, on_first, opts)
        return bool(found)

    def match_batches(self, pattern: Pattern, on_batch, **options) -> int:
        """Stream every canonical match as 2D numpy arrays; return the count.

        ``on_batch`` receives ``(rows, num_pattern_vertices)`` int64
        arrays — column ``u`` is the data vertex matched to pattern
        vertex ``u`` (caller ids; ``-1`` for anti-vertices).  Batch
        boundaries and inter-batch order are unspecified; the row
        multiset equals :meth:`match`'s match multiset.
        """
        opts = self.defaults.merged(options)
        return self._run_batches(pattern, on_batch, opts)

    def _batch_emitter(self, on_batch) -> Callable:
        """Wrap ``on_batch`` to receive rows in the caller's vertex ids."""
        np = _accel.np
        if self._translation is None:
            self._translation = np.asarray(self.translation, dtype=np.int64)
        translation = self._translation

        def emit(mappings) -> None:
            translated = translation[np.maximum(mappings, 0)]
            translated[mappings < 0] = -1
            on_batch(translated)

        return emit

    def _run_batches(
        self, pattern: Pattern, on_batch, opts: ExecOptions, meter=None
    ) -> int:
        """Single-pattern batch streaming (shared by the *_many paths)."""
        self._check_guardrail_opts(opts)
        if opts.approx is not None:
            raise MatchingError(
                "approx=... is count-only; match_batches streams exact "
                "match rows"
            )
        opts = self._apply_guard(pattern, opts)
        if meter is None and opts.budget is not None:
            meter = opts.budget.meter()
        try:
            return self._run_batches_engines(pattern, on_batch, opts, meter)
        except BudgetExceededError as err:
            if opts.on_budget == "partial":
                return err.partial
            raise

    def _run_batches_engines(
        self, pattern: Pattern, on_batch, opts: ExecOptions, meter
    ) -> int:
        plan, starts, selected = self._prepare(pattern, opts)
        emit = self._batch_emitter(on_batch)
        if selected == "accel-batch":
            batched = _accel.FrontierBatchedEngine(self.view)
            return batched.run(
                plan,
                start_vertices=starts,
                on_batch=emit,
                chunk=opts.frontier_chunk,
                control=opts.control,
                budget=meter,
            )

        np = _accel.np
        buffer: list[tuple[int, ...]] = []

        def flush() -> None:
            if buffer:
                emit(np.asarray(buffer, dtype=np.int64))
                buffer.clear()

        def collect(m: Match) -> None:
            buffer.append(m.mapping)
            if len(buffer) >= opts.flush_size:
                flush()

        total = run_tasks(
            self.ordered,
            plan,
            start_vertices=starts,
            on_match=collect,
            control=opts.control,
            stats=opts.stats,
            timer=opts.timer,
            budget=meter,
        )
        flush()
        return total

    def aggregate(
        self,
        patterns: Pattern | Iterable[Pattern],
        map_fn: Callable[[Match], tuple[Any, Any] | None],
        reduce: Callable[[Any, Any], Any] | None = None,
        on_update: Callable[[Aggregator], None] | None = None,
        interval: float = 0.005,
        num_threads: int = 1,
        **options,
    ) -> dict[Any, Any]:
        """Map/reduce over the matches of one or more patterns (§5.4).

        The paper's aggregator idiom as a verb: ``map_fn(match)`` returns
        a ``(key, value)`` pair (or ``None`` to skip the match); values
        sharing a key are folded with ``reduce`` (default: addition).
        Matching writes into a worker-local
        :class:`~repro.core.callbacks.Aggregator` that an asynchronous
        :class:`~repro.runtime.aggregation.AggregatorThread` drains into
        the global map while exploration is still running, so an
        ``on_update`` hook sees live aggregates — pair it with a
        ``control`` override to stop early once a threshold is met (the
        Fig 4b pattern).  Returns the final ``{key: value}`` map.

        With ``num_threads > 1`` each pattern runs through
        :func:`repro.runtime.parallel.parallel_match`: worker threads
        keep thread-local aggregators that the aggregator thread drains
        concurrently — the paper's end-to-end concurrent map/reduce.
        ``reduce`` must then be order-insensitive (associative and
        commutative), since workers fold values in a nondeterministic
        interleaving; the default addition and reducers like ``max``
        qualify.  Multiple patterns without a ``control`` (and a single
        thread) route through :meth:`match_many`, so compatible patterns
        fuse onto one frontier walk.
        """
        # Deferred import: repro.runtime imports repro.core at module
        # load; by the time a session aggregates, both are initialized.
        from ..runtime.aggregation import AggregatorThread

        if isinstance(patterns, Pattern):
            patterns = [patterns]
        patterns = list(patterns)
        opts = self.defaults.merged(options)

        if num_threads > 1:
            from ..runtime.parallel import parallel_match

            # The thread pool has no hooks for these knobs; dropping them
            # silently would return different results than the
            # single-threaded path, so reject loudly instead.
            unsupported = [
                name
                for name in ("stats", "timer", "plan", "start_vertices",
                             "frontier_chunk")
                if getattr(opts, name) is not None
            ]
            if unsupported:
                raise MatchingError(
                    f"aggregate(num_threads={num_threads}) does not support "
                    f"the {sorted(unsupported)} option(s); drop them or use "
                    "num_threads=1"
                )
            if opts.engine not in ("auto", "accel-batch", "reference"):
                raise MatchingError(
                    f"engine={opts.engine!r} is not available under threads; "
                    "use 'auto', 'accel-batch' or 'reference'"
                )

            def thread_cb(m: Match, local_agg: Aggregator) -> None:
                kv = map_fn(m)
                if kv is not None:
                    local_agg.map_pattern(kv[0], kv[1])

            # One shared destination across every pattern's run, so
            # on_update observes cumulative totals (the Fig 4b
            # threshold-stop idiom keeps working across patterns).
            total = Aggregator(combine=reduce)
            for pattern in patterns:
                parallel_match(
                    self,
                    pattern,
                    num_threads=num_threads,
                    callback=thread_cb,
                    edge_induced=opts.edge_induced,
                    symmetry_breaking=opts.symmetry_breaking,
                    control=opts.control,
                    aggregate_interval=interval,
                    on_update=on_update,
                    engine=opts.engine,
                    plan=opts.planner,
                    combine=reduce,
                    global_aggregator=total,
                )
                if opts.control is not None and opts.control.stopped:
                    break
            return total.result()

        total = Aggregator(combine=reduce)
        local = Aggregator(combine=reduce)

        def on_match(m: Match) -> None:
            kv = map_fn(m)
            if kv is None:
                return
            key, value = kv
            local.map_pattern(key, value)

        with AggregatorThread(
            total, [local], interval=interval, on_update=on_update
        ):
            if opts.control is None and len(patterns) > 1:
                # No early-termination token: the multi-pattern runner can
                # interleave members freely, so compatible patterns fuse.
                self._run_many(patterns, [on_match] * len(patterns), None, opts)
            else:
                for pattern in patterns:
                    self._run_match(pattern, on_match, opts)
                    if opts.control is not None and opts.control.stopped:
                        break
        return total.result()

    # ------------------------------------------------------------------
    # Execution core (shared by every verb)
    # ------------------------------------------------------------------

    def _check_guardrail_opts(self, opts: ExecOptions) -> None:
        """Validate the guardrail knob values before any work happens."""
        if opts.on_budget not in _ON_BUDGET_CHOICES:
            raise ValueError(
                f"on_budget must be one of {_ON_BUDGET_CHOICES}, "
                f"got {opts.on_budget!r}"
            )
        if opts.guard not in _GUARD_CHOICES:
            raise ValueError(
                f"guard must be one of {_GUARD_CHOICES}, got {opts.guard!r}"
            )
        if opts.planner not in _PLANNER_CHOICES:
            raise ValueError(
                f"planner must be one of {_PLANNER_CHOICES}, "
                f"got {opts.planner!r}"
            )
        if opts.approx is not None and not 0.0 < opts.approx < 1.0:
            raise ValueError(
                f"approx must be a relative error in (0, 1), "
                f"got {opts.approx!r}"
            )
        if not 0.0 < opts.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {opts.confidence!r}"
            )
        if opts.max_samples is not None and opts.max_samples <= 0:
            raise ValueError(
                f"max_samples must be positive, got {opts.max_samples!r}"
            )
        if opts.latency_budget is not None and opts.latency_budget <= 0:
            raise ValueError(
                f"latency_budget must be positive seconds, "
                f"got {opts.latency_budget!r}"
            )

    def _apply_guard(
        self, pattern: Pattern, opts: ExecOptions, count_only: bool = False
    ) -> ExecOptions:
        """One probe → admit → plan, for one pattern.

        Probes the level-0 frontier via
        :func:`repro.runtime.guards.estimate_cost` (cached per plan key)
        and either raises :class:`~repro.errors.QueryRefusedError`
        (``guard="refuse"``) or returns options with a tightened
        ``frontier_chunk`` (``guard="downgrade"``) when the estimate
        predicts explosive expansion; benign queries pass unchanged.
        Under ``planner="auto"`` the *same* cached estimate then drives
        :func:`repro.runtime.planner.plan_query`, so a guarded planned
        query probes exactly once; the chosen plan is recorded on
        :attr:`last_query_plan` for introspection.

        ``count_only`` marks runs that could legally return an
        approximate estimate (no callback, no hooks): only those may be
        escalated to the sampling tier — by ``guard="downgrade"`` when
        the prediction is *far* past the explosive threshold, or by the
        planner when the prediction exceeds ``opts.latency_budget``.
        """
        wants_plan = opts.planner == "auto"
        if opts.guard == "off" and not wants_plan:
            return opts
        # Deferred import: repro.runtime imports repro.core at module
        # load; by the time a session applies a guard, both exist.
        from ..runtime import guards

        estimate = self._guard_estimate(pattern, opts)
        opts = guards.admit(estimate, opts)
        if (
            count_only
            and opts.approx is None
            and opts.guard == "downgrade"
            and estimate.predicted_partials
            > estimate.threshold * guards.DOWNGRADE_APPROX_FACTOR
        ):
            # The "approximate" escalation step: chunk tightening paces
            # an explosive query, but far enough past the threshold the
            # exact run is hopeless at any pacing — answer with a
            # bounded-error estimate instead of grinding.
            opts = dataclasses.replace(
                opts, approx=guards.DOWNGRADE_APPROX_REL_ERR
            )
        if wants_plan:
            from ..runtime import planner as _planner

            query_plan = _planner.plan_query(
                self, pattern, opts, estimate=estimate
            )
            opts = _planner.apply_plan(
                query_plan, opts, allow_approx=count_only
            )
            self.last_query_plan = query_plan
        return opts

    def _guard_estimate(self, pattern: Pattern, opts: ExecOptions):
        """The (cached) probe-walk cost estimate for one pattern.

        Only the probe *measurements* are cached; the explosive
        threshold is a deployment knob documented as resolved at call
        time, so every hit re-resolves it against the current
        :data:`repro.runtime.guards.EXPLOSIVE_PARTIALS` — retuning the
        module threshold flips admission on warm sessions too.
        """
        from ..runtime import guards

        key = (pattern.signature(), opts.edge_induced, opts.symmetry_breaking)
        estimate = self._guard_cache.get(key)
        if estimate is None:
            estimate = guards.estimate_cost(
                self,
                pattern,
                edge_induced=opts.edge_induced,
                symmetry_breaking=opts.symmetry_breaking,
            )
            self._guard_cache[key] = estimate
            if len(self._guard_cache) > PLAN_CACHE_LIMIT:
                self._guard_cache.pop(next(iter(self._guard_cache)))
        return guards.resolve_threshold(estimate)

    def _run_match(
        self,
        pattern: Pattern,
        callback: Callable[[Match], None] | None,
        opts: ExecOptions,
        meter=None,
    ) -> int:
        self._check_guardrail_opts(opts)
        # A run is eligible for the approximate tier only when nothing
        # observes individual matches or partial progress: counting with
        # no callback, no budget/control, no stats/timer hooks and no
        # explicit frontier.
        approx_eligible = (
            callback is None
            and meter is None
            and opts.budget is None
            and opts.control is None
            and opts.stats is None
            and opts.timer is None
            and opts.start_vertices is None
        )
        opts = self._apply_guard(pattern, opts, count_only=approx_eligible)
        if opts.approx is not None:
            if not approx_eligible:
                raise MatchingError(
                    "approx=... is count-only: it does not support "
                    "callbacks, budgets, controls, stats/timer hooks or "
                    "explicit start_vertices"
                )
            from ..mining.sampling import approx_count_session

            return approx_count_session(self, pattern, opts)
        if meter is None and opts.budget is not None:
            meter = opts.budget.meter()
        try:
            return self._run_match_engines(pattern, callback, opts, meter)
        except BudgetExceededError as err:
            if opts.on_budget == "partial":
                return err.partial
            raise

    def _run_match_engines(
        self,
        pattern: Pattern,
        callback: Callable[[Match], None] | None,
        opts: ExecOptions,
        meter,
    ) -> int:
        plan, starts, selected = self._prepare(pattern, opts)
        wrapped = self._translated(callback) if callback is not None else None
        if selected == "accel-batch":
            batched = _accel.FrontierBatchedEngine(self.view)
            return batched.run(
                plan,
                start_vertices=starts,
                on_match=wrapped,
                count_only=callback is None,
                chunk=opts.frontier_chunk,
                control=opts.control,
                budget=meter,
            )
        return run_tasks(
            self.ordered,
            plan,
            start_vertices=starts,
            on_match=wrapped,
            control=opts.control,
            stats=opts.stats,
            timer=opts.timer,
            count_only=callback is None,
            budget=meter,
        )

    def _split_census_tier(
        self,
        group: Sequence[int],
        patterns: Sequence[Pattern],
        callbacks: Sequence,
        on_batches: Sequence,
        key: frozenset | None,
        opts: ExecOptions,
    ) -> tuple[list[int], list[int]]:
        """Partition one fused group into (direct, census-tier) members.

        The census tier serves count-only vertex-induced members without
        explicit anti-constraints (see
        :func:`repro.core.multipattern.census_eligible`) by counting the
        shared non-induced basis instead; it needs at least two such
        members before the basis rewrite can amortize.  Everything else
        — callback/batch consumers, labeled or anti-constrained patterns,
        edge-induced runs — stays on the direct fused path.
        """
        if opts.edge_induced or not opts.symmetry_breaking or key is not None:
            return list(group), []
        if opts.control is not None or opts.budget is not None:
            # The census tier demultiplexes by Möbius inversion over
            # *complete* basis counts; early-terminated partials would
            # invert into garbage, so controlled/budgeted runs stay on
            # the direct fused path (still one shared frontier walk).
            return list(group), []
        direct: list[int] = []
        census: list[int] = []
        for idx in group:
            if (
                callbacks[idx] is None
                and on_batches[idx] is None
                and census_eligible(patterns[idx])
            ):
                census.append(idx)
            else:
                direct.append(idx)
        if len(census) < 2:
            return list(group), []
        return direct, census

    def _census_transform_for(
        self, census_patterns: Sequence[Pattern]
    ) -> tuple[CensusTransform, list[tuple]]:
        """The (cached) census transform plus per-call target codes.

        The transform depends only on the *set* of canonical codes, so it
        is cached under that key; the returned code list is aligned with
        ``census_patterns`` for positional demultiplexing.
        """
        from ..pattern.canonical import canonical_permutation

        codes = [canonical_permutation(p)[0] for p in census_patterns]
        cache_key = tuple(sorted(set(codes)))
        transform = self._census.get(cache_key)
        if transform is None:
            transform = census_transform(census_patterns)
            self._census[cache_key] = transform
        return transform, codes

    def _group_starts(self, key: frozenset | None):
        """The fused level-0 frontier for one :class:`MultiPatternPlan` group.

        ``None`` (unrestricted) lets the runner seed from every vertex,
        hub-first; a label set restricts to its vertices in the same
        hub-first order — exactly what each member's own
        :func:`_label_filtered_starts` would produce, since members of a
        group share the pinned-label signature.
        """
        return group_start_vertices(self.ordered, key)

    def _run_many(
        self,
        patterns: Sequence[Pattern],
        callbacks: Sequence[Callable[[Match], None] | None] | None,
        on_batches: Sequence[Callable] | None,
        opts: ExecOptions,
    ) -> list[int]:
        """Run a multi-pattern workload; per-pattern totals in input order.

        Fusable members (see :meth:`match_many`) run through
        :func:`repro.core.accel.fused_run`, everything else through the
        ordinary single-pattern dispatch — the two partitions cover every
        index exactly once, so results always demultiplex completely.
        """
        n = len(patterns)
        callbacks = list(callbacks) if callbacks is not None else [None] * n
        on_batches = list(on_batches) if on_batches is not None else [None] * n
        if len(callbacks) != n or len(on_batches) != n:
            raise ValueError(
                "callbacks/on_batches must align one-to-one with patterns"
            )
        engine = opts.engine
        if engine not in _MULTI_ENGINE_CHOICES:
            raise ValueError(
                f"engine must be one of {_MULTI_ENGINE_CHOICES}, got {engine!r}"
            )
        self._check_guardrail_opts(opts)
        if opts.approx is not None or opts.latency_budget is not None:
            raise MatchingError(
                "approx/latency_budget are count-only knobs; use "
                "count(...) or count_many(...) for approximate estimates"
            )
        if opts.guard != "off":
            # One probe per distinct pattern, shared with any later
            # planning; "downgrade" tightens the shared frontier_chunk
            # to the smallest any member needs.  Per-member planning
            # happens in _run_match (non-fused members).
            from ..runtime import guards as _guards

            seen_signatures: set = set()
            for p in patterns:
                signature = p.signature()
                if signature in seen_signatures:
                    continue
                seen_signatures.add(signature)
                opts = _guards.admit(self._guard_estimate(p, opts), opts)
        meter = opts.budget.meter() if opts.budget is not None else None
        # A control no longer pins per-pattern dispatch: fused_run polls
        # it between frontier slices and threads it into every member
        # engine, so deadline/stop tokens ride the fused walk too.
        hooks_free = (
            opts.stats is None
            and opts.timer is None
            and opts.plan is None
            and opts.start_vertices is None
        )
        if engine == "fused" and not hooks_free:
            raise MatchingError(
                "engine='fused' does not support stats/timer/plan/"
                "start_vertices overrides; use engine='auto' to fall back "
                "to per-pattern dispatch"
            )

        multi = None
        plans: list[ExplorationPlan] = []
        if hooks_free and engine in ("auto", "fused") and patterns:
            plans = [
                self._cached_plan(p, opts.edge_induced, opts.symmetry_breaking)[0]
                for p in patterns
            ]
            labels = self.ordered.labels()
            if any(pl.matched_pattern.is_labeled for pl in plans) and (
                labels is None
            ):
                raise MatchingError(
                    "pattern has label constraints but the data graph "
                    "is unlabeled"
                )
            multi = MultiPatternPlan.build(
                plans,
                label_index=opts.label_index and labels is not None,
                min_group=1 if engine == "fused" else FUSED_MIN_GROUP,
            )

        totals = [0] * n
        if multi is not None:
            for group, key in zip(multi.groups, multi.group_keys):
                direct, census = self._split_census_tier(
                    group, patterns, callbacks, on_batches, key, opts
                )
                members = []
                for idx in direct:
                    cb = callbacks[idx]
                    ob = on_batches[idx]
                    members.append((
                        plans[idx],
                        self._translated(cb) if cb is not None else None,
                        self._batch_emitter(ob) if ob is not None else None,
                    ))
                transform = None
                if census:
                    transform, census_codes = self._census_transform_for(
                        [patterns[idx] for idx in census]
                    )
                    members.extend(
                        (self._cached_plan(basis_pattern, True, True)[0], None, None)
                        for basis_pattern in transform.basis
                    )
                try:
                    counts = _accel.fused_run(
                        self.view,
                        members,
                        start_vertices=self._group_starts(key),
                        chunk=opts.frontier_chunk,
                        control=opts.control,
                        budget=meter,
                    )
                except BudgetExceededError as err:
                    if opts.on_budget != "partial":
                        raise
                    partial_totals = err.partial.detail.get("totals")
                    counts = (
                        list(partial_totals)
                        if partial_totals is not None
                        else [0] * len(members)
                    )
                for pos, idx in enumerate(direct):
                    totals[idx] = counts[pos]
                if transform is not None:
                    noninduced = {
                        code: counts[len(direct) + pos]
                        for pos, (code, _) in enumerate(transform.order)
                    }
                    induced = transform.induced_counts(noninduced)
                    for pos, idx in enumerate(census):
                        totals[idx] = induced[census_codes[pos]]
            remaining: Sequence[int] = multi.singles
        else:
            remaining = range(n)

        # Per-pattern engines ("accel-batch", "reference") and non-fusable
        # members keep the exact single-pattern semantics, hooks included.
        for idx in remaining:
            if on_batches[idx] is not None:
                totals[idx] = self._run_batches(
                    patterns[idx], on_batches[idx], opts, meter=meter
                )
            else:
                totals[idx] = self._run_match(
                    patterns[idx], callbacks[idx], opts, meter=meter
                )
        return totals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        info = self.cache_info()
        return (
            f"MiningSession({self.graph!r}, plans={info['plans']}, "
            f"hits={info['plan_hits']})"
        )


def as_session(
    graph_or_session: Union[GraphSource, MiningSession],
) -> MiningSession:
    """Coerce a graph, graph source or session to a session.

    Sessions pass through untouched; a bare :class:`DataGraph` — or a
    path / :class:`~repro.graph.binary_io.GraphStore`, which loads first
    — resolves to its shared default session
    (:meth:`MiningSession.for_graph`), so library code written against
    sessions keeps amortizing state even when callers hand it plain
    graphs.
    """
    if isinstance(graph_or_session, MiningSession):
        return graph_or_session
    try:
        return MiningSession.for_graph(graph_or_session)
    except TypeError:
        raise TypeError(
            "expected DataGraph, GraphStore, graph path or MiningSession, "
            f"got {type(graph_or_session).__name__}"
        ) from None
