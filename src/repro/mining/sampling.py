"""Approximate counting on the real execution core (ROADMAP item 4).

ASAP [Iyer et al., OSDI '18] showed that pattern *counts* — the quantity
motif censuses, FSM support checks and service dashboards actually
consume — tolerate sampling: an unbiased estimator with an error bound
answers in a fraction of the exact run's time.  The legacy
:mod:`repro.mining.approximate` module reproduced ASAP's per-embedding
path sampler on the baseline AutoMine schedules; it ignored
``ExecOptions``, the label index and every engine this repo built.  This
module is its redesign: the estimators run *on the session's own
execution core*, so everything the exact tier amortizes (degree
ordering, CSR view, plan cache, label-filtered frontiers, fused
multi-pattern walks) accelerates the approximate tier too.

Two estimators:

**Neighborhood sampling** (``method="ns"``, the default and what
``MiningSession.count(pattern, approx=rel_err)`` runs).  Every match is
counted by the engines at exactly one level-0 start vertex, so the
per-start counts over the (label-filtered, hub-first) frontier sum to
the exact count.  The estimator stratifies that frontier:

* the *hub prefix* (the first :data:`HUB_EXHAUST` starts — the frontier
  is hub-first, so these are the heavy, high-variance starts where
  power-law count mass concentrates) is counted **exactly**, once;
* the *tail* is sampled in rounds of :data:`ROUND_STARTS` starts drawn
  uniformly **with replacement**; each round's batch total, scaled by
  ``tail_size / round_size`` (the Horvitz–Thompson inverse inclusion
  weight), plus the exact hub total, is one i.i.d. unbiased estimate of
  the full count.

Rounds are the i.i.d. unit because the engines count whole start batches
without per-start attribution — one engine dispatch per round keeps the
vectorized tier's batching advantage.  Adaptive growth runs rounds until
the two-sided confidence interval (Student-t, ``ddof=1`` over round
estimates) is within the requested relative error, the sample budget is
exhausted, or the draws would cover the frontier — in which case the
estimator *finishes the tail exactly* and returns the exact count with a
zero-width interval (sampling never costs asymptotically more than
exact).

**Color coding** (:func:`color_coding_count`): Pagh–Tsourakakis colorful
sparsification.  Each round colors vertices uniformly from ``c`` colors,
keeps only monochromatic edges (~``m/c`` survive), counts the pattern
exactly on that subgraph and scales by ``c^(k-1)`` — a connected
``k``-vertex match survives iff its ``k-1`` non-root vertices match the
root's color.  Rounds over independent colorings are i.i.d. unbiased
estimates and feed the same adaptive CI machinery.  Only valid for
non-induced (``edge_induced=True``) counting: anti-edge checks on the
sparsified subgraph would misread removed edges as absent.

Multi-pattern estimation (:func:`approx_count_many`, reached via
``count_many(patterns, approx=rel_err)``) groups patterns exactly like
:class:`~repro.core.session.MultiPatternPlan` and serves each group's
hub pass and sampled rounds through one
:func:`repro.core.accel.fused_run` walk — the sampled frontier is shared
by every member, and count-only vertex-induced censuses ride the shared
non-induced basis (Möbius inversion is linear, so inverting per-round
basis estimates yields unbiased per-round induced estimates).
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

from ..errors import MatchingError
from ..core.session import (
    ExecOptions,
    MiningSession,
    MultiPatternPlan,
    as_session,
    group_start_vertices,
)
from ..core.multipattern import census_eligible
from ..pattern.pattern import Pattern

from ..core import accel as _accel

__all__ = [
    "ApproxCount",
    "approx_count",
    "approx_count_many",
    "color_coding_count",
    "DEFAULT_REL_ERR",
    "DEFAULT_CONFIDENCE",
    "MIN_ROUNDS",
    "ROUND_STARTS",
    "HUB_EXHAUST",
    "MAX_COLORINGS",
]

# Default accuracy target: 5% relative error at 95% two-sided confidence
# — ASAP's headline operating point (its 5% error runs are the ones
# compared against exact systems).
DEFAULT_REL_ERR = 0.05
DEFAULT_CONFIDENCE = 0.95

# Sampling geometry.  MIN_ROUNDS is the floor before the Student-t
# interval is trusted at all; ROUND_STARTS is the per-round draw count —
# large enough that one frontier-batched dispatch amortizes its numpy
# overhead, small enough that adaptive growth has real granularity.
MIN_ROUNDS = 4
ROUND_STARTS = 128

# Hub-prefix stratum size.  The frontier is hub-first, so the first
# entries are exactly the heavy-tailed starts whose per-start counts
# dominate both the total and the sampling variance on skewed graphs;
# counting them exactly removes that variance from the estimator for a
# bounded, known amount of work.  Never more than half the frontier (or
# half the sample budget), so there is always a tail left to sample.
HUB_EXHAUST = 1024

# Default colorings budget for the color-coding estimator.
MAX_COLORINGS = 64

# Early-stop reasons carried on ApproxCount.early_stop.
STOP_TARGET = "target-met"
STOP_BUDGET = "max-samples"
STOP_EXHAUSTED = "exhausted-frontier"
STOP_EMPTY = "empty-frontier"


@dataclass(frozen=True)
class ApproxCount:
    """Outcome of one approximate counting run.

    ``estimate`` is the unbiased count estimate; ``stderr`` the standard
    error over sampling rounds; ``(ci_low, ci_high)`` the two-sided
    Student-t interval at ``confidence``.  ``rel_err`` is the *achieved*
    relative half-width (``0.0`` for exact results,``inf`` when the
    estimate is zero but uncertainty remains), ``requested_rel_err`` the
    target the run was asked to meet (``None`` = spend the budget).
    ``samples`` counts level-0 starts actually processed (hub prefix +
    sampled draws; colorings for the color-coding method), ``rounds``
    the i.i.d. sampling rounds behind ``stderr``, and ``hit_rate`` the
    fraction of rounds that saw at least one match.  ``exact=True``
    means the run degenerated to an exact count (tiny frontier, or
    ``max_samples`` covered it) — the estimate then equals the exact
    count and the interval has zero width.  ``early_stop`` says why
    sampling stopped: ``"target-met"``, ``"max-samples"``,
    ``"exhausted-frontier"`` or ``"empty-frontier"``.

    ``int(result)`` rounds the estimate — session verbs stay usable in
    integer contexts whether or not ``approx`` was requested.
    """

    estimate: float
    stderr: float
    ci_low: float
    ci_high: float
    confidence: float
    rel_err: float
    requested_rel_err: float | None
    samples: int
    rounds: int
    frontier_size: int
    hit_rate: float
    method: str
    exact: bool
    early_stop: str

    def __int__(self) -> int:
        return int(round(self.estimate))

    def __float__(self) -> float:
        return float(self.estimate)

    @property
    def ci(self) -> tuple[float, float]:
        """The two-sided interval as a ``(low, high)`` pair."""
        return (self.ci_low, self.ci_high)

    def within(self, exact: float, slack: float = 1.0) -> bool:
        """Whether ``exact`` lies inside ``slack`` × the interval."""
        half = (self.ci_high - self.ci_low) / 2.0
        return abs(self.estimate - exact) <= max(half * slack, 1e-9)

    def as_dict(self) -> dict:
        """JSON-friendly form (service envelopes, bench artifacts)."""
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "confidence": self.confidence,
            "rel_err_achieved": self.rel_err,
            "requested_rel_err": self.requested_rel_err,
            "samples": self.samples,
            "rounds": self.rounds,
            "frontier_size": self.frontier_size,
            "hit_rate": self.hit_rate,
            "method": self.method,
            "exact": self.exact,
            "early_stop": self.early_stop,
        }


# ----------------------------------------------------------------------
# Interval machinery
# ----------------------------------------------------------------------


def _z(confidence: float) -> float:
    """Two-sided normal quantile for ``confidence``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    return statistics.NormalDist().inv_cdf(0.5 + confidence / 2.0)


def _t_quantile(confidence: float, df: int) -> float:
    """Student-t two-sided quantile via the Cornish–Fisher expansion.

    The round counts here are small (single digits), where the plain
    normal quantile undercovers noticeably; the second-order expansion
    ``z + (z^3 + z) / (4 df)`` recovers the t correction to well under a
    percent for df >= 3 without needing scipy.
    """
    z = _z(confidence)
    if df <= 0:
        return z
    return z + (z**3 + z) / (4.0 * df)


def _half_width(rounds: list[float], confidence: float) -> tuple[float, float]:
    """(stderr, CI half-width) over i.i.d. round estimates."""
    r = len(rounds)
    if r < 2:
        return float("inf"), float("inf")
    stderr = statistics.stdev(rounds) / math.sqrt(r)
    return stderr, _t_quantile(confidence, r - 1) * stderr


def _target_met(rounds: list[float], rel_err: float, confidence: float) -> bool:
    mean = statistics.fmean(rounds)
    if mean <= 0.0:
        return False
    stderr, half = _half_width(rounds, confidence)
    if stderr <= 0.0:
        # Zero observed round variance is false certainty, not accuracy —
        # e.g. hub-dominated counts where every tail draw so far returned
        # nothing.  Keep sampling until variance appears or the budget
        # runs out (degenerating to an exact tail pass when allowed).
        return False
    return half <= rel_err * mean


# ----------------------------------------------------------------------
# Option plumbing shared with the session verbs
# ----------------------------------------------------------------------

_UNSUPPORTED = ("control", "stats", "timer", "budget", "start_vertices")


def _reject_unsupported(opts: ExecOptions) -> None:
    bad = [n for n in _UNSUPPORTED if getattr(opts, n) is not None]
    if bad:
        raise MatchingError(
            f"approximate counting does not support the {sorted(bad)} "
            "option(s); sampling owns the frontier and runs to its own "
            "stopping rule"
        )


def _validate(rel_err, confidence, max_samples) -> None:
    if rel_err is not None and not 0.0 < rel_err < 1.0:
        raise ValueError(
            f"rel_err must be a relative error in (0, 1), got {rel_err!r}"
        )
    _z(confidence)
    if max_samples is not None and max_samples <= 0:
        raise ValueError(f"max_samples must be positive, got {max_samples!r}")


def _inner_opts(opts: ExecOptions) -> ExecOptions:
    """The options the per-round exact sub-runs execute under.

    Strips everything the sampling loop owns (approx knobs, the
    frontier) and everything that must not re-trigger (guard probes,
    auto planning) — the inner runs are plain exact counts over explicit
    ``start_vertices``.
    """
    return dataclasses.replace(
        opts,
        approx=None,
        max_samples=None,
        latency_budget=None,
        seed=None,
        guard="off",
        planner="fixed",
        start_vertices=None,
    )


def _frontier_for(session: MiningSession, pattern: Pattern, opts: ExecOptions):
    """The level-0 frontier the exact run would walk, indexable.

    Mirrors :meth:`MiningSession._prepare`: the label-filtered start
    list when the label index applies, otherwise every vertex hub-first.
    """
    if opts.plan is not None:
        plan, key = opts.plan, None
    else:
        plan, key = session._cached_plan(
            pattern, opts.edge_induced, opts.symmetry_breaking
        )
    starts = session._starts_for(plan, key) if opts.label_index else None
    if starts is None:
        n = session.ordered.num_vertices
        return range(n - 1, -1, -1)
    return starts


# ----------------------------------------------------------------------
# The stratified round estimator (shared by single- and multi-pattern)
# ----------------------------------------------------------------------


def _exact_results(
    totals: Sequence[int],
    samples: int,
    rounds: int,
    frontier_size: int,
    confidence: float,
    rel_err,
    method: str,
    early_stop: str,
) -> list[ApproxCount]:
    return [
        ApproxCount(
            estimate=float(total),
            stderr=0.0,
            ci_low=float(total),
            ci_high=float(total),
            confidence=confidence,
            rel_err=0.0,
            requested_rel_err=rel_err,
            samples=samples,
            rounds=rounds,
            frontier_size=frontier_size,
            hit_rate=1.0 if total else 0.0,
            method=method,
            exact=True,
            early_stop=early_stop,
        )
        for total in totals
    ]


def _member_result(
    rounds_j: list[float],
    hits_j: int,
    samples: int,
    frontier_size: int,
    confidence: float,
    rel_err,
    method: str,
    early_stop: str,
) -> ApproxCount:
    r = len(rounds_j)
    estimate = statistics.fmean(rounds_j) if r else 0.0
    stderr, half = _half_width(rounds_j, confidence)
    if half == 0.0 or (estimate <= 0.0 and half == 0.0):
        achieved = 0.0
    elif estimate <= 0.0:
        achieved = float("inf")
    else:
        achieved = half / estimate
    return ApproxCount(
        estimate=estimate,
        stderr=stderr,
        ci_low=estimate - half,
        ci_high=estimate + half,
        confidence=confidence,
        rel_err=achieved,
        requested_rel_err=rel_err,
        samples=samples,
        rounds=r,
        frontier_size=frontier_size,
        hit_rate=(hits_j / r) if r else 0.0,
        method=method,
        exact=False,
        early_stop=early_stop,
    )


def _estimate_group(
    run_members: Callable[[list[int]], list[int]],
    num_members: int,
    frontier,
    *,
    rel_err: float | None,
    confidence: float,
    max_samples: int | None,
    rng: random.Random,
    hub_exhaust: int = HUB_EXHAUST,
    round_starts: int = ROUND_STARTS,
    method: str = "ns",
) -> list[ApproxCount]:
    """Run the stratified round loop for one shared-frontier group.

    ``run_members(starts)`` performs one exact engine pass over the
    given level-0 starts and returns per-member totals.  Duplicates in
    ``starts`` are counted multiply — exactly what with-replacement
    Horvitz–Thompson reweighting requires.
    """
    N = len(frontier)
    if N == 0:
        return _exact_results(
            [0] * num_members, 0, 0, 0, confidence, rel_err, method,
            STOP_EMPTY,
        )
    budget = N if max_samples is None else max_samples
    allow_exact = budget >= N
    h = min(hub_exhaust, N // 2, budget // 2)
    tail = N - h
    m = max(1, min(round_starts, tail))
    if not allow_exact:
        m = max(1, min(m, (budget - h) // MIN_ROUNDS))
    if (max_samples is not None and max_samples >= N) or (
        allow_exact and h + MIN_ROUNDS * m >= N
    ):
        # An explicit budget covering the whole frontier, or too little
        # tail to sample meaningfully — exact is cheaper than estimating.
        totals = run_members(list(frontier))
        return _exact_results(
            totals, N, 0, N, confidence, rel_err, method, STOP_EXHAUSTED
        )
    hub_totals = (
        run_members(list(frontier[:h])) if h > 0 else [0] * num_members
    )
    samples = h
    scale = tail / m
    per_round: list[list[float]] = [[] for _ in range(num_members)]
    hits = [0] * num_members
    early_stop = STOP_BUDGET
    while True:
        if samples + m > budget:
            if allow_exact:
                # The draws would cover the frontier: finish the tail
                # exactly instead — same answer as the exact verb.
                tail_totals = run_members(list(frontier[h:]))
                totals = [
                    hub_totals[j] + tail_totals[j]
                    for j in range(num_members)
                ]
                return _exact_results(
                    totals,
                    samples + tail,
                    len(per_round[0]),
                    N,
                    confidence,
                    rel_err,
                    method,
                    STOP_EXHAUSTED,
                )
            break
        starts = [frontier[h + rng.randrange(tail)] for _ in range(m)]
        totals = run_members(starts)
        samples += m
        for j in range(num_members):
            per_round[j].append(hub_totals[j] + totals[j] * scale)
            if totals[j]:
                hits[j] += 1
        if rel_err is not None and len(per_round[0]) >= MIN_ROUNDS:
            if all(
                _target_met(per_round[j], rel_err, confidence)
                for j in range(num_members)
            ):
                early_stop = STOP_TARGET
                break
    return [
        _member_result(
            per_round[j], hits[j], samples, N, confidence, rel_err,
            method, early_stop,
        )
        for j in range(num_members)
    ]


# ----------------------------------------------------------------------
# Runners: one engine pass over explicit starts
# ----------------------------------------------------------------------


def _single_runner(
    session: MiningSession, pattern: Pattern, opts: ExecOptions
) -> Callable[[list[int]], list[int]]:
    inner = _inner_opts(opts)

    def run(starts: list[int]) -> list[int]:
        o = dataclasses.replace(inner, start_vertices=starts)
        return [int(session._run_match(pattern, None, o))]

    return run


def _group_runner(
    session: MiningSession,
    group: Sequence[int],
    patterns: Sequence[Pattern],
    plans,
    key,
    opts: ExecOptions,
) -> Callable[[list[int]], list[int]]:
    """One engine pass for a shared-frontier group of patterns.

    By default the whole group rides one :func:`fused_run` per call —
    the sampled frontier walk is shared exactly like an exact fused run
    — and count-only vertex-induced members demultiplex off the shared
    non-induced basis (the census tier; Möbius inversion is linear, so
    per-call restricted counts invert soundly *in expectation* once the
    caller applies its Horvitz–Thompson scaling).  A pinned per-pattern
    engine or an explicit plan instead runs each member on its own over
    the same starts.
    """
    inner = _inner_opts(opts)
    use_fused = opts.plan is None and opts.engine in ("auto", "fused")
    if not use_fused:

        def run_sequential(starts: list[int]) -> list[int]:
            o = dataclasses.replace(inner, start_vertices=starts)
            return [
                int(session._run_match(patterns[idx], None, o))
                for idx in group
            ]

        return run_sequential

    census_ok = (
        not opts.edge_induced and opts.symmetry_breaking and key is None
    )
    direct_pos: list[int] = []
    census_pos: list[int] = []
    for gpos, idx in enumerate(group):
        if census_ok and census_eligible(patterns[idx]):
            census_pos.append(gpos)
        else:
            direct_pos.append(gpos)
    if len(census_pos) < 2:
        direct_pos = list(range(len(group)))
        census_pos = []
    members = [(plans[group[gpos]], None, None) for gpos in direct_pos]
    transform = None
    census_codes: list = []
    if census_pos:
        transform, census_codes = session._census_transform_for(
            [patterns[group[gpos]] for gpos in census_pos]
        )
        members.extend(
            (session._cached_plan(basis_pattern, True, True)[0], None, None)
            for basis_pattern in transform.basis
        )
    view = session.view

    def run_fused(starts: list[int]) -> list[int]:
        counts = _accel.fused_run(
            view, members, start_vertices=starts, chunk=inner.frontier_chunk
        )
        out = [0] * len(group)
        for pos, gpos in enumerate(direct_pos):
            out[gpos] = int(counts[pos])
        if transform is not None:
            noninduced = {
                code: int(counts[len(direct_pos) + pos])
                for pos, (code, _) in enumerate(transform.order)
            }
            induced = transform.induced_counts(noninduced)
            for pos, gpos in enumerate(census_pos):
                out[gpos] = int(induced[census_codes[pos]])
        return out

    return run_fused


# ----------------------------------------------------------------------
# Session entry points (what count(approx=...) routes to)
# ----------------------------------------------------------------------


def approx_count_session(
    session: MiningSession, pattern: Pattern, opts: ExecOptions
) -> ApproxCount:
    """Estimate one pattern's count under resolved ``opts``.

    The internal target of ``MiningSession.count(pattern, approx=...)``;
    ``opts.approx``/``confidence``/``max_samples``/``seed`` drive the
    loop.  ``opts.approx`` may be ``None`` (spend the whole
    ``max_samples`` budget — the legacy-shim mode).
    """
    _reject_unsupported(opts)
    _validate(opts.approx, opts.confidence, opts.max_samples)
    frontier = _frontier_for(session, pattern, opts)
    [result] = _estimate_group(
        _single_runner(session, pattern, opts),
        1,
        frontier,
        rel_err=opts.approx,
        confidence=opts.confidence,
        max_samples=opts.max_samples,
        rng=random.Random(opts.seed),
    )
    return result


def approx_count_many_session(
    session: MiningSession, patterns: Sequence[Pattern], opts: ExecOptions
) -> dict[Pattern, ApproxCount]:
    """Estimate every pattern, sharing sampled fused walks per group.

    The internal target of ``count_many(patterns, approx=...)``.
    Patterns group by pinned-start-label signature exactly like the
    exact fused path; every group samples *one* shared frontier and all
    of the group's members stop together (the loop runs until every
    member meets the target, so shared rounds are never wasted).  The
    ``max_samples`` budget applies per group.
    """
    _reject_unsupported(opts)
    _validate(opts.approx, opts.confidence, opts.max_samples)
    if opts.plan is not None:
        raise MatchingError(
            "plan= is a single-pattern override; count_many(approx=...) "
            "plans each pattern from the session cache"
        )
    patterns = list(patterns)
    plans = [
        session._cached_plan(p, opts.edge_induced, opts.symmetry_breaking)[0]
        for p in patterns
    ]
    labels = session.ordered.labels()
    if labels is None and any(
        plan.matched_pattern.is_labeled for plan in plans
    ):
        raise MatchingError(
            "pattern has label constraints but the data graph is unlabeled"
        )
    multi = MultiPatternPlan.build(
        plans, label_index=opts.label_index and labels is not None,
        min_group=1,
    )
    n = session.ordered.num_vertices
    rng = random.Random(opts.seed)
    results: list[ApproxCount | None] = [None] * len(patterns)
    for group, key in zip(multi.groups, multi.group_keys):
        starts = group_start_vertices(session.ordered, key)
        frontier = starts if starts is not None else range(n - 1, -1, -1)
        group_results = _estimate_group(
            _group_runner(session, group, patterns, plans, key, opts),
            len(group),
            frontier,
            rel_err=opts.approx,
            confidence=opts.confidence,
            max_samples=opts.max_samples,
            rng=rng,
        )
        for gpos, idx in enumerate(group):
            results[idx] = group_results[gpos]
    return dict(zip(patterns, results))


# ----------------------------------------------------------------------
# Functional surface (what the CLI/bench and the legacy shims call)
# ----------------------------------------------------------------------


def approx_count(
    graph_or_session,
    pattern: Pattern,
    rel_err: float | None = DEFAULT_REL_ERR,
    confidence: float = DEFAULT_CONFIDENCE,
    max_samples: int | None = None,
    seed: int | None = None,
    method: str = "ns",
    num_colors: int = 2,
    hub_exhaust: int = HUB_EXHAUST,
    round_starts: int = ROUND_STARTS,
    **options,
) -> ApproxCount:
    """Estimate ``pattern``'s count to ``rel_err`` relative error.

    The functional spelling of ``session.count(pattern, approx=...)``,
    plus the knobs the verb keeps at defaults: ``method`` selects the
    estimator (``"ns"`` neighborhood sampling or ``"color-coding"``),
    ``hub_exhaust``/``round_starts`` tune the sampling geometry, and
    ``rel_err=None`` disables the accuracy target (spend ``max_samples``
    and report the achieved interval).  ``**options`` are the usual
    :class:`~repro.core.session.ExecOptions` overrides.
    """
    session = as_session(graph_or_session)
    opts = session.options(**options)
    if method == "color-coding":
        return color_coding_count(
            session,
            pattern,
            rel_err=rel_err,
            confidence=confidence,
            max_colorings=(
                MAX_COLORINGS if max_samples is None else max_samples
            ),
            num_colors=num_colors,
            seed=seed,
            **options,
        )
    if method != "ns":
        raise ValueError(
            f"method must be 'ns' or 'color-coding', got {method!r}"
        )
    _reject_unsupported(opts)
    _validate(rel_err, confidence, max_samples)
    frontier = _frontier_for(session, pattern, opts)
    [result] = _estimate_group(
        _single_runner(session, pattern, opts),
        1,
        frontier,
        rel_err=rel_err,
        confidence=confidence,
        max_samples=max_samples,
        rng=random.Random(seed),
        hub_exhaust=hub_exhaust,
        round_starts=round_starts,
    )
    return result


def approx_count_many(
    graph_or_session,
    patterns: Sequence[Pattern],
    rel_err: float | None = DEFAULT_REL_ERR,
    confidence: float = DEFAULT_CONFIDENCE,
    max_samples: int | None = None,
    seed: int | None = None,
    hub_exhaust: int = HUB_EXHAUST,
    round_starts: int = ROUND_STARTS,
    **options,
) -> dict[Pattern, ApproxCount]:
    """Estimate every pattern's count, sharing fused sampled walks.

    The functional spelling of ``count_many(patterns, approx=...)`` with
    the sampling-geometry knobs exposed (see :func:`approx_count`).
    """
    session = as_session(graph_or_session)
    opts = session.options(**options)
    _reject_unsupported(opts)
    _validate(rel_err, confidence, max_samples)
    patterns = list(patterns)
    plans = [
        session._cached_plan(p, opts.edge_induced, opts.symmetry_breaking)[0]
        for p in patterns
    ]
    labels = session.ordered.labels()
    if labels is None and any(
        plan.matched_pattern.is_labeled for plan in plans
    ):
        raise MatchingError(
            "pattern has label constraints but the data graph is unlabeled"
        )
    multi = MultiPatternPlan.build(
        plans, label_index=opts.label_index and labels is not None,
        min_group=1,
    )
    n = session.ordered.num_vertices
    rng = random.Random(seed)
    results: list[ApproxCount | None] = [None] * len(patterns)
    for group, key in zip(multi.groups, multi.group_keys):
        starts = group_start_vertices(session.ordered, key)
        frontier = starts if starts is not None else range(n - 1, -1, -1)
        group_results = _estimate_group(
            _group_runner(session, group, patterns, plans, key, opts),
            len(group),
            frontier,
            rel_err=rel_err,
            confidence=confidence,
            max_samples=max_samples,
            rng=rng,
            hub_exhaust=hub_exhaust,
            round_starts=round_starts,
        )
        for gpos, idx in enumerate(group):
            results[idx] = group_results[gpos]
    return dict(zip(patterns, results))


def color_coding_count(
    graph_or_session,
    pattern: Pattern,
    rel_err: float | None = DEFAULT_REL_ERR,
    confidence: float = DEFAULT_CONFIDENCE,
    max_colorings: int = MAX_COLORINGS,
    num_colors: int = 2,
    seed: int | None = None,
    **options,
) -> ApproxCount:
    """Color-coding estimate via colorful sparsification.

    Each round draws an independent uniform ``num_colors``-coloring of
    the vertices, builds the monochromatic-edge subgraph, counts
    ``pattern`` exactly there (the subgraph gets its own session, so the
    count runs the full engine stack on ~``m / num_colors`` edges) and
    scales by ``num_colors ** (k - 1)``.  Rounds are i.i.d. unbiased
    estimates; adaptive growth stops at ``rel_err`` or after
    ``max_colorings`` rounds.  Requires a *connected* pattern (the
    survival probability argument needs one mono-chromatic component)
    and non-induced semantics (``edge_induced=True``) — removed edges
    would satisfy anti-edge checks vacuously.
    """
    from ..graph.builder import from_edges

    session = as_session(graph_or_session)
    opts = session.options(**options)
    _reject_unsupported(opts)
    _validate(rel_err, confidence, max_colorings)
    if not pattern.is_connected():
        raise MatchingError(
            "color coding requires a connected pattern; use "
            "neighborhood sampling (method='ns') instead"
        )
    if not opts.edge_induced:
        raise MatchingError(
            "color coding is only unbiased for non-induced counting "
            "(edge_induced=True): sparsification removes edges, so "
            "anti-edge checks on the subgraph misfire"
        )
    if num_colors < 2:
        raise ValueError(f"num_colors must be >= 2, got {num_colors!r}")
    graph = session.graph
    n = graph.num_vertices
    k = pattern.num_vertices
    if n == 0:
        return _exact_results(
            [0], 0, 0, 0, confidence, rel_err, "color-coding", STOP_EMPTY
        )[0]
    scale = float(num_colors) ** (k - 1)
    labels = None if graph.labels() is None else list(graph.labels())
    edges = list(graph.edges())
    rng = random.Random(seed)
    rounds: list[float] = []
    hits = 0
    early_stop = STOP_BUDGET
    while len(rounds) < max_colorings:
        colors = [rng.randrange(num_colors) for _ in range(n)]
        kept = [(u, v) for u, v in edges if colors[u] == colors[v]]
        sub = from_edges(
            kept, labels=labels, num_vertices=n,
            name=f"{graph.name}-colorful",
        )
        count = int(
            MiningSession(sub).count(
                pattern,
                edge_induced=True,
                symmetry_breaking=opts.symmetry_breaking,
                label_index=opts.label_index,
            )
        )
        rounds.append(count * scale)
        if count:
            hits += 1
        if (
            rel_err is not None
            and len(rounds) >= MIN_ROUNDS
            and _target_met(rounds, rel_err, confidence)
        ):
            early_stop = STOP_TARGET
            break
    return _member_result(
        rounds, hits, len(rounds), n, confidence, rel_err,
        "color-coding", early_stop,
    )
