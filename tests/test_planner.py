"""Tests for the cost-model-driven adaptive query planner.

Covers the :mod:`repro.runtime.planner` selection logic (schedule,
chunking, worker budget, and the engine it reports), the probe-once
contract shared by admission and planning, fuzzed result parity between
``plan="auto"`` and the fixed baseline, and regression tests for the three
estimator bugfixes that shipped with the planner:

* evenly-spaced probe sampling must use a rounded stride (an integer
  step degrades to consecutive hub-prefix entries on small frontiers);
* cached probe measurements must re-resolve the explosive threshold at
  decision time (retuning must flip admission on warm sessions);
* the conservative growth floor belongs to admission only — planners
  read the unclamped extrapolation.
"""

from __future__ import annotations

import pytest

from repro.core.session import ExecOptions, MiningSession
from repro.errors import QueryRefusedError
from repro.graph.builder import from_edges
from repro.graph.generators import (
    chain_graph,
    erdos_renyi,
    power_law,
    star_graph,
)
from repro.pattern.generators import (
    generate_chain,
    generate_clique,
    generate_cycle,
    generate_star,
)
from repro.runtime import guards, planner


def hub_tail_graph(num_hubs: int = 10, num_tail: int = 90):
    """Hubs interconnected and touching every tail; tail touches hubs only.

    Degree ordering puts the hubs in the frontier prefix, which is
    exactly the shape that exposed the probe's stride bias.
    """
    edges = []
    hubs = range(num_hubs)
    for i in hubs:
        for j in hubs:
            if i < j:
                edges.append((i, j))
        for t in range(num_hubs, num_hubs + num_tail):
            edges.append((i, t))
    return from_edges(edges, num_vertices=num_hubs + num_tail)


# ----------------------------------------------------------------------
# Bugfix regressions
# ----------------------------------------------------------------------


class TestProbeSamplingStride:
    def test_even_sample_on_hub_heavy_frontier(self):
        """The probe must stride the whole frontier, not its hub prefix.

        With 100 starts and a 60-probe budget the old integer step
        (``max(1, 100 // 60) == 1``) sampled the first 60 consecutive
        entries — all hubs plus their immediate tail — inflating
        ``avg_expansion``.  The rounded stride ``i * size // k`` visits
        60 distinct evenly-spaced entries instead.
        """
        g = hub_tail_graph()
        session = MiningSession(g)
        ordered = session.ordered
        n = ordered.num_vertices
        frontier = list(range(n - 1, -1, -1))  # hub-first probe order

        def fanout(v):
            return len(ordered.neighbors_below(v, v))

        k = 60
        even = [frontier[(i * n) // k] for i in range(k)]
        consecutive = frontier[:k]
        even_avg = sum(fanout(v) for v in even) / k
        biased_avg = sum(fanout(v) for v in consecutive) / k
        assert even_avg < biased_avg  # the fixture really is hub-heavy

        est = guards.estimate_cost(g, generate_clique(3), sample=k)
        assert est.sampled == k
        assert est.avg_expansion == pytest.approx(even_avg)
        assert est.avg_expansion != pytest.approx(biased_avg)

    def test_probe_indices_are_distinct_for_any_sample(self):
        for size in (1, 2, 7, 63, 64, 100, 1000):
            for k in (1, 2, 63, 64):
                k_eff = min(k, size)
                idx = [(i * size) // k_eff for i in range(k_eff)]
                assert len(set(idx)) == k_eff
                assert all(0 <= i < size for i in idx)


class TestThresholdRetune:
    def test_retuned_threshold_flips_admission_on_warm_session(
        self, monkeypatch
    ):
        """Cached probes must re-resolve the threshold at decision time.

        The session caches probe *measurements* per (pattern, flags);
        the old cache froze the whole estimate with the threshold baked
        in, so retuning ``EXPLOSIVE_PARTIALS`` silently never applied to
        warm sessions.
        """
        session = MiningSession(erdos_renyi(80, 0.2, seed=9))
        pattern = generate_clique(3)
        # Warm the probe cache under the roomy default threshold.
        assert session.count(pattern, guard="refuse") > 0
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        with pytest.raises(QueryRefusedError):
            session.count(pattern, guard="refuse")

    def test_resolve_threshold_rebinds_only_when_stale(self):
        est = guards.estimate_cost(erdos_renyi(60, 0.2, seed=1),
                                   generate_clique(3))
        same = guards.resolve_threshold(est)
        assert same is est  # fresh estimate: no copy
        retuned = guards.resolve_threshold(est, threshold=1.0)
        assert retuned.threshold == 1.0
        assert retuned.explosive
        assert retuned.avg_expansion == est.avg_expansion


class TestGrowthFloor:
    def test_admission_floors_but_raw_extrapolation_shrinks(self):
        """Sub-1.0 growth must shrink the raw prediction, not the guard's.

        On a path graph the second-level fanout is below 1; admission
        keeps the conservative floor (a shrinking frontier must not talk
        the guard out of refusing) while the planner-facing raw
        extrapolation honours the measured trend.
        """
        est = guards.estimate_cost(chain_graph(60), generate_chain(4))
        assert 0.0 < est.growth < 1.0
        deeper = est.pattern_vertices - 2
        assert est.predicted_partials == pytest.approx(est.level1_volume)
        assert est.predicted_partials_raw == pytest.approx(
            est.level1_volume * est.growth**deeper
        )
        assert est.predicted_partials_raw < est.predicted_partials

    def test_zero_growth_star_is_fully_degenerate(self):
        est = guards.estimate_cost(star_graph(60), generate_chain(3))
        assert est.growth == 0.0
        assert est.predicted_partials == pytest.approx(est.level1_volume)
        assert est.predicted_partials_raw == 0.0


# ----------------------------------------------------------------------
# Plan selection
# ----------------------------------------------------------------------


class TestPlanSelection:
    def test_dense_frontier_chooses_batched_engine(self):
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(session, generate_clique(3))
        assert plan.engine == "accel-batch"
        assert plan.estimate is not None
        assert plan.reasons  # every choice is explained

    def test_tiny_level1_volume_runs_batched(self):
        session = MiningSession(chain_graph(30))
        plan = planner.plan_query(session, generate_chain(3))
        assert plan.engine == "accel-batch"

    def test_pinned_engine_passes_through(self):
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(
            session, generate_clique(3),
            session.options(engine="reference"),
        )
        assert plan.engine == "reference"
        assert any("pinned" in r for r in plan.reasons)

    def test_stats_hook_pins_reference(self):
        from repro.core.engine import EngineStats

        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(
            session, generate_clique(3),
            session.options(stats=EngineStats()),
        )
        assert plan.engine == "reference"

    def test_skewed_frontier_chooses_dynamic_schedule(self):
        session = MiningSession(power_law(1500, gamma=2.1, d_min=4, seed=7))
        plan = planner.plan_query(
            session, generate_clique(3), num_workers=4
        )
        assert plan.schedule == "dynamic"
        assert plan.chunk_hint is not None and plan.chunk_hint >= 1

    def test_uniform_frontier_chooses_static_schedule(self):
        session = MiningSession(erdos_renyi(300, 0.05, seed=5))
        est = planner.plan_query(session, generate_clique(3)).estimate
        if est.hub_count == 0 and est.hub_skew < planner.SKEW_DYNAMIC_THRESHOLD:
            plan = planner.plan_query(
                session, generate_clique(3), num_workers=4
            )
            assert plan.schedule == "static"

    def test_worker_budget_capped_by_measured_work(self):
        session = MiningSession(star_graph(20))
        plan = planner.plan_query(session, generate_chain(3), num_workers=8)
        assert plan.num_workers == 1

    def test_explosive_estimate_caps_workers(self, monkeypatch):
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(session, generate_clique(4), num_workers=8)
        assert plan.num_workers <= guards.DOWNGRADE_MAX_WORKERS

    def test_explosive_raw_prediction_tightens_frontier_chunk(
        self, monkeypatch
    ):
        monkeypatch.setattr(planner, "TIGHTEN_PARTIALS", 1.0)
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(session, generate_clique(3))
        assert plan.frontier_chunk == planner.PLANNED_FRONTIER_CHUNK
        pinned = planner.plan_query(
            session, generate_clique(3),
            session.options(frontier_chunk=512),
        )
        assert pinned.frontier_chunk == 512  # never loosened

    def test_explicit_chunk_hint_wins(self):
        session = MiningSession(power_law(1500, gamma=2.1, d_min=4, seed=7))
        plan = planner.plan_query(
            session, generate_clique(3),
            session.options(chunk_hint=17), num_workers=4,
        )
        assert plan.chunk_hint == 17

    def test_apply_plan_rewrites_exec_options(self):
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(session, generate_clique(3))
        opts = planner.apply_plan(plan, session.defaults)
        assert opts.engine == plan.engine
        assert opts.schedule == plan.schedule
        assert opts.frontier_chunk == plan.frontier_chunk
        assert opts.chunk_hint == plan.chunk_hint

    def test_plan_dict_and_describe_are_stable(self):
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        plan = planner.plan_query(session, generate_clique(3))
        payload = plan.as_dict()
        assert set(payload) >= {
            "engine", "schedule", "frontier_chunk", "chunk_hint",
            "num_workers", "reasons", "estimate",
        }
        assert payload["estimate"]["explosive"] is False
        text = plan.describe()
        assert f"engine={plan.engine}" in text
        assert f"schedule={plan.schedule}" in text

    def test_workload_plan_fuses_when_any_member_is_worthy(self):
        session = MiningSession(erdos_renyi(300, 0.1, seed=3))
        patterns = [generate_clique(3), generate_chain(3)]
        plan = planner.plan_workload(session, patterns)
        assert plan.engine == "fused"
        empty = planner.plan_workload(session, [])
        assert empty.engine == "reference"

    def test_workload_plan_on_sparse_members_fuses(self):
        session = MiningSession(chain_graph(30))
        plan = planner.plan_workload(
            session, [generate_chain(3), generate_star(3)]
        )
        assert plan.engine == "fused"

    def test_invalid_planner_value_rejected(self):
        session = MiningSession(erdos_renyi(40, 0.2, seed=1))
        with pytest.raises(ValueError, match="planner must be one of"):
            session.count(generate_clique(3), plan="always")


# ----------------------------------------------------------------------
# Probe-once contract
# ----------------------------------------------------------------------


class TestProbeOnce:
    @pytest.fixture()
    def counting(self, monkeypatch):
        calls = []
        real = guards.estimate_cost

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(guards, "estimate_cost", wrapper)
        return calls

    def test_guarded_planned_query_probes_exactly_once(self, counting):
        """Admission and planning share one probe walk per query."""
        session = MiningSession(erdos_renyi(120, 0.1, seed=2))
        session.count(generate_clique(3), guard="downgrade", plan="auto")
        assert len(counting) == 1

    def test_warm_session_never_reprobes(self, counting):
        session = MiningSession(erdos_renyi(120, 0.1, seed=2))
        pattern = generate_clique(3)
        session.count(pattern, guard="downgrade", plan="auto")
        session.count(pattern, plan="auto")
        session.count(pattern, guard="refuse")
        assert len(counting) == 1

    def test_distinct_flags_probe_separately(self, counting):
        session = MiningSession(erdos_renyi(120, 0.1, seed=2))
        pattern = generate_clique(3)
        session.count(pattern, plan="auto")
        session.count(pattern, plan="auto", symmetry_breaking=False)
        assert len(counting) == 2


# ----------------------------------------------------------------------
# Auto-vs-fixed result parity
# ----------------------------------------------------------------------


PARITY_GRAPHS = {
    "uniform": lambda: erdos_renyi(120, 0.08, seed=3),
    "skewed": lambda: power_law(200, gamma=2.1, d_min=3, seed=5),
    "star": lambda: star_graph(40),
    "hub-tail": hub_tail_graph,
}

PARITY_PATTERNS = {
    "clique:3": generate_clique(3),
    "chain:3": generate_chain(3),
    "cycle:4": generate_cycle(4),
    "star:3": generate_star(3),
}


class TestAutoFixedParity:
    @pytest.mark.parametrize("graph_name", sorted(PARITY_GRAPHS))
    @pytest.mark.parametrize("pattern_name", sorted(PARITY_PATTERNS))
    @pytest.mark.parametrize("edge_induced", [True, False])
    def test_counts_identical(self, graph_name, pattern_name, edge_induced):
        session = MiningSession(PARITY_GRAPHS[graph_name]())
        pattern = PARITY_PATTERNS[pattern_name]
        fixed = session.count(
            pattern, edge_induced=edge_induced, plan="fixed"
        )
        auto = session.count(pattern, edge_induced=edge_induced, plan="auto")
        assert auto == fixed

    @pytest.mark.parametrize("pattern_name", ["clique:3", "chain:3"])
    def test_match_multisets_identical(self, pattern_name):
        session = MiningSession(erdos_renyi(100, 0.08, seed=11))
        pattern = PARITY_PATTERNS[pattern_name]

        def collect(plan_mode):
            rows = []
            session.match(
                pattern,
                lambda m: rows.append(tuple(m.mapping)),
                plan=plan_mode,
            )
            return sorted(rows)

        assert collect("auto") == collect("fixed")

    def test_count_many_identical(self):
        session = MiningSession(erdos_renyi(150, 0.08, seed=7))
        patterns = list(PARITY_PATTERNS.values())
        fixed = session.count_many(patterns, plan="fixed")
        auto = session.count_many(patterns, plan="auto")
        assert list(auto) == list(fixed)

    def test_guarded_downgrade_parity(self, monkeypatch):
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        session = MiningSession(erdos_renyi(120, 0.1, seed=2))
        pattern = generate_clique(3)
        fixed = session.count(pattern, guard="downgrade", plan="fixed")
        auto = session.count(pattern, guard="downgrade", plan="auto")
        assert auto == fixed

    def test_last_query_plan_recorded_only_for_auto(self):
        session = MiningSession(erdos_renyi(120, 0.1, seed=2))
        pattern = generate_clique(3)
        session.count(pattern, plan="fixed")
        assert session.last_query_plan is None
        session.count(pattern, plan="auto")
        recorded = session.last_query_plan
        assert isinstance(recorded, planner.QueryPlan)
        assert recorded.engine == "accel-batch"


# ----------------------------------------------------------------------
# ExecOptions spelling
# ----------------------------------------------------------------------


class TestPlanOptionSpelling:
    def test_plan_string_translates_to_planner_field(self):
        opts = ExecOptions().merged({"plan": "auto"})
        assert opts.planner == "auto"
        assert opts.plan is None  # the ExplorationPlan slot stays free

    def test_exploration_plan_object_still_accepted(self):
        session = MiningSession(erdos_renyi(60, 0.15, seed=4))
        pattern = generate_clique(3)
        plan = session.plan_for(pattern)
        opts = session.options(plan=plan)
        assert opts.plan is plan
        assert opts.planner == "fixed"

    def test_planner_session_default_via_constructor(self):
        session = MiningSession(erdos_renyi(60, 0.15, seed=4), plan="auto")
        assert session.defaults.planner == "auto"
        pattern = generate_clique(3)
        assert session.count(pattern) == session.count(pattern, plan="fixed")
        assert session.last_query_plan is not None
