"""Session API parity, cache behaviour, and legacy-shim stability.

The session redesign must be *observationally invisible* through the
legacy surface: ``MiningSession`` verbs return exactly what the
module-level :mod:`repro.core.api` functions return — counts, callback
sequences, batch row multisets, aggregates — across the full
pattern-feature matrix (labels, vertex-induced matching, anti-edges,
anti-vertices, symmetry-breaking ablation).  On top of parity, the
session must actually *reuse* state (plan cache, degree ordering, CSR
view), and the legacy functions must keep their exact signatures, since
they are the documented deprecation shims.
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExecOptions,
    MiningSession,
    as_session,
    count,
    count_many,
    exists,
    match,
    match_batches,
)
from repro.core import api as api_module
from repro.core.callbacks import ExplorationControl
from repro.errors import MatchingError
from repro.graph import erdos_renyi, from_edges, with_random_labels
from repro.mining.cliques import maximal_clique_pattern
from repro.pattern import (
    Pattern,
    generate_all_vertex_induced,
    generate_chain,
    generate_clique,
    generate_star,
)


def _labeled(p: Pattern, labels: dict[int, int]) -> Pattern:
    for u, lab in labels.items():
        p.set_label(u, lab)
    return p


def _feature_matrix():
    """(name, pattern factory, match kwargs) across every feature class."""

    def anti_square():
        p = Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        p.add_anti_edge(0, 2)
        p.add_anti_edge(1, 3)
        return p

    def anti_vertex_star():
        p = generate_star(3)
        p.add_anti_vertex([0, 1])
        return p

    return [
        ("clique3", lambda: generate_clique(3), {}),
        ("chain4-single-core", lambda: generate_chain(4), {}),
        ("tailed-triangle", lambda: Pattern.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)]), {}),
        ("vertex-induced-star", lambda: generate_star(3),
         {"edge_induced": False}),
        ("anti-edge-square", anti_square, {}),
        ("anti-vertex-star", anti_vertex_star, {}),
        ("maximal-clique", lambda: maximal_clique_pattern(3), {}),
        ("labeled-chain", lambda: _labeled(generate_chain(3), {0: 0, 2: 1}),
         {}),
        ("no-symmetry-clique", lambda: generate_clique(3),
         {"symmetry_breaking": False}),
    ]


FEATURE_MATRIX = _feature_matrix()
FEATURE_IDS = [name for name, _, _ in FEATURE_MATRIX]


def _graph_for(name, seed):
    if name.startswith("labeled"):
        return with_random_labels(erdos_renyi(32, 0.25, seed=seed), 3, seed=seed)
    return erdos_renyi(32, 0.25, seed=seed)


# ----------------------------------------------------------------------
# Parity: session verbs == legacy module functions
# ----------------------------------------------------------------------


class TestSessionParity:
    @pytest.mark.parametrize(
        "name,pattern_fn,kwargs", FEATURE_MATRIX, ids=FEATURE_IDS
    )
    def test_count_parity(self, name, pattern_fn, kwargs):
        g = _graph_for(name, seed=5)
        p = pattern_fn()
        session = MiningSession(g)
        assert session.count(p, **kwargs) == count(g, p, **kwargs)

    @pytest.mark.parametrize(
        "name,pattern_fn,kwargs", FEATURE_MATRIX, ids=FEATURE_IDS
    )
    def test_callback_sequence_parity(self, name, pattern_fn, kwargs):
        g = _graph_for(name, seed=7)
        p = pattern_fn()
        via_session: list[tuple[int, ...]] = []
        via_api: list[tuple[int, ...]] = []
        n1 = MiningSession(g).match(
            p, lambda m: via_session.append(m.mapping), **kwargs
        )
        n2 = match(g, p, callback=lambda m: via_api.append(m.mapping), **kwargs)
        assert n1 == n2
        assert via_session == via_api  # order, not just multiset

    @pytest.mark.parametrize(
        "name,pattern_fn,kwargs", FEATURE_MATRIX, ids=FEATURE_IDS
    )
    def test_batch_rows_parity(self, name, pattern_fn, kwargs):
        g = _graph_for(name, seed=9)
        p = pattern_fn()
        rows_session: list[tuple[int, ...]] = []
        rows_api: list[tuple[int, ...]] = []
        n1 = MiningSession(g).match_batches(
            p,
            lambda arr: rows_session.extend(tuple(r) for r in arr.tolist()),
            **kwargs,
        )
        n2 = match_batches(
            g,
            p,
            lambda arr: rows_api.extend(tuple(r) for r in arr.tolist()),
            **kwargs,
        )
        assert n1 == n2
        assert sorted(rows_session) == sorted(rows_api)

    def test_count_many_parity(self):
        g = erdos_renyi(40, 0.2, seed=3)
        patterns = generate_all_vertex_induced(3)
        session = MiningSession(g)
        got = session.count_many(patterns, edge_induced=False)
        assert got == count_many(g, patterns, edge_induced=False)

    def test_exists_parity(self):
        triangle_free = from_edges([(0, 1), (1, 2), (2, 3)])
        with_triangle = from_edges([(0, 1), (1, 2), (0, 2)])
        for g in (triangle_free, with_triangle):
            assert MiningSession(g).exists(generate_clique(3)) == exists(
                g, generate_clique(3)
            )

    def test_aggregate_matches_counts(self):
        g = with_random_labels(erdos_renyi(40, 0.2, seed=11), 2, seed=4)
        session = MiningSession(g)
        patterns = [generate_clique(3), generate_chain(3)]
        agg = session.aggregate(
            patterns, lambda m: (m.pattern.signature(), 1)
        )
        for p in patterns:
            assert agg[p.signature()] == count(g, p)

    def test_aggregate_custom_reduce(self):
        g = erdos_renyi(30, 0.25, seed=13)
        session = MiningSession(g)
        # max over the smallest matched vertex id — exercises a
        # non-additive combine through the aggregator thread.
        agg = session.aggregate(
            generate_clique(3),
            lambda m: ("min-vertex", min(m.vertices())),
            reduce=max,
        )
        expected: list[int] = []
        match(g, generate_clique(3), callback=lambda m: expected.append(
            min(m.vertices())
        ))
        assert agg["min-vertex"] == max(expected)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_fuzz_count_parity(self, seed):
        g = erdos_renyi(26, 0.25, seed=seed)
        gl = with_random_labels(erdos_renyi(26, 0.25, seed=seed), 3, seed=seed)
        for name, pattern_fn, kwargs in FEATURE_MATRIX:
            graph = gl if name.startswith("labeled") else g
            p = pattern_fn()
            assert MiningSession(graph).count(p, **kwargs) == count(
                graph, p, **kwargs
            ), name


# ----------------------------------------------------------------------
# ExecOptions resolution
# ----------------------------------------------------------------------


class TestExecOptions:
    def test_merged_overrides_fields(self):
        opts = ExecOptions().merged({"engine": "reference", "label_index": False})
        assert opts.engine == "reference"
        assert not opts.label_index
        assert opts.edge_induced  # untouched defaults survive

    def test_merged_rejects_unknown_option(self):
        with pytest.raises(TypeError, match="frontier_chunks"):
            ExecOptions().merged({"frontier_chunks": 1})

    def test_session_defaults_flow_into_runs(self):
        g = erdos_renyi(30, 0.25, seed=2)
        forced = MiningSession(g, engine="reference")
        assert forced.defaults.engine == "reference"
        assert forced.count(generate_clique(3)) == count(g, generate_clique(3))

    def test_per_call_override_beats_session_default(self):
        g = erdos_renyi(30, 0.25, seed=2)
        session = MiningSession(g, edge_induced=False)
        wedge = generate_chain(3)
        assert session.count(wedge) == count(g, wedge, edge_induced=False)
        assert session.count(wedge, edge_induced=True) == count(g, wedge)

    def test_per_call_only_options_rejected_as_defaults(self):
        g = erdos_renyi(10, 0.3, seed=1)
        from repro.core import generate_plan

        with pytest.raises(ValueError):
            MiningSession(g, plan=generate_plan(generate_clique(3)))
        with pytest.raises(ValueError):
            MiningSession(g, start_vertices=[0, 1])

    def test_defaults_and_options_are_exclusive(self):
        g = erdos_renyi(10, 0.3, seed=1)
        with pytest.raises(TypeError):
            MiningSession(g, ExecOptions(), engine="reference")

    def test_unknown_engine_still_value_error(self):
        g = erdos_renyi(10, 0.3, seed=1)
        with pytest.raises(ValueError):
            MiningSession(g).count(generate_clique(3), engine="warp-drive")
        # "accel" is not an engine name (there is no per-match tier).
        with pytest.raises(ValueError):
            MiningSession(g).count(generate_clique(3), engine="accel")

    # Distinct-from-default sample values per overridable field, so a
    # field-by-field check can tell "overridden" from "inherited".
    _OVERRIDE_SAMPLES = {
        "edge_induced": st.just(False),
        "symmetry_breaking": st.just(False),
        "engine": st.sampled_from(["reference", "accel-batch"]),
        "frontier_chunk": st.integers(min_value=1, max_value=64),
        "label_index": st.just(False),
        "flush_size": st.integers(min_value=1, max_value=512),
    }

    @given(
        overrides=st.fixed_dictionaries(
            {}, optional=_OVERRIDE_SAMPLES
        ),
        base_engine=st.sampled_from(["auto", "reference"]),
        base_flush=st.integers(min_value=1, max_value=9999),
    )
    @settings(max_examples=60)
    def test_merged_resolves_field_by_field(
        self, overrides, base_engine, base_flush
    ):
        """Random override subsets: overridden fields take the override,
        every other field keeps the session default, and the defaults
        object itself is never mutated."""
        import dataclasses

        defaults = ExecOptions(engine=base_engine, flush_size=base_flush)
        snapshot = dataclasses.asdict(defaults)
        merged = defaults.merged(overrides)
        for field in dataclasses.fields(ExecOptions):
            expected = overrides.get(field.name, getattr(defaults, field.name))
            assert getattr(merged, field.name) == expected, field.name
        assert dataclasses.asdict(defaults) == snapshot
        if not overrides:
            assert merged is defaults  # no-op merges don't copy

    @given(
        overrides=st.fixed_dictionaries({}, optional=_OVERRIDE_SAMPLES),
        bogus=st.sampled_from(
            ["frontier_chunks", "Engine", "chunk", "threads", ""]
        ),
    )
    @settings(max_examples=30)
    def test_merged_unknown_names_raise(self, overrides, bogus):
        with pytest.raises(TypeError, match="unknown execution option"):
            ExecOptions().merged({**overrides, bogus: 1})

    def test_merged_engine_none_inherits(self):
        defaults = ExecOptions(engine="reference")
        assert defaults.merged({"engine": None}).engine == "reference"
        assert defaults.merged({"engine": None, "flush_size": 7}).flush_size == 7


# ----------------------------------------------------------------------
# Cache behaviour: the whole point of a session
# ----------------------------------------------------------------------


class TestSessionCaches:
    def test_plan_cache_hits_on_repeat_queries(self):
        g = erdos_renyi(30, 0.25, seed=4)
        session = MiningSession(g)
        p = generate_clique(3)
        session.count(p)
        assert session.cache_info()["plan_misses"] == 1
        session.count(p)
        session.match(p, lambda m: None)
        info = session.cache_info()
        assert info["plan_misses"] == 1
        assert info["plan_hits"] == 2
        # Same flags -> the very same plan object.
        assert session.plan_for(p) is session.plan_for(p)

    def test_plan_cache_distinguishes_flags(self):
        g = erdos_renyi(30, 0.25, seed=4)
        session = MiningSession(g)
        p = generate_star(3)
        session.count(p)
        session.count(p, edge_induced=False)
        session.count(p, symmetry_breaking=False)
        assert session.cache_info()["plans"] == 3

    def test_ordering_and_view_are_shared_objects(self):
        g = erdos_renyi(30, 0.25, seed=6)
        session = MiningSession(g)
        session.count(generate_clique(3))
        assert session.ordered is g.degree_ordered()[0]
        assert session.view is session.view

    def test_legacy_api_shares_the_graph_session(self):
        g = erdos_renyi(30, 0.25, seed=8)
        p = generate_clique(3)
        count(g, p)
        count(g, p)
        shared = MiningSession.for_graph(g)
        assert shared.cache_info()["plan_hits"] >= 1
        assert as_session(g) is shared

    def test_label_start_lists_cached(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=9), 3, seed=2)
        session = MiningSession(g)
        p = _labeled(generate_chain(3), {0: 0, 2: 1})
        session.count(p)
        session.count(p)
        assert session.cache_info()["start_lists"] == 1

    def test_pattern_mutation_misses_instead_of_staleness(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=10), 2, seed=3)
        session = MiningSession(g)
        p = generate_chain(3)
        session.count(p)
        p.set_label(0, 1)  # mutate after caching
        labeled = session.count(p)
        assert labeled == count(g, p, engine="reference")
        assert session.cache_info()["plan_misses"] == 2

    def test_as_session_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_session([[0, 1]])


# ----------------------------------------------------------------------
# Early termination through the batched engine (session dispatch)
# ----------------------------------------------------------------------


class TestSessionEarlyTermination:
    def test_forced_batch_with_control_stops_at_limit(self):
        g = erdos_renyi(40, 0.3, seed=12)
        session = MiningSession(g)
        control = ExplorationControl()
        seen: list[tuple[int, ...]] = []

        def capped(m):
            seen.append(m.mapping)
            if len(seen) >= 4:
                control.stop()

        total = session.match(
            generate_clique(3), capped, control=control, engine="accel-batch"
        )
        assert control.stopped
        assert len(seen) == 4
        # The batched engine's count equals the callbacks actually fired.
        assert total == 4

    def test_forced_per_match_engine_honors_control(self):
        # The per-match interpreter polls the control per candidate, so a
        # stop from the callback lands on the very next match.
        g = erdos_renyi(30, 0.3, seed=12)
        session = MiningSession(g)
        expected = session.count(generate_clique(3), engine="reference")
        assert expected > 1
        seen: list = []
        session.match(
            generate_clique(3),
            seen.append,
            control=ExplorationControl(),
            engine="reference",
        )
        assert len(seen) == expected  # un-stopped control changes nothing
        control = ExplorationControl()
        stopped: list = []

        def stop_immediately(m):
            stopped.append(m)
            control.stop()

        session.match(
            generate_clique(3),
            stop_immediately,
            control=control,
            engine="reference",
        )
        assert 1 <= len(stopped) < expected

    def test_multi_core_control_stops_at_limit(self):
        # Vertex-induced 4-chains have 3 ordered cores, the order-merged
        # emission path: with a control attached, start slices shrink to
        # single vertices so the stopping callback isn't deferred behind
        # a whole chunk of buffered matches.
        g = erdos_renyi(40, 0.3, seed=18)
        session = MiningSession(g)
        control = ExplorationControl()
        seen: list[tuple[int, ...]] = []

        def capped(m):
            seen.append(m.mapping)
            if len(seen) >= 3:
                control.stop()

        total = session.match(
            generate_chain(4),
            capped,
            edge_induced=False,
            control=control,
            engine="accel-batch",
        )
        assert control.stopped
        assert total == len(seen) == 3

    def test_exists_honors_external_cancel(self):
        g = erdos_renyi(40, 0.3, seed=19)  # triangles definitely exist
        cancelled = ExplorationControl()
        cancelled.stop()
        assert not MiningSession(g).exists(
            generate_clique(3), control=cancelled
        )
        # The session-default control is an external cancel token too.
        session = MiningSession(g, control=cancelled)
        assert not session.exists(generate_clique(3))
        # A successful probe must not fire the caller's shared token.
        live = ExplorationControl()
        assert MiningSession(g).exists(generate_clique(3), control=live)
        assert not live.stopped

    def test_exists_matches_reference_and_stops(self):
        g = erdos_renyi(40, 0.3, seed=14)  # above the batched crossover
        session = MiningSession(g)
        assert session.exists(generate_clique(3)) == exists(
            g, generate_clique(3), engine="reference"
        )
        assert not session.exists(generate_clique(8))

    def test_aggregate_threshold_stop(self):
        g = erdos_renyi(40, 0.3, seed=15)
        session = MiningSession(g)
        control = ExplorationControl()

        def stop_at_ten(agg):
            if (agg.get("triangles") or 0) >= 10:
                control.stop()

        agg = session.aggregate(
            generate_clique(3),
            lambda m: ("triangles", 1),
            on_update=stop_at_ten,
            interval=0.0005,
            control=control,
        )
        full = count(g, generate_clique(3))
        assert 0 < agg["triangles"] <= full


# ----------------------------------------------------------------------
# Deprecation-shim stability: the legacy surface must not drift
# ----------------------------------------------------------------------

LEGACY_SIGNATURES = {
    "match": (
        "graph", "pattern", "callback", "edge_induced", "symmetry_breaking",
        "control", "stats", "timer", "plan", "start_vertices", "label_index",
        "engine", "frontier_chunk",
    ),
    "count": (
        "graph", "pattern", "edge_induced", "symmetry_breaking", "stats",
        "timer", "plan", "engine", "frontier_chunk",
    ),
    "count_many": (
        "graph", "patterns", "edge_induced", "symmetry_breaking", "engine",
    ),
    "exists": ("graph", "pattern", "edge_induced", "engine"),
    "match_batches": (
        "graph", "pattern", "on_batch", "edge_induced", "symmetry_breaking",
        "plan", "label_index", "engine", "frontier_chunk", "flush_size",
    ),
}


class TestLegacyShims:
    @pytest.mark.parametrize("name", sorted(LEGACY_SIGNATURES))
    def test_signatures_unchanged(self, name):
        fn = getattr(api_module, name)
        params = tuple(inspect.signature(fn).parameters)
        assert params == LEGACY_SIGNATURES[name]

    def test_legacy_defaults_unchanged(self):
        sig = inspect.signature(api_module.match)
        assert sig.parameters["edge_induced"].default is True
        assert sig.parameters["symmetry_breaking"].default is True
        assert sig.parameters["engine"].default == "auto"
        assert sig.parameters["label_index"].default is True
        assert inspect.signature(api_module.match_batches).parameters[
            "flush_size"
        ].default == 4096

    def test_precomputed_plan_still_honored(self):
        from repro.core import generate_plan

        g = erdos_renyi(30, 0.25, seed=16)
        p = generate_clique(3)
        plan = generate_plan(p)
        assert count(g, p, plan=plan) == count(g, p)
