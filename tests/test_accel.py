"""Tests for the numpy-accelerated kernels and the frontier-batched engine.

Every feature of the pattern matrix — labels, vertex-induced matching,
anti-edges, anti-vertices, callbacks — is parity-fuzzed against the
reference engine (``engine="reference"`` forces it; a bare ``count``
would dispatch right back to the batched engine) and, where cheap
enough, against the networkx oracles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import count, generate_plan, match, match_batches
from repro.core.callbacks import ExplorationControl
from repro.core.accel import (
    AcceleratedGraphView,
    FrontierBatchedEngine,
    frontier_count,
    frontier_start_order,
    np_bounded,
    np_difference,
    np_intersect,
    np_intersect_many,
    shared_view,
)
from repro.core.engine import EngineStats
from repro.errors import MatchingError
from repro.graph import (
    DataGraph,
    barabasi_albert,
    erdos_renyi,
    power_law,
    with_random_labels,
)
from repro.mining.cliques import maximal_clique_pattern
from repro.pattern import Pattern, generate_chain, generate_clique, generate_star
from repro.testing.oracles import nx_count_edge_induced, nx_count_vertex_induced

sorted_arrays = st.lists(
    st.integers(min_value=0, max_value=200), max_size=60
).map(lambda xs: np.array(sorted(set(xs)), dtype=np.int64))


def reference_count(graph, pattern, **kwargs):
    return count(graph, pattern, engine="reference", **kwargs)


# ----------------------------------------------------------------------
# Kernels vs set semantics
# ----------------------------------------------------------------------


class TestKernels:
    @given(sorted_arrays, sorted_arrays)
    def test_intersect_matches_set(self, a, b):
        got = np_intersect(a, b)
        assert got.tolist() == sorted(set(a.tolist()) & set(b.tolist()))

    @given(sorted_arrays, sorted_arrays)
    def test_difference_matches_set(self, a, b):
        got = np_difference(a, b)
        assert got.tolist() == sorted(set(a.tolist()) - set(b.tolist()))

    @given(st.lists(sorted_arrays, max_size=4))
    @settings(max_examples=40)
    def test_intersect_many_matches_set(self, lists):
        got = np_intersect_many(lists)
        if not lists:
            assert got.size == 0
        else:
            expected = set(lists[0].tolist())
            for other in lists[1:]:
                expected &= set(other.tolist())
            assert got.tolist() == sorted(expected)

    @given(
        sorted_arrays,
        st.integers(min_value=-1, max_value=201),
        st.integers(min_value=-1, max_value=201),
    )
    def test_bounded_matches_comprehension(self, a, lo, hi):
        got = np_bounded(a, lo, hi)
        assert got.tolist() == [v for v in a.tolist() if lo < v < hi]

    def test_empty_edges(self):
        empty = np.empty(0, dtype=np.int64)
        one = np.array([3], dtype=np.int64)
        assert np_intersect(empty, one).size == 0
        assert np_difference(empty, one).size == 0
        assert np_difference(one, empty).tolist() == [3]
        assert np_intersect_many([]).size == 0


# ----------------------------------------------------------------------
# Graph view
# ----------------------------------------------------------------------


class TestAcceleratedGraphView:
    def test_neighbors_agree_with_graph(self):
        g = erdos_renyi(50, 0.2, seed=4)
        view = AcceleratedGraphView(g)
        for v in g.vertices():
            assert view.neighbors(v).tolist() == g.neighbors(v)

    def test_memory_accounting(self):
        g = erdos_renyi(50, 0.2, seed=4)
        view = AcceleratedGraphView(g)
        assert view.memory_bytes() >= 8 * 2 * g.num_edges

    def test_label_partition(self):
        g = with_random_labels(erdos_renyi(40, 0.2, seed=9), 3, seed=5)
        view = AcceleratedGraphView(g)
        seen = []
        for lab in range(3):
            arr = view.vertices_with_label(lab)
            assert arr.tolist() == sorted(
                v for v in g.vertices() if g.label(v) == lab
            )
            seen.extend(arr.tolist())
        assert sorted(seen) == list(g.vertices())
        assert view.vertices_with_label(99).size == 0

    def test_unlabeled_partition_empty(self):
        g = erdos_renyi(10, 0.3, seed=1)
        view = AcceleratedGraphView(g)
        assert view.labels is None
        assert view.vertices_with_label(0).size == 0

    def test_from_csr_roundtrip(self):
        g = with_random_labels(erdos_renyi(30, 0.2, seed=2), 2, seed=3)
        view = AcceleratedGraphView(g)
        rebuilt = AcceleratedGraphView.from_csr(*view.csr())
        assert rebuilt.num_vertices == g.num_vertices
        for v in g.vertices():
            assert rebuilt.neighbors(v).tolist() == g.neighbors(v)
        assert rebuilt.labels.tolist() == g.labels()

    def test_shared_view_cached(self):
        g = erdos_renyi(20, 0.3, seed=8)
        ordered, _ = g.degree_ordered()
        assert shared_view(ordered) is shared_view(ordered)


# ----------------------------------------------------------------------
# Batched counting helper == reference engine (unlabeled, edge-induced)
# ----------------------------------------------------------------------


class TestAcceleratedCount:
    @pytest.mark.parametrize(
        "pattern_fn",
        [
            lambda: generate_clique(3),
            lambda: generate_clique(4),
            lambda: generate_chain(4),
            lambda: generate_star(4),
            lambda: Pattern.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]),
            lambda: Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]),
        ],
    )
    def test_agrees_with_reference(self, pattern_fn):
        g = barabasi_albert(300, 5, seed=9)
        p = pattern_fn()
        assert frontier_count(g, p) == reference_count(g, p)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_graph_triangles(self, seed):
        g = erdos_renyi(40, 0.25, seed=seed)
        assert frontier_count(g, generate_clique(3)) == reference_count(
            g, generate_clique(3)
        )

    def test_single_edge_pattern(self):
        g = erdos_renyi(30, 0.2, seed=2)
        assert frontier_count(g, Pattern.from_edges([(0, 1)])) == g.num_edges

    def test_reusable_view(self):
        g = barabasi_albert(200, 4, seed=3)
        ordered, _ = g.degree_ordered()
        view = AcceleratedGraphView(ordered)
        for p in (generate_clique(3), generate_chain(3)):
            assert frontier_count(g, p, view=view) == reference_count(g, p)

    def test_foreign_view_is_rebuilt_not_trusted(self):
        g = erdos_renyi(40, 0.3, seed=2)
        other = erdos_renyi(25, 0.2, seed=99)
        foreign = AcceleratedGraphView(other.degree_ordered()[0])
        p = generate_clique(3)
        assert frontier_count(g, p, view=foreign) == reference_count(g, p)

    def test_rejects_labeled_pattern_on_unlabeled_graph(self):
        g = erdos_renyi(20, 0.3, seed=1)
        p = Pattern.from_edges([(0, 1)])
        p.set_label(0, 1)
        with pytest.raises(MatchingError):
            frontier_count(g, p)

    @pytest.mark.parametrize("edge_induced", [True, False])
    def test_empty_graphs_count_zero(self, edge_induced):
        for g in (DataGraph([]), DataGraph([[] for _ in range(5)])):
            for p in (generate_clique(3), generate_chain(3)):
                got = frontier_count(g, p, edge_induced=edge_induced)
                assert got == 0 == reference_count(
                    g, p, edge_induced=edge_induced
                )


# ----------------------------------------------------------------------
# Parity: anti-edges and anti-vertices
# ----------------------------------------------------------------------


class TestAntiConstraintParity:
    def test_chain_with_anti_edge(self):
        g = erdos_renyi(40, 0.25, seed=1)
        p = generate_chain(3)
        p.add_anti_edge(0, 2)
        assert frontier_count(g, p) == reference_count(g, p)

    def test_square_with_anti_diagonals(self):
        g = erdos_renyi(35, 0.3, seed=13)
        p = Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        p.add_anti_edge(0, 2)
        p.add_anti_edge(1, 3)
        assert frontier_count(g, p) == reference_count(g, p)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_fuzz_anti_edge_paths(self, seed):
        g = erdos_renyi(30, 0.25, seed=seed)
        p = generate_chain(4)
        p.add_anti_edge(0, 3)
        assert frontier_count(g, p) == reference_count(g, p)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_fuzz_maximal_cliques(self, seed):
        g = erdos_renyi(30, 0.3, seed=seed)
        p = maximal_clique_pattern(3)
        assert frontier_count(g, p) == reference_count(g, p)

    def test_anti_vertex_star(self):
        g = erdos_renyi(40, 0.2, seed=21)
        p = generate_star(3)
        p.add_anti_vertex([0, 1])
        assert frontier_count(g, p) == reference_count(g, p)


# ----------------------------------------------------------------------
# Parity: vertex-induced matching (Theorem 3.1 closure)
# ----------------------------------------------------------------------


class TestVertexInducedParity:
    @pytest.mark.parametrize(
        "pattern_fn",
        [
            lambda: generate_chain(3),
            lambda: generate_chain(4),
            lambda: generate_star(4),
            lambda: Pattern.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]),
            lambda: Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]),
        ],
    )
    def test_agrees_with_reference_and_oracle(self, pattern_fn):
        g = erdos_renyi(30, 0.25, seed=17)
        p = pattern_fn()
        got = frontier_count(g, p, edge_induced=False)
        assert got == reference_count(g, p, edge_induced=False)
        assert got == nx_count_vertex_induced(g, p)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_fuzz_vertex_induced_wedges(self, seed):
        g = erdos_renyi(30, 0.3, seed=seed)
        p = generate_star(3)
        assert frontier_count(g, p, edge_induced=False) == reference_count(
            g, p, edge_induced=False
        )


# ----------------------------------------------------------------------
# Parity: labeled patterns
# ----------------------------------------------------------------------


def _labeled_pattern(structural: Pattern, labels: dict[int, int]) -> Pattern:
    p = structural.copy()
    for u, lab in labels.items():
        p.set_label(u, lab)
    return p


class TestLabeledParity:
    @pytest.mark.parametrize(
        "labels",
        [
            {0: 0},  # partially labeled
            {0: 0, 1: 1},
            {0: 0, 1: 1, 2: 2},  # fully labeled
            {0: 1, 1: 1, 2: 1},  # repeated labels keep symmetry orders
        ],
    )
    def test_labeled_triangle(self, labels):
        g = with_random_labels(erdos_renyi(40, 0.25, seed=7), 3, seed=1)
        p = _labeled_pattern(generate_clique(3), labels)
        assert frontier_count(g, p) == reference_count(g, p)

    @pytest.mark.parametrize(
        "labels",
        [{0: 0, 1: 1, 2: 0}, {1: 2}, {0: 3, 2: 3}],
    )
    def test_labeled_chain(self, labels):
        g = with_random_labels(erdos_renyi(40, 0.2, seed=11), 4, seed=2)
        p = _labeled_pattern(generate_chain(3), labels)
        assert frontier_count(g, p) == reference_count(g, p)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_fuzz_labeled_stars(self, seed):
        g = with_random_labels(erdos_renyi(35, 0.2, seed=seed), 3, seed=seed)
        p = _labeled_pattern(generate_star(3), {0: seed % 3, 2: (seed + 1) % 3})
        assert frontier_count(g, p) == reference_count(g, p)

    def test_labeled_vertex_induced_combination(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=19), 3, seed=4)
        p = _labeled_pattern(generate_star(3), {0: 1, 1: 0, 2: 2})
        got = frontier_count(g, p, edge_induced=False)
        assert got == reference_count(g, p, edge_induced=False)

    def test_label_absent_from_graph(self):
        g = with_random_labels(erdos_renyi(20, 0.3, seed=3), 2, seed=5)
        p = _labeled_pattern(generate_clique(3), {0: 7})
        assert frontier_count(g, p) == 0 == reference_count(g, p)


# ----------------------------------------------------------------------
# Parity: callbacks (batched match materialization)
# ----------------------------------------------------------------------


def _collect_matches(graph, pattern, engine, **kwargs):
    found = []
    match(graph, pattern, callback=lambda m: found.append(m.mapping),
          engine=engine, **kwargs)
    return found


class TestCallbackParity:
    @pytest.mark.parametrize(
        "pattern_fn,kwargs",
        [
            (lambda: generate_clique(3), {}),
            (lambda: generate_chain(4), {}),
            (lambda: generate_star(3), {"edge_induced": False}),
            (lambda: maximal_clique_pattern(3), {}),
        ],
    )
    def test_same_matches_same_order(self, pattern_fn, kwargs):
        g = erdos_renyi(30, 0.25, seed=23)
        p = pattern_fn()
        accel = _collect_matches(g, p, "accel-batch", **kwargs)
        ref = _collect_matches(g, p, "reference", **kwargs)
        assert accel == ref

    def test_labeled_callback_matches(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=29), 3, seed=6)
        p = _labeled_pattern(generate_chain(3), {0: 0, 2: 1})
        assert _collect_matches(g, p, "accel-batch") == _collect_matches(
            g, p, "reference"
        )

    def test_callback_count_equals_count(self):
        g = erdos_renyi(40, 0.2, seed=31)
        p = generate_clique(3)
        assert len(_collect_matches(g, p, "accel-batch")) == count(g, p)


# ----------------------------------------------------------------------
# Frontier-batched engine: parity across the full feature matrix
# ----------------------------------------------------------------------

# Chunk sizes stress the frontier splitter: 1 (every partial alone, the
# worst case for ordering bugs), 2 (splits at odd boundaries), and None
# ("all": the default chunk swallows these graphs whole).
CHUNKS = (1, 2, None)


def _feature_matrix():
    """(name, pattern factory, match kwargs) across every feature class."""
    def anti_square():
        p = Pattern.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        p.add_anti_edge(0, 2)
        p.add_anti_edge(1, 3)
        return p

    def anti_chain():
        p = generate_chain(4)
        p.add_anti_edge(0, 3)
        return p

    def anti_vertex_star():
        p = generate_star(3)
        p.add_anti_vertex([0, 1])
        return p

    def labeled_chain():
        return _labeled_pattern(generate_chain(3), {0: 0, 2: 1})

    def labeled_triangle():
        return _labeled_pattern(generate_clique(3), {0: 0, 1: 1, 2: 2})

    return [
        ("clique3", lambda: generate_clique(3), {}),
        ("clique4", lambda: generate_clique(4), {}),
        # single-vertex cores exercise the vectorized tail count
        ("chain4-single-core", lambda: generate_chain(4), {}),
        ("star4-single-core", lambda: generate_star(4), {}),
        ("tailed-triangle", lambda: Pattern.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)]), {}),
        ("square", lambda: Pattern.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)]), {}),
        ("vertex-induced-star", lambda: generate_star(3),
         {"edge_induced": False}),
        ("vertex-induced-chain", lambda: generate_chain(4),
         {"edge_induced": False}),
        ("anti-edge-chain", anti_chain, {}),
        ("anti-edge-square", anti_square, {}),
        ("anti-vertex-star", anti_vertex_star, {}),
        ("maximal-clique", lambda: maximal_clique_pattern(3), {}),
        ("labeled-chain", labeled_chain, {}),
        ("labeled-triangle", labeled_triangle, {}),
        ("no-symmetry-clique", lambda: generate_clique(3),
         {"symmetry_breaking": False}),
    ]


FEATURE_MATRIX = _feature_matrix()


def _graph_for(name, seed):
    if name.startswith("labeled"):
        return with_random_labels(erdos_renyi(32, 0.25, seed=seed), 3, seed=seed)
    return erdos_renyi(32, 0.25, seed=seed)


class TestFrontierBatchedParity:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize(
        "name,pattern_fn,kwargs",
        FEATURE_MATRIX,
        ids=[name for name, _, _ in FEATURE_MATRIX],
    )
    def test_counts_match_reference(self, name, pattern_fn, kwargs, chunk):
        g = _graph_for(name, seed=11)
        p = pattern_fn()
        got = count(g, p, engine="accel-batch", frontier_chunk=chunk, **kwargs)
        assert got == reference_count(g, p, **kwargs)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize(
        "name,pattern_fn,kwargs",
        FEATURE_MATRIX,
        ids=[name for name, _, _ in FEATURE_MATRIX],
    )
    def test_callbacks_match_reference_in_order(
        self, name, pattern_fn, kwargs, chunk
    ):
        """Match *sequences* (not just multisets) are engine-independent."""
        g = _graph_for(name, seed=13)
        p = pattern_fn()
        batched = _collect_matches(
            g, p, "accel-batch", frontier_chunk=chunk, **kwargs
        )
        assert batched == _collect_matches(g, p, "reference", **kwargs)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_fuzz_counts_across_features(self, seed):
        g = erdos_renyi(28, 0.25, seed=seed)
        gl = with_random_labels(erdos_renyi(28, 0.25, seed=seed), 3, seed=seed)
        chunk = [1, 2, None][seed % 3]
        for name, pattern_fn, kwargs in FEATURE_MATRIX:
            graph = gl if name.startswith("labeled") else g
            p = pattern_fn()
            got = count(
                graph, p, engine="accel-batch", frontier_chunk=chunk, **kwargs
            )
            assert got == reference_count(graph, p, **kwargs), name

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_fuzz_callback_order(self, seed):
        g = erdos_renyi(24, 0.3, seed=seed)
        for pattern_fn in (
            lambda: generate_clique(3),
            lambda: generate_chain(4),
            lambda: maximal_clique_pattern(3),
        ):
            p = pattern_fn()
            batched = _collect_matches(
                g, p, "accel-batch", frontier_chunk=(seed % 3) or None
            )
            assert batched == _collect_matches(g, p, "reference")

    def test_count_with_callback_equals_count_only(self):
        g = erdos_renyi(40, 0.2, seed=19)
        p = generate_chain(3)  # single-vertex core: vectorized tail count
        assert count(g, p, engine="accel-batch") == len(
            _collect_matches(g, p, "accel-batch")
        )

    def test_frontier_count_helper(self):
        g = barabasi_albert(200, 4, seed=3)
        for p in (generate_clique(3), generate_chain(3)):
            assert frontier_count(g, p) == reference_count(g, p)

    def test_rejects_labeled_pattern_on_unlabeled_graph(self):
        g = erdos_renyi(20, 0.3, seed=1)
        p = Pattern.from_edges([(0, 1)])
        p.set_label(0, 1)
        with pytest.raises(MatchingError):
            frontier_count(g, p)

    def test_rejects_on_match_and_on_batch_together(self):
        g = erdos_renyi(20, 0.3, seed=2)
        ordered, _ = g.degree_ordered()
        engine = FrontierBatchedEngine(shared_view(ordered))
        with pytest.raises(ValueError):
            engine.run(
                generate_plan(generate_clique(3)),
                on_match=lambda m: None,
                on_batch=lambda arr: None,
            )

    def test_on_batch_rows_match_reference_multiset(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=23), 3, seed=5)
        p = _labeled_pattern(generate_chain(3), {0: 0})
        rows = []
        total = match_batches(g, p, lambda arr: rows.extend(
            tuple(r) for r in arr.tolist()
        ))
        ref = _collect_matches(g, p, "reference")
        assert total == len(ref)
        assert sorted(rows) == sorted(ref)


class TestFrontierStartOrder:
    def test_unlabeled_is_hub_first(self):
        g = erdos_renyi(25, 0.2, seed=3)
        ordered, _ = g.degree_ordered()
        view = shared_view(ordered)
        plan = generate_plan(generate_clique(3))
        starts = frontier_start_order(view.labels, view.num_vertices, plan)
        assert starts.tolist() == list(range(view.num_vertices - 1, -1, -1))

    def test_labeled_filters_to_top_labels(self):
        g = with_random_labels(erdos_renyi(40, 0.25, seed=5), 3, seed=7)
        ordered, _ = g.degree_ordered()
        view = shared_view(ordered)
        p = _labeled_pattern(generate_clique(3), {0: 1, 1: 1, 2: 1})
        plan = generate_plan(p)
        starts = frontier_start_order(view.labels, view.num_vertices, plan)
        assert starts.size > 0
        assert all(view.labels[v] == 1 for v in starts.tolist())
        # hub-first order is preserved within the filtered set
        assert starts.tolist() == sorted(starts.tolist(), reverse=True)

    def test_sliced_frontier_partitions_the_count(self):
        g = with_random_labels(erdos_renyi(50, 0.25, seed=9), 2, seed=11)
        ordered, _ = g.degree_ordered()
        view = shared_view(ordered)
        p = _labeled_pattern(generate_chain(3), {0: 0, 1: 1, 2: 0})
        plan = generate_plan(p)
        starts = frontier_start_order(view.labels, view.num_vertices, plan)
        total = FrontierBatchedEngine(view).run(plan, count_only=True)
        sliced = sum(
            FrontierBatchedEngine(view).run(
                plan, start_vertices=starts[off::3], count_only=True
            )
            for off in range(3)
        )
        assert sliced == total == reference_count(g, p)


# ----------------------------------------------------------------------
# Engine dispatch rules (repro.core.api)
# ----------------------------------------------------------------------


def _sparse_graph():
    """A near-forest graph (average degree ~1.3)."""
    g = power_law(2000, 3.5, d_min=1, seed=11)
    assert g.avg_degree() < 2.0
    return g


class TestDispatch:
    def test_auto_with_stats_uses_reference(self):
        g = erdos_renyi(30, 0.25, seed=37)
        stats = EngineStats()
        n = count(g, generate_clique(3), stats=stats)
        assert n == count(g, generate_clique(3))
        assert stats.partial_matches > 0  # reference engine ran

    def test_unknown_engine_rejected(self):
        g = erdos_renyi(10, 0.3, seed=1)
        with pytest.raises(ValueError):
            count(g, generate_clique(3), engine="warp-drive")
        # "accel" is not an engine name (there is no per-match tier).
        with pytest.raises(ValueError):
            count(g, generate_clique(3), engine="accel")

    def test_forced_engines_agree(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=41), 3, seed=7)
        p = _labeled_pattern(generate_star(3), {0: 1})
        expected = count(g, p, engine="reference")
        for engine in ("auto", "accel-batch"):
            assert count(g, p, engine=engine) == expected, engine

    def test_engine_runs_against_oracle(self):
        g = erdos_renyi(25, 0.3, seed=43)
        p = generate_chain(3)
        assert count(g, p) == nx_count_edge_induced(g, p)

    def test_force_accel_batch_with_stats_raises(self):
        g = erdos_renyi(20, 0.3, seed=1)
        with pytest.raises(MatchingError):
            count(g, generate_clique(3), stats=EngineStats(),
                  engine="accel-batch")

    def test_forced_batch_agrees_everywhere(self):
        g = with_random_labels(erdos_renyi(30, 0.25, seed=41), 3, seed=7)
        p = _labeled_pattern(generate_star(3), {0: 1})
        assert count(g, p, engine="accel-batch") == count(
            g, p, engine="reference"
        )

    def test_batch_engine_runs_against_oracle(self):
        g = erdos_renyi(25, 0.3, seed=43)
        p = generate_chain(3)
        assert count(g, p, engine="accel-batch") == nx_count_edge_induced(g, p)

    def test_sparse_graph_default_runs_batched(self, monkeypatch):
        """Default count and motif census never touch the interpreter.

        The batched and fused engines beat the interpreter on near-forest
        graphs too (``BENCH_engine.json``), so no density threshold may
        send the default there.
        """
        from repro.core import session as session_module
        from repro.core.session import MiningSession
        from repro.mining import motif_counts

        g = _sparse_graph()
        session = MiningSession(g)
        triangles = session.count(generate_clique(3), engine="reference")
        census = motif_counts(MiningSession(g, engine="reference"), 3)

        def interpreter_called(*args, **kwargs):
            raise AssertionError("the default path ran the interpreter")

        monkeypatch.setattr(session_module, "run_tasks", interpreter_called)
        assert session.count(generate_clique(3)) == triangles
        assert motif_counts(session, 3) == census
        assert session.count(generate_clique(3), plan="auto") == triangles
        assert session.last_query_plan.engine == "accel-batch"


# ----------------------------------------------------------------------
# Controls on the batched engine (guardrail dispatch parity)
# ----------------------------------------------------------------------


class TestControlDispatch:
    """Control-bearing calls qualify for the batched engine.

    The engine polls the control cooperatively (per frontier block and
    emitted match), so a control must change neither dispatch nor —
    while it stays un-stopped — the matches or their order.
    """

    def test_control_does_not_change_dispatch(self):
        from repro.core.session import MiningSession

        g = erdos_renyi(300, 0.05, seed=51)
        session = MiningSession(g)
        for p in (generate_clique(3), generate_chain(3)):
            bare = session._prepare(p, session.options())[2]
            controlled = session._prepare(
                p, session.options(control=ExplorationControl())
            )[2]
            assert controlled == bare == "accel-batch"

    @pytest.mark.parametrize("engine", ["accel-batch"])
    def test_forced_engine_accepts_control(self, engine):
        from repro.core.session import MiningSession

        g = erdos_renyi(30, 0.25, seed=23)
        p = generate_clique(3)
        session = MiningSession(g)
        n = session.count(p, engine=engine, control=ExplorationControl())
        assert n == session.count(p, engine="reference")

    def test_callback_order_parity_with_control(self):
        g = erdos_renyi(30, 0.25, seed=23)
        p = generate_clique(3)
        ref = _collect_matches(g, p, "reference")
        batched = _collect_matches(
            g, p, "accel-batch", control=ExplorationControl()
        )
        assert batched == ref

    def test_stopped_control_terminates_accel_early(self):
        g = erdos_renyi(30, 0.25, seed=23)
        p = generate_clique(3)
        full = count(g, p, engine="reference")
        assert full > 1
        control = ExplorationControl()
        seen = []

        def stop_now(m):
            seen.append(m.mapping)
            control.stop()

        match(g, p, stop_now, control=control, engine="accel-batch")
        assert 1 <= len(seen) < full


# ----------------------------------------------------------------------
# Direct FrontierBatchedEngine API (start-vertex slicing for the runtime)
# ----------------------------------------------------------------------


class TestEngineSlicing:
    def test_strided_starts_partition_the_count(self):
        g = erdos_renyi(50, 0.2, seed=47)
        ordered, _ = g.degree_ordered()
        plan = generate_plan(generate_clique(3))
        view = shared_view(ordered)
        total = FrontierBatchedEngine(view).run(plan, count_only=True)
        strided = sum(
            FrontierBatchedEngine(view).run(
                plan,
                start_vertices=range(ordered.num_vertices - 1 - off, -1, -3),
                count_only=True,
            )
            for off in range(3)
        )
        assert strided == total == reference_count(g, generate_clique(3))
