"""Tests for the concurrent runtime: scheduler, threads, aggregation."""

import os
import threading
import time

import pytest

from repro.core import Aggregator, ExplorationControl, MiningSession, count
from repro.errors import QueryCancelledError, WorkerCrashError
from repro.runtime import parallel
from repro.graph import erdos_renyi, with_random_labels
from repro.pattern import (
    Pattern,
    generate_all_vertex_induced,
    generate_clique,
    pattern_p1,
)
from repro.runtime import (
    AggregatorThread,
    DeadlineControl,
    TaskScheduler,
    parallel_match,
    process_count,
    process_count_many,
    stop_after_n_matches,
    stop_when_aggregate,
)


class TestTaskScheduler:
    def test_chunks_cover_everything_once(self):
        sched = TaskScheduler(range(100), chunk_size=7)
        seen = []
        while True:
            chunk = sched.next_chunk()
            if not chunk:
                break
            seen.extend(chunk)
        assert seen == list(range(100))

    def test_degree_descending_order(self):
        sched = TaskScheduler.degree_descending(5, chunk_size=10)
        assert list(sched.next_chunk()) == [4, 3, 2, 1, 0]

    def test_remaining_and_reset(self):
        sched = TaskScheduler(range(10), chunk_size=4)
        sched.next_chunk()
        assert sched.remaining() == 6
        sched.reset()
        assert sched.remaining() == 10

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            TaskScheduler(range(3), chunk_size=0)

    def test_thread_safety(self):
        sched = TaskScheduler(range(1000), chunk_size=3)
        collected = []
        lock = threading.Lock()

        def worker():
            while True:
                chunk = sched.next_chunk()
                if not chunk:
                    return
                with lock:
                    collected.extend(chunk)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(collected) == list(range(1000))


class TestParallelMatch:
    def test_counts_match_sequential(self):
        g = erdos_renyi(80, 0.12, seed=1)
        expected = count(g, pattern_p1())
        for threads in (1, 2, 4):
            result = parallel_match(g, pattern_p1(), num_threads=threads)
            assert result.matches == expected

    def test_callback_aggregation(self):
        g = erdos_renyi(60, 0.15, seed=2)
        expected = count(g, generate_clique(3))

        def cb(m, agg):
            agg.map_pattern("triangles", 1)

        result = parallel_match(g, generate_clique(3), num_threads=3, callback=cb)
        assert result.aggregates.get("triangles") == expected

    def test_stats_merged(self):
        # Engine stats are a reference-engine feature; force it so the
        # counters are populated (auto would pick the batched engine).
        g = erdos_renyi(50, 0.15, seed=3)
        result = parallel_match(g, generate_clique(3), num_threads=2,
                                engine="reference")
        assert result.engine == "reference"
        assert result.stats.complete_matches == result.matches
        assert result.stats.tasks == 50

    def test_early_stop_with_control(self):
        g = erdos_renyi(60, 0.25, seed=4)
        control = ExplorationControl()

        def cb(m, agg):
            control.stop()

        result = parallel_match(
            g, generate_clique(3), num_threads=2, callback=cb, control=control
        )
        assert result.matches < count(g, generate_clique(3))

    def test_per_thread_accounting(self):
        g = erdos_renyi(60, 0.2, seed=5)
        result = parallel_match(g, generate_clique(3), num_threads=3, chunk_size=4)
        assert sum(result.per_thread_matches) == result.matches
        assert 0.0 <= result.load_imbalance() <= 1.0


class TestParallelMatchEngines:
    """The accel-exclusion fix: threads dispatch per-worker like count."""

    @pytest.mark.parametrize("engine", ["auto", "accel-batch", "reference"])
    def test_identical_totals_across_engines(self, engine):
        g = erdos_renyi(70, 0.15, seed=8)
        expected = count(g, generate_clique(3), engine="reference")
        result = parallel_match(
            g, generate_clique(3), num_threads=3, engine=engine
        )
        assert result.matches == expected

    def test_auto_without_hooks_drives_batched_engine(self):
        g = erdos_renyi(70, 0.15, seed=8)
        result = parallel_match(g, generate_clique(3), num_threads=2)
        assert result.engine == "accel-batch"
        assert result.matches == count(g, generate_clique(3), engine="reference")

    def test_single_vertex_core_pattern_batched(self):
        from repro.pattern import generate_chain

        g = erdos_renyi(60, 0.15, seed=9)
        result = parallel_match(g, generate_chain(3), num_threads=3)
        assert result.engine == "accel-batch"
        assert result.matches == count(g, generate_chain(3), engine="reference")

    def test_callback_aggregation_on_batched_engine(self):
        g = erdos_renyi(60, 0.15, seed=10)
        expected = count(g, generate_clique(3), engine="reference")

        def cb(m, agg):
            agg.map_pattern("triangles", 1)

        result = parallel_match(g, generate_clique(3), num_threads=3, callback=cb)
        assert result.engine == "accel-batch"
        assert result.aggregates.get("triangles") == expected

    def test_user_control_stays_on_batched_engine(self):
        # Since the batched engine polls controls between frontier blocks
        # (and per emitted match), a user control no longer forces the
        # interpreter under auto dispatch.
        g = erdos_renyi(50, 0.15, seed=11)
        result = parallel_match(
            g, generate_clique(3), num_threads=2, control=ExplorationControl()
        )
        assert result.engine == "accel-batch"
        assert result.matches == count(g, generate_clique(3), engine="reference")

    def test_forced_batch_with_control_stops_early(self):
        g = erdos_renyi(40, 0.3, seed=12)
        control = ExplorationControl()

        def cb(m, agg):
            control.stop()

        result = parallel_match(
            g,
            generate_clique(3),
            num_threads=2,
            callback=cb,
            control=control,
            engine="accel-batch",
        )
        assert result.engine == "accel-batch"
        assert control.stopped
        assert result.matches < count(g, generate_clique(3), engine="reference")

    def test_unknown_engine_rejected(self):
        g = erdos_renyi(20, 0.3, seed=13)
        with pytest.raises(ValueError):
            parallel_match(g, generate_clique(3), engine="warp-drive")

    def test_labeled_pattern_batched_totals(self):
        from repro.graph import with_random_labels
        from repro.pattern import generate_chain

        g = with_random_labels(erdos_renyi(60, 0.15, seed=14), 3, seed=2)
        p = generate_chain(3)
        p.set_label(0, 0)
        p.set_label(2, 1)
        expected = count(g, p, engine="reference")
        result = parallel_match(g, p, num_threads=3)
        assert result.matches == expected


@pytest.fixture
def sharing(request, monkeypatch):
    """How process workers get the graph.

    ``"fork"`` is the default path: workers inherit the parent's view.
    ``"mmap"`` forces the spawn path through the ``_fork_available``
    seam: workers re-open the graph's ``.rgx`` store (its own
    degree-sorted file, or one temporary spill) and map it.
    """
    if request.param == "fork":
        if not parallel._fork_available():
            pytest.skip("fork start method unavailable")
    else:
        monkeypatch.setattr(parallel, "_fork_available", lambda: False)
    return request.param


SHARING = ("fork", "mmap")


class TestProcessCount:
    def test_matches_sequential(self):
        g = erdos_renyi(60, 0.15, seed=6)
        expected = count(g, generate_clique(3))
        assert process_count(g, generate_clique(3), num_processes=1) == expected
        assert process_count(g, generate_clique(3), num_processes=2) == expected

    def test_vertex_induced(self):
        g = erdos_renyi(40, 0.2, seed=7)
        from repro.pattern import generate_star

        expected = count(g, generate_star(3), edge_induced=False)
        got = process_count(
            g, generate_star(3), num_processes=2, edge_induced=False
        )
        assert got == expected

    @pytest.mark.parametrize("sharing", SHARING, indirect=True)
    def test_share_modes_agree(self, sharing):
        g = erdos_renyi(60, 0.15, seed=6)
        expected = count(g, generate_clique(3))
        assert process_count(g, generate_clique(3), num_processes=3) == expected

    def test_shared_labeled_graph(self):
        from repro.graph import with_random_labels
        from repro.pattern import generate_chain

        g = with_random_labels(erdos_renyi(50, 0.2, seed=9), 3, seed=4)
        p = generate_chain(3)
        p.set_label(0, 1)
        p.set_label(2, 2)
        expected = count(g, p)
        assert process_count(g, p, num_processes=2) == expected

    @pytest.mark.parametrize("sharing", SHARING, indirect=True)
    def test_dense_graph_uses_accelerated_workers(self, sharing):
        """Dense regime: workers run the batched engine over shared CSR."""
        g = erdos_renyi(200, 0.7, seed=13)
        expected = count(g, generate_clique(3))
        assert process_count(g, generate_clique(3), num_processes=2) == expected

    @pytest.mark.parametrize("sharing", SHARING, indirect=True)
    def test_dense_labeled_graph_shares_label_arrays(self, sharing):
        """Labels must survive CSR sharing into accelerated workers."""
        from repro.graph import with_random_labels
        from repro.pattern import generate_clique as clique

        g = with_random_labels(erdos_renyi(200, 0.7, seed=17), 3, seed=3)
        p = clique(3)
        p.set_label(0, 1)
        p.set_label(1, 2)
        expected = count(g, p)
        assert process_count(g, p, num_processes=2) == expected

    @pytest.mark.parametrize("sharing", SHARING, indirect=True)
    def test_moderate_density_uses_batched_workers(self, sharing):
        """Batched workers agree with the interpreter at moderate density."""
        g = erdos_renyi(80, 0.1, seed=21)  # avg degree ~8
        expected = count(g, generate_clique(3), engine="reference")
        assert process_count(g, generate_clique(3), num_processes=3) == expected

    def test_labeled_frontier_slicing_partitions_work(self):
        """Workers slice the label-filtered frontier, not vertex ranges."""
        from repro.graph import with_random_labels
        from repro.pattern import generate_chain

        g = with_random_labels(erdos_renyi(70, 0.12, seed=23), 3, seed=5)
        p = generate_chain(3)
        p.set_label(0, 1)
        p.set_label(2, 2)
        expected = count(g, p, engine="reference")
        for procs in (2, 3):
            assert process_count(g, p, num_processes=procs) == expected

    @pytest.mark.parametrize("schedule", ["dynamic", "static"])
    def test_pickle_fallback_counts_identical(self, schedule, monkeypatch):
        """Both sharing paths agree with the interpreter on a hard query.

        Regression guard for the sharing matrix: a labeled pattern with
        an anti-edge exercises label filtering and the anti-edge kernels
        in the workers all at once — first on the default path, then on
        the spawn + ``.rgx`` path.
        """
        g = with_random_labels(erdos_renyi(50, 0.18, seed=12), 3, seed=7)
        p = Pattern.from_edges([(0, 1), (1, 2)], anti_edges=[(0, 2)])
        p.set_label(1, 1)
        expected = count(g, p, engine="reference")
        got = process_count(g, p, num_processes=3, schedule=schedule)
        assert got == expected, ("default", schedule)
        monkeypatch.setattr(parallel, "_fork_available", lambda: False)
        got = process_count(g, p, num_processes=3, schedule=schedule)
        assert got == expected, ("spawn", schedule)


def _fail_to_start(self):
    raise OSError("no more processes")


class TestProcessCountFailurePaths:
    """Failed or crashed runs must not leak spill files or graph state."""

    @pytest.mark.parametrize("many", [False, True], ids=["single", "many"])
    def test_in_process_fallback_pins_nothing(self, monkeypatch, many):
        # When no worker can start, the runner drains in-process; that
        # run must not leave the graph's view (or plan, or ledger) bound
        # anywhere once the caller drops its session.
        import gc
        import multiprocessing.process
        import weakref

        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", _fail_to_start
        )
        g = erdos_renyi(50, 0.2, seed=8)
        session = MiningSession(g)
        view_ref = weakref.ref(session.view)
        if many:
            motifs = generate_all_vertex_induced(3)
            expected = MiningSession(g).count_many(motifs, edge_induced=False)
            got = process_count_many(
                session, motifs, num_processes=2, edge_induced=False
            )
        else:
            expected = count(g, generate_clique(3))
            got = process_count(session, generate_clique(3), num_processes=2)
        assert got == expected
        del session, g
        gc.collect()
        assert view_ref() is None

    @pytest.mark.parametrize("schedule", ["dynamic", "static"])
    def test_mmap_spill_unlinked_when_worker_raises(
        self, monkeypatch, schedule
    ):
        from repro.runtime import parallel as parallel_module

        monkeypatch.setattr(parallel_module, "_fork_available", lambda: False)
        g = erdos_renyi(40, 0.2, seed=3)
        recorded: list[str] = []
        original = parallel_module._rgx_store

        def recording(session):
            path, is_temp = original(session)
            assert is_temp  # generated graph: must spill, not reuse
            recorded.append(path)
            return path, is_temp

        monkeypatch.setattr(parallel_module, "_rgx_store", recording)
        # Every spawned worker dies on its first lease; with no retries
        # the run gives up after one round.
        monkeypatch.setenv(parallel.FAULT_ENV, "*:*")
        monkeypatch.setattr(parallel_module, "MAX_CHUNK_RETRIES", 0)
        with pytest.raises(WorkerCrashError):
            process_count(
                g, generate_clique(3), num_processes=2, schedule=schedule
            )
        assert recorded, "spawn path spilled no store"
        for path in recorded:
            assert not os.path.exists(path)

    def test_mmap_spill_unlinked_on_success_too(self, monkeypatch):
        from repro.runtime import parallel as parallel_module

        monkeypatch.setattr(parallel_module, "_fork_available", lambda: False)
        g = erdos_renyi(40, 0.2, seed=4)
        recorded: list[str] = []
        original = parallel_module._rgx_store

        def recording(session):
            path, is_temp = original(session)
            recorded.append(path)
            return path, is_temp

        monkeypatch.setattr(parallel_module, "_rgx_store", recording)
        expected = count(g, generate_clique(3))
        assert process_count(g, generate_clique(3), num_processes=2) == expected
        assert recorded
        for path in recorded:
            assert not os.path.exists(path)

    def test_mmap_reuses_degree_sorted_store_file(self, tmp_path, monkeypatch):
        """A degree-ordered .rgx-backed session shares its own file with
        spawned workers instead of spilling a copy."""
        monkeypatch.setattr(parallel, "_fork_available", lambda: False)
        from repro.core import MiningSession
        from repro.graph import save_mmap
        from repro.graph.binary_io import GraphStore
        from repro.runtime.parallel import _rgx_store

        g = erdos_renyi(50, 0.2, seed=6)
        ordered, _ = g.degree_ordered()
        path = tmp_path / "ordered.rgx"
        save_mmap(ordered, path)
        session = MiningSession(GraphStore(path))
        got_path, is_temp = _rgx_store(session)
        assert not is_temp
        assert got_path == str(path)
        expected = count(g, generate_clique(3))
        assert process_count(
            session, generate_clique(3), num_processes=2
        ) == expected
        assert path.exists()  # reused files are never unlinked


class TestProcessCountMany:
    @pytest.mark.parametrize("schedule", ["dynamic", "static"])
    @pytest.mark.parametrize("sharing", SHARING, indirect=True)
    def test_census_pins_sequential(self, schedule, sharing):
        g = erdos_renyi(70, 0.12, seed=8)
        motifs = generate_all_vertex_induced(3)
        expected = MiningSession(g).count_many(motifs, edge_induced=False)
        got = process_count_many(
            g,
            motifs,
            num_processes=3,
            edge_induced=False,
            schedule=schedule,
        )
        assert got == expected

    def test_label_pinned_groups_partition_correctly(self):
        """Patterns with distinct pinned start labels form distinct
        frontier groups; chunked workers must still demultiplex each
        pattern's count exactly."""
        from repro.pattern import generate_chain

        g = with_random_labels(erdos_renyi(60, 0.15, seed=9), 3, seed=2)
        patterns = []
        for lab in range(3):
            p = generate_chain(3)
            p.set_label(0, lab)
            p.set_label(1, (lab + 1) % 3)
            p.set_label(2, (lab + 2) % 3)
            patterns.append(p)
        patterns.append(generate_clique(3))  # unlabeled group
        session = MiningSession(g)
        expected = session.count_many(patterns)
        for schedule in ("dynamic", "static"):
            got = process_count_many(
                g, patterns, num_processes=2, schedule=schedule, chunk_hint=2
            )
            assert got == expected, schedule

    def test_session_verb_routes_processes(self):
        g = erdos_renyi(60, 0.12, seed=11)
        motifs = generate_all_vertex_induced(3)
        session = MiningSession(g)
        expected = session.count_many(motifs, edge_induced=False)
        got = session.count_many(
            motifs, edge_induced=False, num_processes=2
        )
        assert got == expected

    def test_frontier_chunk_forwarded_to_workers(self, monkeypatch, tmp_path):
        # A pathological chunk bound must change nothing but memory use.
        g = erdos_renyi(50, 0.15, seed=15)
        motifs = generate_all_vertex_induced(3)
        session = MiningSession(g)
        expected = session.count_many(motifs, edge_induced=False)
        got = session.count_many(
            motifs, edge_induced=False, num_processes=2, frontier_chunk=2
        )
        assert got == expected
        if not parallel._fork_available():
            return
        # A guard downgrade tightens the frontier chunk of single-pattern
        # runs too: forked workers (which inherit this patch) log the
        # chunk bound each fused call receives.
        from repro.core import accel
        from repro.runtime import guards

        log = tmp_path / "chunks.log"
        original = accel.fused_run

        def logging_fused_run(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{kwargs.get('chunk')}\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(accel, "fused_run", logging_fused_run)
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        p = generate_clique(3)
        got = process_count(g, p, num_processes=2, guard="downgrade")
        assert got == count(g, p)
        assert log.exists(), "no worker ran a fused chunk"
        assert set(log.read_text().split()) == {
            str(guards.DOWNGRADE_FRONTIER_CHUNK)
        }

    def test_session_verb_rejects_hooks_under_processes(self):
        from repro.errors import MatchingError

        g = erdos_renyi(30, 0.2, seed=12)
        session = MiningSession(g)
        with pytest.raises(MatchingError):
            session.count_many(
                [generate_clique(3)],
                num_processes=2,
                control=ExplorationControl(),
            )
        with pytest.raises(MatchingError):
            session.count_many(
                [generate_clique(3)], num_processes=2, engine="reference"
            )

    def test_single_process_falls_back_to_sequential(self):
        g = erdos_renyi(40, 0.15, seed=13)
        motifs = generate_all_vertex_induced(3)
        assert process_count_many(
            g, motifs, num_processes=1, edge_induced=False
        ) == MiningSession(g).count_many(motifs, edge_induced=False)


class TestFaultInjection:
    """Deterministic crash tolerance via the REPRO_FAULT_WORKER_DIE knob.

    The spec is ``worker:chunk`` (either side ``"*"``): the matching
    worker calls ``os._exit(1)`` right after leasing the matching chunk,
    before running it.  Worker ids increment across respawn rounds, so a
    pinned-worker spec ("0:0") fires once and the requeued chunk lands
    on a fresh id — the recovery path — while a pinned-chunk spec
    ("*:1") kills every worker that ever leases chunk 1 and exhausts
    the retry budget — the poison path.
    """

    PATTERN_KW = dict(num_processes=2, schedule="dynamic", chunk_hint=4)

    def _graph_and_expected(self):
        g = erdos_renyi(60, 0.15, seed=6)
        return g, count(g, generate_clique(3))

    @pytest.mark.parametrize(
        "sharing, schedule",
        [
            ("fork", "dynamic"),
            ("mmap", "dynamic"),
            ("fork", "static"),
            ("mmap", "static"),
        ],
        ids=["fork", "mmap", "fork-static", "mmap-static"],
        indirect=["sharing"],
    )
    def test_worker_death_recovers_to_exact_count(
        self, sharing, schedule, monkeypatch
    ):
        # Under static, chunk 0 is worker 0's whole stride slice: its
        # death requeues the slice onto a fresh worker.
        g, expected = self._graph_and_expected()
        monkeypatch.setenv(parallel.FAULT_ENV, "0:0")
        kw = dict(self.PATTERN_KW, schedule=schedule)
        assert process_count(g, generate_clique(3), **kw) == expected

    def test_always_dying_worker_id_still_recovers(self, monkeypatch):
        # "0:*" kills worker id 0 on its first lease; every later spawn
        # gets a fresh id, so the whole frontier still completes exactly.
        g, expected = self._graph_and_expected()
        monkeypatch.setenv(parallel.FAULT_ENV, "0:*")
        got = process_count(g, generate_clique(3), **self.PATTERN_KW)
        assert got == expected

    def test_poison_chunk_exhausts_retries(self, monkeypatch):
        g, expected = self._graph_and_expected()
        monkeypatch.setenv(parallel.FAULT_ENV, "*:1")
        with pytest.raises(WorkerCrashError) as info:
            process_count(g, generate_clique(3), **self.PATTERN_KW)
        partial = info.value.partial
        assert partial.truncated
        assert partial.detail["failed_chunks"] == [1]
        # Every chunk except the poisoned one was still counted exactly.
        assert 0 < partial < expected

    def test_static_poison_slice_exhausts_retries(self, monkeypatch):
        # Static runs lease their stride slices on the same board, so a
        # slice that kills every worker is reported, not lost or hung.
        g, expected = self._graph_and_expected()
        monkeypatch.setenv(parallel.FAULT_ENV, "*:1")
        with pytest.raises(WorkerCrashError) as info:
            process_count(
                g, generate_clique(3), num_processes=2, schedule="static"
            )
        partial = info.value.partial
        assert partial.detail["failed_chunks"] == [1]
        assert partial.detail["num_chunks"] == 2
        assert 0 < partial < expected

    def test_mmap_spill_cleaned_up_after_recovery(self, monkeypatch):
        from repro.runtime import parallel as parallel_module

        monkeypatch.setattr(parallel_module, "_fork_available", lambda: False)
        g, expected = self._graph_and_expected()
        recorded: list[str] = []
        original = parallel_module._rgx_store

        def recording(session):
            path, is_temp = original(session)
            if is_temp:
                recorded.append(path)
            return path, is_temp

        monkeypatch.setattr(parallel_module, "_rgx_store", recording)
        monkeypatch.setenv(parallel.FAULT_ENV, "0:0")
        got = process_count(g, generate_clique(3), **self.PATTERN_KW)
        assert got == expected
        assert recorded  # a temp spill happened...
        for path in recorded:
            assert not os.path.exists(path)  # ...and was unlinked

    def test_count_many_recovers_to_exact_totals(self, monkeypatch):
        g = erdos_renyi(40, 0.2, seed=5)
        patterns = generate_all_vertex_induced(3)
        expected = {
            p: count(g, p, edge_induced=False) for p in patterns
        }
        monkeypatch.setenv(parallel.FAULT_ENV, "0:0")
        got = process_count_many(
            g,
            patterns,
            num_processes=2,
            edge_induced=False,
            schedule="dynamic",
            chunk_hint=4,
        )
        assert got == expected

    def test_malformed_fault_spec_rejected(self, monkeypatch):
        g, _ = self._graph_and_expected()
        monkeypatch.setenv(parallel.FAULT_ENV, "nonsense")
        with pytest.raises(ValueError, match="worker:chunk"):
            process_count(g, generate_clique(3), **self.PATTERN_KW)


class TestCancellation:
    def test_pre_stopped_cancel_raises_with_all_chunks_pending(self):
        g = erdos_renyi(60, 0.15, seed=6)
        with pytest.raises(QueryCancelledError) as info:
            process_count(
                g,
                generate_clique(3),
                num_processes=2,
                schedule="dynamic",
                chunk_hint=4,
                cancel=DeadlineControl(0.0),
            )
        partial = info.value.partial
        assert partial == 0
        assert partial.truncated
        assert partial.detail["pending_chunks"] > 0
        assert partial.detail["pending_chunks"] == partial.detail["num_chunks"]

    def test_unstopped_cancel_changes_nothing(self):
        g = erdos_renyi(60, 0.15, seed=6)
        expected = count(g, generate_clique(3))
        got = process_count(
            g,
            generate_clique(3),
            num_processes=2,
            schedule="dynamic",
            cancel=ExplorationControl(),
        )
        assert got == expected

    def test_static_schedule_is_cancellable(self):
        # Static runs drain the same lease board: one stride-slice chunk
        # per worker, every one still pending when the cancel fires.
        g = erdos_renyi(30, 0.2, seed=6)
        with pytest.raises(QueryCancelledError) as info:
            process_count(
                g,
                generate_clique(3),
                num_processes=2,
                schedule="static",
                cancel=DeadlineControl(0.0),
            )
        partial = info.value.partial
        assert partial == 0
        assert partial.truncated
        assert partial.detail["pending_chunks"] == 2
        assert partial.detail["num_chunks"] == 2


class TestAggregatorThread:
    def test_merges_local_values(self):
        global_agg = Aggregator()
        locals_ = [Aggregator(), Aggregator()]
        locals_[0].map_pattern("x", 2)
        locals_[1].map_pattern("x", 3)
        with AggregatorThread(global_agg, locals_, interval=0.001):
            time.sleep(0.02)
        assert global_agg.get("x") == 5

    def test_on_update_hook_runs(self):
        global_agg = Aggregator()
        local = Aggregator()
        local.map_pattern("k", 1)
        seen = []
        t = AggregatorThread(
            global_agg, [local], interval=0.001, on_update=lambda a: seen.append(a.get("k"))
        )
        t.start()
        time.sleep(0.02)
        t.stop()
        assert seen and seen[-1] == 1


class TestTerminationHelpers:
    def test_stop_after_n(self):
        control = ExplorationControl()
        calls = []
        cb = stop_after_n_matches(control, 3, inner=calls.append)
        from repro.core import Match
        from repro.pattern import Pattern

        m = Match(Pattern.from_edges([(0, 1)]), (0, 1))
        for _ in range(3):
            cb(m)
        assert control.stopped
        assert len(calls) == 3

    def test_stop_when_aggregate(self):
        control = ExplorationControl()
        agg = Aggregator()
        hook = stop_when_aggregate(control, "n", lambda v: v >= 10)
        agg.map_pattern("n", 5)
        hook(agg)
        assert not control.stopped
        agg.map_pattern("n", 5)
        hook(agg)
        assert control.stopped

    def test_deadline_control(self):
        c = DeadlineControl(0.01)
        assert not c.stopped
        time.sleep(0.02)
        assert c.stopped


class TestAggregator:
    def test_custom_combine(self):
        agg = Aggregator(combine=max)
        agg.map_pattern("k", 3)
        agg.map_pattern("k", 1)
        assert agg.get("k") == 3

    def test_merge_from_drains_source(self):
        a, b = Aggregator(), Aggregator()
        b.map_pattern("k", 4)
        a.merge_from(b)
        assert a.get("k") == 4
        assert len(b) == 0

    def test_result_snapshot(self):
        agg = Aggregator()
        agg.map_pattern("a", 1)
        snap = agg.result()
        agg.map_pattern("b", 2)
        assert snap == {"a": 1}
        assert agg.keys() == ["a", "b"]
