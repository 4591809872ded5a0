"""Adaptive-planner benchmark: one probe vs the fixed defaults, per cell.

The adaptive planner (``plan="auto"``) spends the admission probe's
measurements on schedule, chunking, worker and approximate-tier choices;
the fixed baseline (``plan="fixed"``) keeps the static defaults.  Both
run the same engine — the frontier-batched one, the ``engine="auto"``
default on every graph — so each cell also times the reference
interpreter to pin the default engine's margin over it.

The sweep crosses frontier density (sparse / dense), pattern size
(small / large) and degree distribution (uniform / power-law), plus a
near-forest graph hiding a dense fully-labeled core.  The two
``sparse-uniform`` cells and the labeled-core cell sit below the retired
average-degree-2.0 cutoff that used to send the default to the
interpreter.  Timings are warm (probe cached on the session,
best-of-rounds) and every cell asserts count parity across all three
arms.

Acceptance (pinned in ``tests/test_bench_schema.py``): adaptive never
loses a cell by more than 5% (``speedup >= 0.95``), and the default is
at least 4x the interpreter on every cell
(``default_speedup_vs_reference >= 4``).

Run the full measurement (writes ``BENCH_planner.json``)::

    python -m pytest benchmarks/bench_planner.py -q -s

The ``fast``-marked smoke is part of the CI benchmark matrix.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from benchmarks.common import timed

from repro.core.session import MiningSession
from repro.graph.builder import from_edges
from repro.graph.generators import erdos_renyi, power_law
from repro.pattern.generators import generate_chain, generate_clique
from repro.runtime import planner

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_planner.json"

# fixed and auto run the same engine, so their ratio is host noise
# around 1.0: nine rounds, alternating which arm goes first, keep
# best-of noise inside the 5% gate on a shared host.  The interpreter
# arm only needs to clear a 4x gate and is slow on the large cells, so
# it runs fewer rounds, after the others.
ROUNDS = 9
REFERENCE_ROUNDS = 3


def hub_core_graph(core: int = 300, tail: int = 8000, p: float = 0.15,
                   seed: int = 42):
    """A dense labeled core drowned in unlabeled isolated vertices.

    Global average degree stays below 2 while the label-1 frontier — the
    only starts a fully-labeled clique query visits — is ~``core * p``
    dense: a global density statistic and the query's own frontier
    disagree here.
    """
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(core)
        for j in range(i + 1, core)
        if rng.random() < p
    ]
    labels = [1] * core + [0] * tail
    return from_edges(edges, labels=labels, num_vertices=core + tail,
                      name="hub-core")


def labeled_clique(k: int):
    pattern = generate_clique(k)
    for u in range(k):
        pattern.set_label(u, 1)
    return pattern


def sweep_cells():
    """name -> (graph, pattern): density x pattern size x distribution."""
    sparse = erdos_renyi(12_000, 1.6 / 11_999, seed=3, name="sparse-uniform")
    dense = erdos_renyi(2_500, 0.012, seed=5, name="dense-uniform")
    skewed = power_law(8_000, gamma=2.1, d_min=4, seed=7, name="power-law")
    return {
        "sparse-uniform-small": (sparse, generate_clique(3)),
        "sparse-uniform-large": (sparse, generate_chain(4)),
        "dense-uniform-small": (dense, generate_clique(3)),
        "dense-uniform-large": (dense, generate_clique(4)),
        "powerlaw-small": (skewed, generate_clique(3)),
        "powerlaw-large": (skewed, generate_clique(4)),
        "skewed-labeled-core": (hub_core_graph(), labeled_clique(3)),
    }


def _measure_cell(graph, pattern) -> dict:
    """Warm fixed/auto/interpreter timings for one cell, count parity."""
    session = MiningSession(graph)
    fixed_count = session.count(pattern, plan="fixed")  # warm plan + CSR
    auto_count = session.count(pattern, plan="auto")  # warm probe cache
    assert auto_count == fixed_count
    chosen = session.last_query_plan
    fixed_engine = session._prepare(pattern, session.options())[2]
    rounds = {"fixed": [], "auto": []}
    for i in range(ROUNDS):
        for mode in ("fixed", "auto") if i % 2 == 0 else ("auto", "fixed"):
            elapsed, got = timed(lambda: session.count(pattern, plan=mode))
            assert got == fixed_count
            rounds[mode].append(elapsed)
    reference_rounds = []
    for _ in range(REFERENCE_ROUNDS):
        elapsed, got = timed(lambda: session.count(pattern, engine="reference"))
        assert got == fixed_count
        reference_rounds.append(elapsed)
    fixed_best = min(rounds["fixed"])
    auto_best = min(rounds["auto"])
    reference_best = min(reference_rounds)
    estimate = chosen.estimate
    return {
        "n": graph.num_vertices,
        "edges": graph.num_edges,
        "pattern_vertices": pattern.num_vertices,
        "matches": int(fixed_count),
        "rounds": ROUNDS,
        "reference_rounds": REFERENCE_ROUNDS,
        "fixed_engine": fixed_engine,
        "auto_engine": chosen.engine,
        "auto_schedule": chosen.schedule,
        "probe": {
            "frontier_size": estimate.frontier_size,
            "avg_expansion": estimate.avg_expansion,
            "level1_volume": estimate.level1_volume,
            "hub_skew": estimate.hub_skew,
        },
        "fixed_seconds": fixed_best,
        "auto_seconds": auto_best,
        "reference_seconds": reference_best,
        "speedup": fixed_best / auto_best,
        "default_speedup_vs_reference": reference_best / fixed_best,
    }


@pytest.mark.fast
@pytest.mark.paper_artifact("planner")
def test_planner_smoke():
    """CI smoke: adaptive plans keep exact counts on both regimes."""
    dense = MiningSession(erdos_renyi(200, 0.1, seed=2))
    pattern = generate_clique(3)
    assert dense.count(pattern, plan="auto") == dense.count(
        pattern, plan="fixed"
    )
    assert dense.last_query_plan.engine == "accel-batch"

    core = MiningSession(hub_core_graph(core=60, tail=600))
    labeled = labeled_clique(3)
    expected = core.count(labeled, engine="reference")
    assert core.count(labeled, plan="auto") == expected
    assert core.count(labeled, plan="fixed") == expected
    # A near-forest graph still runs the batched engine under both plans.
    assert core.ordered.avg_degree() < 2.0
    assert core.last_query_plan.engine == "accel-batch"
    assert planner.plan_query(core, labeled).engine == "accel-batch"


@pytest.mark.paper_artifact("planner")
def test_planner_emits_json(capsys):
    """Full sweep: adaptive ties fixed, the default beats the interpreter."""
    cells = {}
    for name, (graph, pattern) in sweep_cells().items():
        cells[name] = _measure_cell(graph, pattern)

    speedups = {name: cell["speedup"] for name, cell in cells.items()}
    vs_reference = {
        name: cell["default_speedup_vs_reference"]
        for name, cell in cells.items()
    }
    payload = {
        "bench": "planner",
        "rounds_per_cell": ROUNDS,
        "note": (
            "Adaptive planner (plan='auto': one bounded probe chooses "
            "schedule, chunking and workers per query) against the "
            "fixed baseline (plan='fixed': static defaults); both run "
            "the frontier-batched default engine, and each cell also "
            "times the reference interpreter (engine='reference').  "
            "Warm best-of-rounds session.count timings, count parity "
            "asserted per round; speedup = fixed_seconds / "
            "auto_seconds, default_speedup_vs_reference = "
            "reference_seconds / fixed_seconds.  The sweep crosses "
            "frontier density, pattern size and degree distribution; "
            "the sparse-uniform cells (avg degree ~1.6) and "
            "'skewed-labeled-core' (a near-forest graph hiding a dense "
            "fully-labeled core) sit below the retired 2.0 degree "
            "cutoff.  Acceptance: speedup >= 0.95 and "
            "default_speedup_vs_reference >= 4 on every cell."
        ),
        "cells": cells,
        "acceptance": {
            "min_speedup": min(speedups.values()),
            "max_speedup": max(speedups.values()),
            "min_default_speedup_vs_reference": min(vs_reference.values()),
            "max_default_speedup_vs_reference": max(vs_reference.values()),
        },
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print("\n=== adaptive planner vs fixed defaults vs interpreter ===")
        for name, cell in cells.items():
            print(
                f"{name:24s} {cell['auto_engine']:11s} fixed "
                f"{cell['fixed_seconds'] * 1e3:8.2f}ms auto "
                f"{cell['auto_seconds'] * 1e3:8.2f}ms reference "
                f"{cell['reference_seconds'] * 1e3:8.2f}ms "
                f"x{cell['speedup']:.3f} "
                f"ref-x{cell['default_speedup_vs_reference']:.1f}"
            )
        print(f"wrote {OUTPUT_PATH}")
