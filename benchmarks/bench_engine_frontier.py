"""Frontier-batched engine benchmark: avg-degree sweep + perf baseline.

Compares the two engines — the reference interpreter and the
frontier-batched production engine (``accel-batch``, what
``engine="auto"`` runs) — across an average-degree sweep, and writes the
machine-readable timings to ``BENCH_engine.json`` at the repo root so
future PRs have a baseline to regress against.  Frontier batching
amortizes numpy dispatch across whole match levels, so the batched
engine wins on every row, near-forest graphs (avg degree 1 and 1.5)
included, and on single-vertex-core patterns, whose tail count it
vectorizes per frontier row.  This sweep is the evidence that no
density threshold is needed to choose an engine.

Run the full sweep (writes ``BENCH_engine.json``, prints the table)::

    python -m pytest benchmarks/bench_engine_frontier.py -q -s

The ``fast``-marked smoke test is wired into CI so this harness cannot
silently rot.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.common import timed

from repro.core import count
from repro.graph import erdos_renyi
from repro.pattern import Pattern, generate_chain, generate_clique

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_engine.json"

ENGINES = ("reference", "accel-batch")
SWEEP_N = 600
SWEEP_DEGREES = (1, 1.5, 2, 4, 8, 16, 32, 64, 128)
ROUNDS = 3

# One pattern per work regime: core-intersection dominated (clique),
# mixed core+completion (tailed triangle), and tail-count dominated
# (single-vertex-core chain).
PATTERNS = {
    "triangle": lambda: generate_clique(3),
    "tailed-triangle": lambda: Pattern.from_edges(
        [(0, 1), (1, 2), (2, 0), (2, 3)]
    ),
    "chain-3": lambda: generate_chain(3),
}

MULTI_CORE_PATTERNS = ("triangle", "tailed-triangle")


def _sweep_graph(avg_degree: float, n: int = SWEEP_N, seed: int = 7):
    return erdos_renyi(n, min(1.0, avg_degree / (n - 1)), seed=seed)


def _time_engines(graph, pattern) -> dict:
    """Per-engine best-of-rounds wall time and count; counts must agree."""
    count(graph, pattern, engine="accel-batch")  # warm CSR view + keys
    entry = {}
    counts = {}
    for engine in ENGINES:
        runs = [
            timed(lambda: count(graph, pattern, engine=engine))
            for _ in range(ROUNDS)
        ]
        entry[f"{engine}_seconds"] = min(seconds for seconds, _ in runs)
        counts[engine] = runs[0][1]
    assert len(set(counts.values())) == 1, f"engine disagreement: {counts}"
    entry["matches"] = counts["reference"]
    entry["batch_speedup_vs_reference"] = (
        entry["reference_seconds"] / entry["accel-batch_seconds"]
        if entry["accel-batch_seconds"] > 0
        else float("inf")
    )
    return entry


@pytest.mark.fast
@pytest.mark.paper_artifact("engine-frontier")
def test_frontier_smoke():
    """CI smoke: both engines run and agree on small sparse graphs."""
    for degree in (1.5, 8):
        g = _sweep_graph(degree, n=150)
        for name, pattern_fn in PATTERNS.items():
            p = pattern_fn()
            expected = count(g, p, engine="reference")
            assert count(g, p) == expected, name
            assert count(g, p, engine="accel-batch") == expected, name
            assert count(
                g, p, engine="accel-batch", frontier_chunk=64
            ) == expected


@pytest.mark.paper_artifact("engine-frontier")
def test_frontier_sweep_emits_json(capsys):
    """Full sweep: the batched engine beats the interpreter on every row."""
    results = []
    for name, pattern_fn in PATTERNS.items():
        pattern = pattern_fn()
        for degree in SWEEP_DEGREES:
            graph = _sweep_graph(degree)
            entry = _time_engines(graph, pattern)
            entry.update(
                pattern=name,
                multi_vertex_core=name in MULTI_CORE_PATTERNS,
                avg_degree_target=degree,
                avg_degree=round(graph.avg_degree(), 2),
                n=SWEEP_N,
            )
            results.append(entry)

    payload = {
        "bench": "engine-frontier",
        "n": SWEEP_N,
        "engines": list(ENGINES),
        "rounds": ROUNDS,
        "note": (
            "Best-of-rounds wall-clock seconds per engine for count() "
            "across an erdos_renyi avg-degree sweep (n=600).  "
            "accel-batch is the engine='auto' default on every graph; "
            "the avg-degree 1 and 1.5 rows sit below the retired 2.0 "
            "cutoff that used to route such graphs to the interpreter."
        ),
        "results": results,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print("\n=== engine frontier sweep (seconds) ===")
        header = f"{'pattern':<16} {'deg':>4} {'matches':>10}"
        header += "".join(f" {engine:>11}" for engine in ENGINES)
        header += f" {'batch-x':>8}"
        print(header)
        for row in results:
            line = (
                f"{row['pattern']:<16} {row['avg_degree_target']:>4}"
                f" {row['matches']:>10,}"
            )
            for engine in ENGINES:
                line += f" {row[f'{engine}_seconds']:>11.4f}"
            line += f" {row['batch_speedup_vs_reference']:>7.1f}x"
            print(line)
        print(f"wrote {OUTPUT_PATH}")

    # Acceptance: the default engine beats the interpreter on every row,
    # including the near-forest rows below the retired 2.0 cutoff.
    losses = [
        (row["pattern"], row["avg_degree_target"])
        for row in results
        if row["batch_speedup_vs_reference"] <= 1.0
    ]
    assert not losses, f"batched engine lost to the interpreter on {losses}"
