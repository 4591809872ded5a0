"""Seeded benchmark inputs: graph stores, request streams, reference answers.

Everything a run feeds the program is derived from the workload seed and
written under ``.perfbench/inputs/<scale>-seed<N>/`` in the checkout:

* graphs as degree-sorted ``.rgx`` stores (the program only ever opens
  these files);
* for ``service-http``, the request mix as a JSON list of envelopes;
* ``manifest.json`` with the store paths, the task parameters and the
  reference answers.

Reference answers come from a route independent of the one the workload
times: the interpreter (``engine="reference"``) on the small and sparse
graphs, and sequential one-pattern-at-a-time ``engine="accel-batch"``
counts on the large ones (no fusion, no Möbius census, no processes).
They are computed once per seed, before any timed region, and cached
with the stores.

The skewed graphs (and the mid-size census graph, a stand-in for
``barabasi_albert(1000, 4)`` with the same exponent 3 and minimum
degree 4) draw their degree sequence by inverse-CDF quantiles instead
of random draws, then wire stubs with the seeded RNG.  With ``gamma``
near 2 a random degree draw decides on its own how many cliques the top
hubs hold, so clique counts (and run times) swing by a third between
seeds; fixing the sequence leaves only the wiring random and keeps the
work per seed within about ten percent.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time

from repro.bitmap import RoaringBitmap
from repro.cli.parsing import parse_pattern_spec
from repro.core import MiningSession
from repro.graph import (
    from_edges,
    power_law,
    save_mmap,
    with_random_labels,
)
from repro.mining import fsm
from repro.pattern import generate_all_vertex_induced
from repro.pattern.canonical import canonical_permutation
from workload import request_key

WORKLOADS = ("census", "labeled-fsm", "service-http")

# Reference answers for the default seed (0) at full scale.
COMMITTED = os.path.join(os.path.dirname(__file__), "expected_seed0.json")

# Graph sizes per scale.  "full" is the benchmark; "tiny" is the smoke
# test scale (same code paths, answers in milliseconds).
SIZES = {
    "full": {
        "skewed": (6000, 2.1, 4, 400),  # n, gamma, d_min, d_max
        "mid": (1000, 3.0, 4, 999),  # gamma 3, d_min 4: barabasi_albert(1000, 4)
        "sparse": 8000,  # power_law(n, gamma=3.5, d_min=1)
        "labeled": (6000, 2.5, 2, 25),
        "num_labels": 6,
        "fsm_rank": 6,
        "service": (3000, 2.3, 2, 300),
        "service_sparse": 3000,
    },
    "tiny": {
        "skewed": (300, 2.1, 3, 60),
        "mid": (120, 3.0, 3, 119),
        "sparse": 600,
        "labeled": (300, 2.5, 2, 30),
        "num_labels": 3,
        "fsm_rank": 3,
        "service": (300, 2.3, 2, 60),
        "service_sparse": 600,
    },
}

# approx_count answers must land within this multiple of the requested
# relative error of the exact count.
APPROX_TOLERANCE = 3.0

# One cycle of the service-http request mix: (verb, graph, fields,
# copies per cycle).  Each client walks the cycle in a seeded order.
# Two latency bands, each percentile inside one: the power-graph verbs
# (17 of 24; all but the two matches cost about the same) hold p50, the
# interpreter counts on the sparse graph (6 of 24) hold p90.  The sparse graph is small so those counts hold the GIL
# for well under a fifth of a cycle: a larger one slowed about half of
# the other client's fast requests and put p50 on the edge between the
# two modes.  Hub-heavy patterns (star:4, cycle:4) are left out: their
# cost swings with the seed.
SERVICE_MIX = (
    ("count", "power", {"pattern": "clique:3"}, 9),
    ("count", "power", {"pattern": "clique:3", "options": {"guard": "refuse"}}, 2),
    ("count", "power", {"pattern": "clique:3", "options": {"plan": "auto"}}, 2),
    ("exists", "power", {"pattern": "clique:4"}, 1),
    ("match", "power", {"pattern": "clique:3", "limit": 10}, 2),
    ("approx_count", "power", {"pattern": "clique:3", "rel_err": 0.1}, 1),
    ("motifs", "power", {"size": 3}, 1),
    ("count", "sparse", {"pattern": "clique:3"}, 5),
    ("count", "sparse", {"pattern": "chain:3"}, 1),
)


def skewed_power_law(n: int, gamma: float, d_min: int, d_max: int, seed: int):
    """Configuration-model graph with a quantile power-law degree sequence."""
    inv = 1.0 / (gamma - 1.0)
    degrees = [
        min(max(int(d_min * ((i + 0.5) / n) ** -inv), d_min), d_max)
        for i in range(n)
    ]
    if sum(degrees) % 2:
        degrees[-1] += 1
    rng = random.Random(seed)
    stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
    rng.shuffle(stubs)
    edges = {
        (min(u, v), max(u, v))
        for u, v in zip(stubs[::2], stubs[1::2])
        if u != v
    }
    return from_edges(sorted(edges), num_vertices=n, name="skewed-power-law")


def _store(graph, path: str) -> None:
    ordered, _ = graph.degree_ordered()
    save_mmap(ordered, path)


def _count(session: MiningSession, spec: str) -> int:
    return int(session.count(parse_pattern_spec(spec)))


def motif_code(pattern) -> str:
    """JSON-safe structural key of a motif (its canonical code)."""
    return repr(canonical_permutation(pattern)[0])


def fsm_key(pattern) -> str:
    """JSON-safe key of one frequent labeled pattern."""
    return repr(pattern.signature())


def fsm_table(result) -> dict:
    """``{size: {pattern key: support}}`` of an :class:`FSMResult`."""
    return {
        str(size): {fsm_key(p): s for p, s in sorted(
            table.items(), key=lambda item: fsm_key(item[0])
        )}
        for size, table in result.frequent_by_size.items()
    }


def edge_spec(pattern) -> str:
    """The motif key the service's ``motifs`` verb answers with."""
    return "edges:" + ",".join(f"{u}-{v}" for u, v in pattern.edges())


def _motif_reference(session: MiningSession, size: int, engine: str) -> list:
    """Per-motif vertex-induced counts, one pattern at a time."""
    return [
        (motif, int(session.count(motif, edge_induced=False, engine=engine)))
        for motif in generate_all_vertex_induced(size)
    ]


# ----------------------------------------------------------------------
# Per-workload inputs
# ----------------------------------------------------------------------


def _build_census(sizes: dict, seed: int, root: str) -> dict:
    skewed = skewed_power_law(*sizes["skewed"], seed=seed)
    mid = skewed_power_law(*sizes["mid"], seed=seed)
    sparse = power_law(sizes["sparse"], gamma=3.5, d_min=1, seed=seed)
    stores = {}
    for name, graph in (("skewed", skewed), ("mid", mid), ("sparse", sparse)):
        stores[name] = os.path.join(root, f"{name}.rgx")
        _store(graph, stores[name])

    ref = MiningSession(skewed, engine="accel-batch")
    cliques = {k: _count(ref, f"clique:{k}") for k in (3, 4, 5)}
    motif4 = _motif_reference(MiningSession(mid), 4, "accel-batch")
    interp = MiningSession(sparse, engine="reference")
    return {
        "stores": stores,
        "expected": {
            "clique3": cliques[3],
            "clique4": cliques[4],
            "clique5": cliques[5],
            "exists5": cliques[5] > 0,
            "motif4": {motif_code(m): c for m, c in motif4},
            "sparse_triangles": _count(interp, "clique:3"),
            "sparse_motif3": {
                motif_code(m): c
                for m, c in _motif_reference(interp, 3, "reference")
            },
        },
        "graphs": {
            "skewed": [skewed.num_vertices, skewed.num_edges],
            "mid": [mid.num_vertices, mid.num_edges],
            "sparse": [sparse.num_vertices, sparse.num_edges],
        },
    }


def _build_labeled(sizes: dict, seed: int, root: str) -> dict:
    base = skewed_power_law(*sizes["labeled"], seed=seed)
    graph = with_random_labels(base, sizes["num_labels"], seed=seed)
    store = os.path.join(root, "labeled.rgx")
    _store(graph, store)
    session = MiningSession(graph)
    # Threshold: the support of the fsm_rank-th most frequent 2-edge
    # pattern, so round 3 always extends about the same number of
    # patterns whatever the seed.
    two_edge = fsm(session, 2, 1).frequent_by_size[2]
    supports = sorted(two_edge.values(), reverse=True)
    threshold = supports[min(sizes["fsm_rank"], len(supports)) - 1]
    roaring = fsm(session, 3, threshold, bitset_factory=RoaringBitmap)
    interp = MiningSession(graph, engine="reference")
    return {
        "stores": {"labeled": store},
        "fsm_edges": 3,
        "threshold": threshold,
        "expected": {
            "fsm": fsm_table(roaring),
            "motif3": {
                motif_code(m): c
                for m, c in _motif_reference(interp, 3, "reference")
            },
        },
        "graphs": {"labeled": [graph.num_vertices, graph.num_edges]},
    }


def _service_requests(stores: dict, seed: int) -> list[dict]:
    rng = random.Random(seed)
    cycle = []
    for verb, graph, fields, copies in SERVICE_MIX:
        for _ in range(copies):
            request = {"verb": verb, "graph": stores[graph], **fields}
            if verb == "approx_count":
                request["seed"] = rng.randrange(1 << 16)
            cycle.append(request)
    rng.shuffle(cycle)
    return cycle


def _service_expected(request: dict, sessions: dict) -> dict:
    session = sessions[request["graph"]]
    verb = request["verb"]
    if verb == "motifs":
        engine = session.defaults.engine
        return {
            "counts": {
                edge_spec(m): c
                for m, c in _motif_reference(session, request["size"], engine)
            }
        }
    count = _count(session, request["pattern"])
    if verb == "exists":
        return {"exists": count > 0}
    return {"count": count}


def _build_service(sizes: dict, seed: int, root: str) -> dict:
    power = skewed_power_law(*sizes["service"], seed=seed)
    sparse = power_law(sizes["service_sparse"], gamma=3.5, d_min=1, seed=seed)
    stores = {}
    for name, graph in (("power", power), ("sparse", sparse)):
        stores[name] = os.path.join(root, f"service-{name}.rgx")
        _store(graph, stores[name])
    sessions = {
        stores["power"]: MiningSession(power, engine="accel-batch"),
        stores["sparse"]: MiningSession(sparse, engine="reference"),
    }
    cycle = _service_requests(stores, seed)
    expected = {}
    for request in cycle:
        key = request_key(request)
        if key not in expected:
            expected[key] = _service_expected(request, sessions)
    requests_path = os.path.join(root, "requests.json")
    with open(requests_path, "w") as fh:
        json.dump(cycle, fh, indent=1)
    return {
        "stores": stores,
        "requests": requests_path,
        "expected": expected,
        "approx_tolerance": APPROX_TOLERANCE,
        "graphs": {
            "power": [power.num_vertices, power.num_edges],
            "sparse": [sparse.num_vertices, sparse.num_edges],
        },
    }


def cache_tag() -> str:
    """Digest of this file: inputs built by other code are not reused."""
    with open(__file__, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:8]


def matches_committed(manifest: dict) -> bool:
    """Seed 0 at full scale must reproduce the committed answers."""
    if manifest["scale"] != "full" or manifest["seed"] != 0:
        return True
    with open(COMMITTED) as fh:
        committed = json.load(fh)[manifest["workload"]]
    return all(manifest[key] == value for key, value in committed.items())


_INPUTS = {
    "census": _build_census,
    "labeled-fsm": _build_labeled,
    "service-http": _build_service,
}


def build(workload: str, seed: int, work_dir: str, scale: str = "full") -> dict:
    """Inputs and reference answers for one workload and seed (cached)."""
    root = os.path.join(work_dir, "inputs", f"{scale}-seed{seed}", workload)
    manifest_path = os.path.join(root, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            return json.load(fh)
    os.makedirs(root, exist_ok=True)
    started = time.perf_counter()
    manifest = _INPUTS[workload](SIZES[scale], seed, root)
    manifest.update(
        root=root,
        workload=workload,
        seed=seed,
        scale=scale,
        build_s=time.perf_counter() - started,
    )
    # Written last and renamed into place: a manifest marks a whole build.
    with open(manifest_path + ".tmp", "w") as fh:
        json.dump(manifest, fh, indent=1)
    os.replace(manifest_path + ".tmp", manifest_path)
    return manifest


def write_committed(work_dir: str) -> None:
    """Rebuild seed 0 at full scale and commit its reference answers.

    Run from the checkout root after a deliberate change to the inputs::

        PYTHONPATH=src python3 perfbench/inputs.py
    """
    committed = {}
    for workload in WORKLOADS:
        manifest = build(workload, 0, work_dir)
        entry = {"expected": manifest["expected"]}
        if "threshold" in manifest:
            entry["threshold"] = manifest["threshold"]
        committed[workload] = entry
    with open(COMMITTED, "w") as fh:
        json.dump(committed, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_committed(os.path.join(".perfbench", f"v{cache_tag()}"))
