"""Frequent Subgraph Mining with MNI support and label discovery (§3.2.1).

The FSM loop is the paper's Figure 4a program:

1. start from the unlabeled single-edge pattern;
2. ``match()`` it with *label discovery*: every match's data labels induce
   a labeled pattern, whose per-vertex domains are updated;
3. prune labeled patterns below the support threshold (MNI is
   anti-monotonic, so infrequent patterns cannot have frequent
   extensions);
4. extend the survivors by one edge (new vertices are label wildcards) and
   repeat until patterns have the requested number of edges.

Domains are folded into canonical coordinates via
:func:`~repro.pattern.canonical.canonical_permutation`, so matches of
isomorphic labeled patterns discovered through different extension paths
aggregate into one table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as _np

from ..core.callbacks import Match
from ..core.session import MiningSession, as_session
from ..core.symmetry import orbit_partition
from ..graph.graph import DataGraph
from ..pattern.canonical import canonical_form, canonical_permutation
from ..pattern.extend import extend_by_edge
from ..pattern.pattern import Pattern
from .support import Domain

__all__ = ["FSMResult", "fsm"]


@dataclass
class FSMResult:
    """Outcome of one FSM run.

    ``frequent`` maps each frequent labeled pattern (canonical form) at the
    final size to its MNI support; ``frequent_by_size[k]`` records the
    intermediate rounds.  ``domain_writes`` totals per-vertex domain
    insertions — the aggregation-write metric behind Figure 10's FSM bars —
    and ``domain_bytes`` the peak logical bitmap footprint (Figure 13).
    """

    threshold: int
    num_edges: int
    frequent: dict[Pattern, int] = field(default_factory=dict)
    frequent_by_size: dict[int, dict[Pattern, int]] = field(default_factory=dict)
    patterns_explored: int = 0
    domain_writes: int = 0
    domain_bytes: int = 0

    def total_frequent(self) -> int:
        return len(self.frequent)


def _table_collector(
    structural: Pattern, symmetry_breaking: bool, bitset_factory=None
):
    """Per-structural discovery state: the tables dict and its key fn."""
    tables: dict[tuple, tuple[Pattern, Domain]] = {}
    # Cache per distinct label tuple: (code, order) of the labeled pattern.
    labeling_cache: dict[tuple, tuple[tuple, tuple[int, ...]]] = {}
    n = structural.num_vertices

    def table_key(labels: tuple) -> tuple[tuple, tuple[int, ...]]:
        cached = labeling_cache.get(labels)
        if cached is None:
            labeled = structural.copy()
            for u, lab in enumerate(labels):
                labeled.set_label(u, lab)
            cached = canonical_permutation(labeled)
            labeling_cache[labels] = cached
            code, _ = cached
            if code not in tables:
                canonical = canonical_form(labeled)
                orbits = (
                    orbit_partition(canonical) if symmetry_breaking else None
                )
                tables[code] = (
                    canonical,
                    Domain(n, orbits, bitset_factory=bitset_factory),
                )
        return cached

    return tables, table_key


def _batch_discoverer(
    graph: DataGraph,
    structural: Pattern,
    symmetry_breaking: bool,
    bitset_factory=None,
):
    """``(tables, on_batch)`` for one structural pattern (numpy path).

    Each batch is group-reduced with a vectorized row-``unique`` over the
    matched label tuples, then folded into the domains column-wise — one
    Python call per distinct labeling per batch instead of one per match.
    """
    tables, table_key = _table_collector(
        structural, symmetry_breaking, bitset_factory
    )
    n = structural.num_vertices
    graph_labels = _np.asarray(graph.labels(), dtype=_np.int64)
    # Scalar keys for the row group-by: label tuples are mixed-radix
    # encoded so the per-batch unique runs over 1D int64 (far cheaper
    # than ``np.unique(axis=0)``'s structured sort).
    radix = int(graph_labels.max()) + 1 if graph_labels.size else 1
    # Huge label alphabets could overflow the scalar encoding; the
    # structured-sort unique is the (slower) safe fallback there.
    scalar_keys = (
        radix > 1
        and int(graph_labels.min()) >= 0
        and n * (radix - 1).bit_length() < 62
    )
    powers = radix ** _np.arange(n, dtype=_np.int64) if scalar_keys else None

    def on_batch(mappings) -> None:
        # Group rows by their matched label tuple in one vectorized
        # pass (unique + stable argsort, so each group is one slice),
        # then write each group's columns (canonical order) into its
        # domain table as a batch.
        label_rows = graph_labels[mappings]
        if scalar_keys:
            _, first_row, inverse = _np.unique(
                label_rows @ powers, return_index=True, return_inverse=True
            )
        else:
            _, first_row, inverse = _np.unique(
                label_rows, axis=0, return_index=True, return_inverse=True
            )
        by_group = mappings[_np.argsort(inverse, kind="stable")]
        ends = _np.cumsum(_np.bincount(inverse, minlength=first_row.size))
        start = 0
        for gi, end in enumerate(ends.tolist()):
            labels = tuple(int(lab) for lab in label_rows[first_row[gi]])
            code, order = table_key(labels)
            tables[code][1].update_batch(by_group[start:end, list(order)])
            start = end

    return tables, on_batch


def _discover(
    session: MiningSession,
    structural: Pattern,
    symmetry_breaking: bool,
    bitset_factory=None,
    engine: str | None = None,
) -> dict[tuple, tuple[Pattern, Domain]]:
    """Match one (partially labeled) pattern, grouping by discovered labels.

    Returns ``{canonical code of labeled pattern: (pattern, domain)}``.
    The labeled pattern's canonical permutation is computed lazily per
    distinct labeling, and each match's vertices are written into the
    domains in canonical coordinates.  This is the single-pattern path;
    FSM rounds go through :func:`_discover_round`, which fuses all of a
    round's structural patterns onto one frontier walk.
    """
    return _discover_round(
        session, [structural], symmetry_breaking, bitset_factory, engine
    )[0]


def _discover_round(
    session: MiningSession,
    structurals: list[Pattern],
    symmetry_breaking: bool,
    bitset_factory=None,
    engine: str | None = None,
) -> list[dict[tuple, tuple[Pattern, Domain]]]:
    """Discover labelings for every structural pattern of one FSM round.

    On a labeled graph the round issues a single
    :meth:`~repro.core.session.MiningSession.match_batches_many`: the
    structural patterns share one level-0 frontier walk (they are
    unlabeled, so they always group) and every pattern's matches arrive
    as arrays for the vectorized domain group-by.  Unlabeled graphs take
    the per-match callback path, which computes identical tables.
    """
    if session.graph.labels() is None:
        return _discover_round_per_match(
            session, structurals, symmetry_breaking, bitset_factory, engine
        )
    pairs = [
        _batch_discoverer(session.graph, s, symmetry_breaking, bitset_factory)
        for s in structurals
    ]
    session.match_batches_many(
        structurals,
        [on_batch for _, on_batch in pairs],
        edge_induced=True,
        symmetry_breaking=symmetry_breaking,
        engine=engine,
    )
    return [tables for tables, _ in pairs]


def _discover_round_per_match(
    session: MiningSession,
    structurals: list[Pattern],
    symmetry_breaking: bool,
    bitset_factory=None,
    engine: str | None = None,
) -> list[dict[tuple, tuple[Pattern, Domain]]]:
    """:func:`_discover_round` through one callback per match."""
    graph = session.graph
    results: list[dict[tuple, tuple[Pattern, Domain]]] = []
    for structural in structurals:
        tables, table_key = _table_collector(
            structural, symmetry_breaking, bitset_factory
        )
        n = structural.num_vertices

        def on_match(m: Match, _table_key=table_key, _tables=tables, _n=n) -> None:
            labels = tuple(graph.label(m.mapping[u]) for u in range(_n))
            code, order = _table_key(labels)
            domain = _tables[code][1]
            domain.update([m.mapping[u] for u in order])

        session.match(
            structural,
            on_match,
            edge_induced=True,
            symmetry_breaking=symmetry_breaking,
            engine=engine,
        )
        results.append(tables)
    return results


def fsm(
    graph: DataGraph | MiningSession,
    num_edges: int,
    threshold: int,
    symmetry_breaking: bool = True,
    bitset_factory=None,
    engine: str | None = None,
) -> FSMResult:
    """Mine all frequent labeled patterns with up to ``num_edges`` edges.

    Parameters
    ----------
    graph: a *labeled* data graph (or a session pinning one); every
        round's structural matches run over one shared session.
    num_edges: pattern size in edges at the final round (the paper's
        "3-edge FSM" is ``num_edges=3``).
    threshold: MNI support threshold tau.
    symmetry_breaking: disable for the PRG-U ablation — every automorphic
        match then updates domains redundantly (Fig 10's FSM comparison).
    bitset_factory: backing store for domain bitmaps; defaults to the
        dense int-backed :class:`~repro.mining.support.Bitset`, and
        :class:`~repro.bitmap.RoaringBitmap` gives the paper's compressed
        behaviour (the two are compared in ``bench_ablations.py``).
    """
    session = as_session(graph)
    result = FSMResult(threshold=threshold, num_edges=num_edges)
    seed = Pattern.from_edges([(0, 1)])
    frontier: list[Pattern] = [seed]
    for size in range(1, num_edges + 1):
        frequent_here: dict[Pattern, int] = {}
        merged: dict[tuple, tuple[Pattern, Domain]] = {}
        round_tables = _discover_round(
            session, frontier, symmetry_breaking, bitset_factory, engine=engine
        )
        for tables in round_tables:
            result.patterns_explored += 1
            for code, (labeled, domain) in tables.items():
                if code in merged:
                    merged[code][1].merge_from(domain)
                else:
                    merged[code] = (labeled, domain)
        round_bytes = 0
        for labeled, domain in merged.values():
            result.domain_writes += domain.writes
            round_bytes += domain.memory_bytes()
            support = domain.support()
            if support >= threshold:
                frequent_here[labeled] = support
        result.domain_bytes = max(result.domain_bytes, round_bytes)
        result.frequent_by_size[size] = frequent_here
        if size == num_edges or not frequent_here:
            result.frequent = frequent_here
            break
        frontier = extend_by_edge(frequent_here.keys())
    return result
