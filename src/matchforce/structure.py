"""Structural recognizers for graphs with extremal forcing numbers.

Complete multipartite graphs are exactly the graphs in which "equal or
non-adjacent" is an equivalence relation, and the "complete bipartite plus
one-sided extras" family is recognized by locating an independent side
fully joined to the rest.  Together these recognizers decide whether the
minimum forcing number is as large as it can get; the prediction flag
records that verdict so it can be tested against the exact solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import NoPerfectMatchingError, PreconditionError
from .graph import (
    CROSSED,
    PARALLEL,
    Edge,
    Graph,
    PerfectMatching,
    _kernel,
    connector_codes,
    enumerate_perfect_matchings,
    has_perfect_matching,
    iter_bits,
    pair_scan,
)


class ClassTag(Enum):
    COMPLETE_MULTIPARTITE = "CompleteMultipartite"
    KNN_PLUS = "KnnPlus"
    NEITHER = "Neither"


@dataclass(frozen=True, slots=True)
class ClassificationResult:
    tag: ClassTag
    partition: Optional[tuple[tuple[int, ...], ...]]
    bipartition: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    extra_edges: Optional[tuple[Edge, ...]]
    predicted_min_forcing_is_max: bool


def is_complete_multipartite(g: Graph) -> Optional[tuple[tuple[int, ...], ...]]:
    """The unique partition into independent sides with all cross edges, or
    None.  The side of u is u with its non-neighbours, and every member of
    it must have the same row as u; sides come out ordered by smallest
    vertex."""
    full = g.full_mask
    parts = []
    placed = 0
    for u, row in enumerate(g.rows):
        if (placed >> u) & 1:
            continue
        part = full ^ row
        if any(g.rows[v] != row for v in iter_bits(part)):
            return None
        placed |= part
        parts.append(tuple(iter_bits(part)))
    return tuple(parts)


def is_knn_plus(
    g: Graph,
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], tuple[Edge, ...]]]:
    """Decompose g as K_{n,n} plus extra edges inside one side.

    Looks for an independent set A of n vertices joined to everything else.
    If a vertex a lies in such a side, the side must be exactly the
    non-neighbourhood of a, so every vertex proposes one candidate and an
    O(order^2) scan settles it.  Returns (A, B, extra edges inside B) for
    the first candidate in vertex order, or None.
    """
    if g.order % 2:
        raise PreconditionError("K_{n,n}+ recognition needs even order")
    n = g.order // 2
    if n == 0:
        return None
    full = g.full_mask
    seen = set()
    for a in range(g.order):
        a_mask = full & ~g.rows[a]
        if a_mask in seen:
            continue
        seen.add(a_mask)
        if a_mask.bit_count() != n:
            continue
        if all(g.rows[x] == full ^ a_mask for x in iter_bits(a_mask)):
            b_mask = full ^ a_mask
            extra = []
            for u in iter_bits(b_mask):
                for w in iter_bits(g.rows[u] & b_mask):
                    if w > u:
                        extra.append(Edge(u, w))
            return (
                tuple(iter_bits(a_mask)),
                tuple(iter_bits(b_mask)),
                tuple(sorted(extra)),
            )
    return None


def pairwise_alternating_condition(
    g: Graph, m: PerfectMatching
) -> tuple[bool, Optional[tuple[Edge, Edge]]]:
    """Whether every pair of matching edges spans an alternating cycle.

    For edges (u1, v1) and (u2, v2) the induced 4-vertex graph carries an
    alternating cycle iff both parallel connectors or both crossed
    connectors are present.  Holds for every pair iff the forcing number of
    m is maximal (one less than the matching size).  On failure the first
    offending pair is returned.
    """
    edges = m.edges
    codes = connector_codes(g.rows, edges)
    for (i, j), code in zip(pair_scan(len(edges)), codes):
        if code & PARALLEL != PARALLEL and code & CROSSED != CROSSED:
            return False, (edges[i], edges[j])
    return True, None


def matching_pairs_exact_four_cycles(g: Graph, m: PerfectMatching) -> bool:
    """Whether every pair of matching edges induces exactly a 4-cycle: one
    alternating connector class and no further edges."""
    return all(
        code == PARALLEL or code == CROSSED
        for code in connector_codes(g.rows, m.edges)
    )


def has_max_forcing_n_minus_1(
    g: Graph, matching_cap: int | None = None
) -> Optional[PerfectMatching]:
    """First perfect matching (canonical order) whose forcing number is
    maximal, or None when no matching attains it."""
    matchings = enumerate_perfect_matchings(g, cap=matching_cap)
    if not matchings:
        raise NoPerfectMatchingError("graph has no perfect matching")
    for m in matchings:
        ok, _ = pairwise_alternating_condition(g, m)
        if ok:
            return m
    return None


def is_minimal_max_forcing(g: Graph, matching_cap: int | None = None) -> bool:
    """True iff some matching attains the maximal forcing number with every
    edge pair inducing exactly a 4-cycle (4 vertices, 4 edges).  Graphs
    without a perfect matching, or without a maximal matching, give False.

    Decided by counting: a perfect matching splits E(G) into its n edges
    and the connectors of each pair of its edges.  A top matching has at
    least 2 connectors on every pair (Lemma 2.2), so |E| >= n + 2 C(n, 2)
    = n^2, with equality iff every pair induces exactly a 4-cycle.  Hence
    the test is F(G) = n - 1 and |E| = n^2."""
    n = g.order // 2
    if g.order % 2 or g.edge_count() != n * n or not has_perfect_matching(g):
        return False
    return has_max_forcing_n_minus_1(g, matching_cap) is not None


def classify_min_forcing(g: Graph) -> ClassificationResult:
    """Structural classification predicting whether the minimum forcing
    number is maximal.  Complete multipartite wins when both recognizers
    fire (both imply the same prediction)."""
    if g.order % 2:
        raise PreconditionError("classification needs even order")
    if not has_perfect_matching(g):
        raise NoPerfectMatchingError("graph has no perfect matching")
    n = g.order // 2
    parts = is_complete_multipartite(g)
    if parts is not None and all(len(p) <= n for p in parts):
        return ClassificationResult(
            ClassTag.COMPLETE_MULTIPARTITE, parts, None, None, True
        )
    knn = is_knn_plus(g)
    if knn is not None:
        a, b, extra = knn
        return ClassificationResult(ClassTag.KNN_PLUS, None, (a, b), extra, True)
    return ClassificationResult(ClassTag.NEITHER, None, None, None, False)


def max_independent_set_size(g: Graph) -> int:
    """Exact maximum independent set size by branch and bound."""
    rows = g.rows
    best = 0

    def rec(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if size + cand.bit_count() <= best:
            return
        v_bit = cand & -cand
        v = v_bit.bit_length() - 1
        rec(cand & ~(rows[v] | v_bit), size + 1)
        rec(cand ^ v_bit, size)

    rec(g.full_mask, 0)
    return best


def has_fixed_double_bond(g: Graph) -> Optional[Edge]:
    """Lowest edge contained in every perfect matching, or None.

    Edge (u, v) lies in every perfect matching iff no perfect matching
    pairs u with another neighbour w, that is iff deleting u and w leaves
    no perfect matching for each such w.  All counts run on g's kernel.
    """
    if not has_perfect_matching(g):
        raise NoPerfectMatchingError("graph has no perfect matching")
    kern = _kernel(g)
    full = g.full_mask
    for e in g.edges():
        u_gone = full ^ (1 << e.u)
        if all(
            kern.count2(u_gone ^ (1 << w)) == 0
            for w in iter_bits(g.rows[e.u] ^ (1 << e.v))
        ):
            return e
    return None
