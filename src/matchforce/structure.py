"""Structural recognizers for graphs with extremal forcing numbers.

Complete multipartite graphs are exactly the graphs in which "equal or
non-adjacent" is an equivalence relation, and the "complete bipartite plus
one-sided extras" family is recognized by locating an independent side
fully joined to the rest.  Together these recognizers decide whether the
minimum forcing number is as large as it can get; the prediction flag
records that verdict so it can be tested against the exact solver.

The maximum forcing number is read pair by pair from Lemma 2.2's rule
(``graph.spans_four_cycle``), and edge-minimality among graphs that attain
it from the edge count.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations
from typing import Optional

from .errors import NoPerfectMatchingError, PreconditionError
from .graph import (
    Edge,
    Graph,
    PerfectMatching,
    _kernel,
    check_perfect_matching,
    enumerate_perfect_matchings,
    has_perfect_matching,
    iter_bits,
    spans_four_cycle,
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
    """Whether every pair of matching edges spans an alternating 4-cycle
    (``spans_four_cycle``), which by Lemma 2.2 holds iff the forcing number
    of m is maximal (one less than the matching size).  On failure the
    first offending pair in ``combinations`` order is returned."""
    pair = _unspanned_pair(g, chain.from_iterable(m.edges))
    if pair is None:
        return True, None
    i, j = pair
    return False, (m.edges[i], m.edges[j])


def _unspanned_pair(g: Graph, flat) -> Optional[tuple[int, int]]:
    """Indices (i, j) of the first pair of edges, in ``combinations``
    order, of the flat matching (u0, v0, u1, v1, ...) that spans no
    alternating 4-cycle, or None when every pair spans one."""
    rows = g.rows
    it = iter(flat)
    for (i, e), (j, f) in combinations(enumerate(zip(it, it)), 2):
        if not spans_four_cycle(rows, e, f):
            return i, j
    return None


def matching_pairs_exact_four_cycles(g: Graph, m: PerfectMatching) -> bool:
    """Whether every pair of matching edges induces exactly a 4-cycle: one
    alternating connector class and no further edges.

    Decided by counting: the perfect matching m splits E(G) into its n
    edges and the connectors of each pair of its edges.  When every pair
    spans an alternating 4-cycle it has at least 2 connectors, so
    |E| >= n + 2 C(n, 2) = n^2, with equality iff every pair has exactly
    one connector class."""
    check_perfect_matching(g, m)
    n = len(m)
    return g.edge_count() == n * n and pairwise_alternating_condition(g, m)[0]


def has_max_forcing_n_minus_1(g: Graph) -> Optional[PerfectMatching]:
    """First perfect matching (canonical order) whose forcing number is
    maximal, or None when no matching attains it."""
    matchings = enumerate_perfect_matchings(g)
    if not matchings:
        raise NoPerfectMatchingError("graph has no perfect matching")
    for m in matchings:
        ok, _ = pairwise_alternating_condition(g, m)
        if ok:
            return m
    return None


def is_minimal_max_forcing(g: Graph) -> bool:
    """True iff some matching attains the maximal forcing number with every
    edge pair inducing exactly a 4-cycle (4 vertices, 4 edges).  Graphs
    without a perfect matching, or without a maximal matching, give False.

    By the count in ``matching_pairs_exact_four_cycles``, every maximal
    matching then qualifies iff |E| = n^2, so the test is F(G) = n - 1
    and |E| = n^2."""
    n = g.order // 2
    if g.order % 2 or g.edge_count() != n * n or not has_perfect_matching(g):
        return False
    return has_max_forcing_n_minus_1(g) is not None


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
