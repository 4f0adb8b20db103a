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
from .graph import Edge, Graph, has_perfect_matching, iter_bits


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
