"""Matching extendability predicates and deficiency witnesses.

The induced-subgraph matching counts all run through the host graph's
kernel, so deleting vertices never copies the graph: factor-critical,
bicritical and extendability checks are all mask manipulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import NoPerfectMatchingError, PreconditionError
from .graph import (
    Edge,
    Graph,
    PerfectMatching,
    _kernel,
    components_masks,
    enumerate_perfect_matchings,
    is_connected,
    iter_bits,
    mask_of,
    vertex_connectivity,
)
from .structure import is_knn_plus, pairwise_alternating_condition


@dataclass(frozen=True, slots=True)
class DeficiencyWitness:
    """Certificate that a graph is not l-extendable: a vertex set s whose
    induced subgraph holds l independent edges while g - s splits into
    |s| - 2l + 2 odd factor-critical components."""

    s: tuple[int, ...]
    independent_edges: tuple[Edge, ...]
    components: tuple[tuple[int, ...], ...]
    factor_critical: tuple[bool, ...]
    l: int


@dataclass(frozen=True, slots=True)
class NonTwoExtendableStructure:
    """Labeled matching certifying failure of 2-extendability.

    ``u_side[i]``-``v_side[i]`` is the i-th matching edge.  In case "i" the
    v side induces one triangle plus isolated vertices and the u side has
    two independent edges; in case "ii" the v side minus ``pivot`` is
    independent and the required edges meet the pivot pair.
    """

    case: str
    matching: PerfectMatching
    u_side: tuple[int, ...]
    v_side: tuple[int, ...]
    pivot: Optional[int]


def _factor_critical(g: Graph, mask: int) -> bool:
    """Whether the subgraph induced by mask has odd order and every
    single-vertex deletion leaves a perfect matching."""
    if mask.bit_count() % 2 == 0:
        return False
    kern = _kernel(g)
    return all(kern.count2(mask ^ (1 << v)) > 0 for v in iter_bits(mask))


def is_factor_critical(g: Graph) -> bool:
    """True iff the order is odd and every single-vertex deletion leaves a
    perfect matching (the one-vertex graph qualifies vacuously)."""
    return _factor_critical(g, g.full_mask)


def is_bicritical(g: Graph) -> bool:
    """True iff g has an edge and every two-vertex deletion leaves a
    perfect matching."""
    if g.edge_count() == 0 or g.order % 2:
        return False
    kern = _kernel(g)
    full = g.full_mask
    return all(
        kern.count2(full ^ (1 << u) ^ (1 << v)) > 0
        for u in range(g.order)
        for v in range(u + 1, g.order)
    )


def is_brick(g: Graph) -> bool:
    """3-connected and bicritical."""
    return is_bicritical(g) and vertex_connectivity(g) >= 3


def is_l_extendable(g: Graph, l: int) -> bool:
    """True iff g has a perfect matching and every matching of size l is
    contained in one.  Requires a connected graph of order >= 2l + 2."""
    if l < 0:
        raise PreconditionError("extendability level must be non-negative")
    if g.order < 2 * l + 2:
        raise PreconditionError(f"order {g.order} too small for {l}-extendability")
    if not is_connected(g):
        raise PreconditionError("extendability is defined for connected graphs")
    kern = _kernel(g)
    full = g.full_mask
    if kern.count2(full) == 0:
        return False
    masks = [(1 << u) | (1 << v) for u, v in g.edges()]

    def extends(start: int, used: int, need: int) -> bool:
        """Every matching of ``need`` more edges from ``masks[start:]``,
        added to ``used``, leaves a perfect matching in the rest."""
        if need == 0:
            return kern.count2(full ^ used) > 0
        for i in range(start, len(masks) - need + 1):
            mask = masks[i]
            if not mask & used and not extends(i + 1, used | mask, need - 1):
                return False
        return True

    return extends(0, 0, l)


def _independent_edges(g: Graph, mask: int, l: int) -> Optional[tuple[Edge, ...]]:
    """Lexicographically first l disjoint edges inside mask, or None: the
    lowest free vertex meets each neighbour in ascending order before it
    is skipped, which is ``combinations`` order over the sorted edges."""
    rows = g.rows

    def rec(avail: int, need: int) -> Optional[tuple[Edge, ...]]:
        if need == 0:
            return ()
        if avail.bit_count() < 2 * need:
            return None
        v_bit = avail & -avail
        v = v_bit.bit_length() - 1
        rest = avail ^ v_bit
        for u in iter_bits(rows[v] & rest):
            found = rec(rest ^ (1 << u), need - 1)
            if found is not None:
                return (Edge(v, u),) + found
        return rec(rest, need)

    return rec(mask, l)


def deficiency_witness(g: Graph, l: int) -> Optional[DeficiencyWitness]:
    """Witness that an (l-1)-extendable graph is not l-extendable, or None.

    Searches vertex sets by size then lexicographic order, so the witness
    is deterministic and small.
    """
    if l < 1:
        raise PreconditionError("deficiency level must be at least 1")
    if g.order < 2 * l + 2:
        raise PreconditionError(f"order {g.order} too small for level {l}")
    if not is_l_extendable(g, l - 1):
        raise PreconditionError(f"graph is not {l - 1}-extendable")
    if is_l_extendable(g, l):
        return None
    full = g.full_mask
    for size in range(2 * l, g.order + 1):
        for combo in combinations(range(g.order), size):
            s_mask = mask_of(combo)
            edges = _independent_edges(g, s_mask, l)
            if edges is None:
                continue
            comps = components_masks(g, full & ~s_mask)
            odd = sum(1 for c in comps if c.bit_count() & 1)
            if odd != size - 2 * l + 2 or odd != len(comps):
                continue
            if not all(_factor_critical(g, c) for c in comps):
                continue
            return DeficiencyWitness(
                tuple(combo),
                edges,
                tuple(tuple(iter_bits(c)) for c in comps),
                (True,) * len(comps),
                l,
            )
    raise AssertionError("no witness found although the graph is not l-extendable")


def _fits_case_i(g: Graph, u_mask: int, v_mask: int) -> bool:
    """Case i: the v side induces one triangle plus isolated vertices and
    the u side has two independent edges."""
    degrees = sorted((g.rows[x] & v_mask).bit_count() for x in iter_bits(v_mask))
    return (
        degrees[-3:] == [2, 2, 2]
        and not any(degrees[:-3])
        and _independent_edges(g, u_mask, 2) is not None
    )


def _fits_case_ii(g: Graph, u_mask: int, v_mask: int, u: int, v: int) -> bool:
    """Case ii at the matching edge u-v: the v side minus v is independent,
    both u and v have a neighbour in it, and the u side plus v has two
    independent edges."""
    rest = v_mask ^ (1 << v)
    return (
        all(not g.rows[x] & rest for x in iter_bits(rest))
        and bool(g.rows[u] & rest and g.rows[v] & rest)
        and _independent_edges(g, u_mask | (1 << v), 2) is not None
    )


def _case_labelling(g: Graph, tops: list) -> Optional[NonTwoExtendableStructure]:
    """First case i or case ii labelling of a top matching, or None.

    The given top matchings are tried in order, then orientations (bit i
    set puts the i-th edge's larger end on the u side), case i before
    case ii, pivots ascending."""
    n = g.order // 2
    for m in tops:
        for orient in range(1 << n):
            bits = [orient >> i & 1 for i in range(n)]
            u_side = tuple(e[b] for e, b in zip(m.edges, bits))
            v_side = tuple(e[1 - b] for e, b in zip(m.edges, bits))
            u_mask = mask_of(u_side)
            v_mask = g.full_mask ^ u_mask
            if n >= 4 and _fits_case_i(g, u_mask, v_mask):
                return NonTwoExtendableStructure("i", m, u_side, v_side, None)
            for pivot in range(n):
                if _fits_case_ii(g, u_mask, v_mask, u_side[pivot], v_side[pivot]):
                    return NonTwoExtendableStructure("ii", m, u_side, v_side, pivot)
    return None


def non_2_extendable_structure(g: Graph) -> Optional[NonTwoExtendableStructure]:
    """Structural certificate for non-2-extendability, per the
    characterization of graphs with maximal forcing number.

    Preconditions: maximal forcing number is attained, the graph is outside
    the one-sided-extras family, and the matching size is at least 3.
    Returns None exactly when the graph is 2-extendable.
    """
    n = g.order // 2
    if g.order % 2 or n < 3:
        raise PreconditionError("structure search needs even order >= 6")
    if is_knn_plus(g) is not None:
        raise PreconditionError("graph lies in the one-sided-extras family")
    matchings = enumerate_perfect_matchings(g)
    if not matchings:
        raise NoPerfectMatchingError("graph has no perfect matching")
    tops = [m for m in matchings if pairwise_alternating_condition(g, m)[0]]
    if not tops:
        raise PreconditionError("maximal forcing number is not attained")
    if is_l_extendable(g, 2):
        return None
    structure = _case_labelling(g, tops)
    if structure is None:
        raise AssertionError(
            "graph is not 2-extendable but no structural labeling was found"
        )
    return structure
