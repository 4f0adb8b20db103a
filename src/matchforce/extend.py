"""Matching extendability predicates and deficiency witnesses.

The induced-subgraph matching counts all run through the host graph's
kernel, so deleting vertices never copies the graph: factor-critical and
extendability checks are mask manipulations here, and bicriticality is
the kernel's own ``bicritical`` method, which ``native.c`` runs for
graphs of order <= 64, save for bipartite graphs, which need no probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .errors import PreconditionError
from .graph import (
    Edge,
    Graph,
    _kernel,
    components_masks,
    is_bipartite,
    is_connected,
    iter_bits,
    mask_of,
    vertex_connectivity,
)


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

    ``matching`` is a flat tuple (u0, v0, u1, v1, ...) as the forcing
    profile holds it, and ``u_side[i]``-``v_side[i]`` is its i-th edge.
    In case "i" the v side induces one triangle plus isolated vertices and
    the u side has two independent edges; in case "ii" the v side minus
    ``pivot`` is independent and the required edges meet the pivot pair.
    """

    case: str
    matching: tuple[int, ...]
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


def is_bicritical(g: Graph) -> bool:
    """True iff g has an edge and every two-vertex deletion leaves a
    perfect matching.  Of bipartite graphs only K2 is, with no probe: one
    vertex off each side needs equal sides, two off a side of two or more
    need that side two larger."""
    if g.edge_count() == 0 or g.order % 2:
        return False
    if is_bipartite(g) is not None:
        return g.order == 2
    return _kernel(g).bicritical()


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
    return all(
        kern.count2(full ^ used) > 0
        for used in map(sum, combinations(masks, l))
        if used.bit_count() == 2 * l
    )


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


def _case_labelling(
    g: Graph, tops: Iterable[tuple[int, ...]]
) -> Optional[NonTwoExtendableStructure]:
    """First case i or case ii labelling of a top matching, or None.

    ``tops`` yields the forcing profile's flat top matchings
    (u0, v0, u1, v1, ...), tried in order, then orientations (bit i set
    puts the i-th edge's larger end on the u side), case i before case
    ii, pivots ascending."""
    n = g.order // 2
    for flat in tops:
        for orient in range(1 << n):
            bits = [orient >> i & 1 for i in range(n)]
            u_side = tuple(flat[2 * i + b] for i, b in enumerate(bits))
            v_side = tuple(flat[2 * i + 1 - b] for i, b in enumerate(bits))
            u_mask = mask_of(u_side)
            v_mask = g.full_mask ^ u_mask
            if n >= 4 and _fits_case_i(g, u_mask, v_mask):
                return NonTwoExtendableStructure("i", flat, u_side, v_side, None)
            for pivot in range(n):
                if _fits_case_ii(g, u_mask, v_mask, u_side[pivot], v_side[pivot]):
                    return NonTwoExtendableStructure("ii", flat, u_side, v_side, pivot)
    return None
