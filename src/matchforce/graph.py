"""Graph substrate: bit-matrix graphs, perfect matchings, alternating cycles.

Vertices are integers ``0..order-1``.  Adjacency is a tuple of row masks,
one int per vertex, bit ``v`` of ``rows[u]`` set iff ``u ~ v``.  Everything
is immutable after construction and all operations are pure functions, so
values can be shared freely across threads and worker processes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import _core
from .errors import PreconditionError

DEFAULT_MATCHING_CAP = 10**6

# The two per-graph memos, the kernel and vertex connectivity, are keyed by
# adjacency rows and hold only the last few graphs: every caller works on
# one graph at a time, and a memo must not outlive it by much.
_GRAPH_MEMO_SIZE = 4


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Edge(NamedTuple):
    """Unordered vertex pair, stored with u < v."""

    u: int
    v: int

    @classmethod
    def of(cls, a: int, b: int) -> "Edge":
        if a == b:
            raise ValueError(f"loop at vertex {a}")
        if a < 0 or b < 0:
            raise ValueError(f"negative vertex in edge ({a}, {b})")
        return cls(a, b) if a < b else cls(b, a)

    @property
    def mask(self) -> int:
        return (1 << self.u) | (1 << self.v)


@dataclass(frozen=True, slots=True)
class Graph:
    """Undirected simple graph as vertex count plus symmetric row masks."""

    order: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("negative order")
        if len(self.rows) != self.order:
            raise ValueError("row count does not match order")
        rows = self.rows
        full = (1 << self.order) - 1
        for u, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {u} references a vertex out of range")
            if (row >> u) & 1:
                raise ValueError(f"loop at vertex {u}")
        for u, row in enumerate(rows):
            while row:
                bit = row & -row
                row ^= bit
                v = bit.bit_length() - 1
                if not (rows[v] >> u) & 1:
                    raise ValueError(f"asymmetric adjacency at ({u}, {v})")

    @classmethod
    def from_edges(cls, order: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * order
        for a, b in pairs:
            e = Edge.of(a, b)
            if e.v >= order:
                raise ValueError(f"vertex {e.v} out of range for order {order}")
            if (rows[e.u] >> e.v) & 1:
                raise ValueError(f"duplicate edge ({e.u}, {e.v})")
            rows[e.u] |= 1 << e.v
            rows[e.v] |= 1 << e.u
        return cls(order, tuple(rows))

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> tuple[Edge, ...]:
        out = []
        for u in range(self.order):
            for v in iter_bits(self.rows[u] >> (u + 1)):
                out.append(Edge(u, u + 1 + v))
        return tuple(out)


@lru_cache(maxsize=_GRAPH_MEMO_SIZE)
def _kernel_cached(rows: tuple[int, ...]):
    return _core.make_kernel(rows)


def _kernel(g: Graph):
    return _kernel_cached(g.rows)


@dataclass(frozen=True, slots=True)
class PerfectMatching:
    """Vertex-disjoint edges covering the whole host graph, canonically sorted."""

    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen = 0
        last = -1
        for e in self.edges:
            if not isinstance(e, Edge) or e.u >= e.v:
                raise ValueError(f"non-canonical edge {e}")
            u, v = e
            if u <= last:
                raise ValueError("edges not sorted by smaller endpoint")
            last = u
            mask = (1 << u) | (1 << v)
            if seen & mask:
                raise ValueError(f"edge {e} reuses a vertex")
            seen |= mask

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "PerfectMatching":
        return cls(tuple(sorted(Edge.of(a, b) for a, b in pairs)))

    @classmethod
    def _unchecked(cls, flat: tuple[int, ...]) -> "PerfectMatching":
        """Matching from a flat tuple (u0, v0, u1, v1, ...) the kernel
        enumerated, which is canonical by construction; skips
        ``__post_init__``.  Not for outside input."""
        it = iter(flat)
        m = object.__new__(cls)
        object.__setattr__(m, "edges", tuple(map(Edge._make, zip(it, it))))
        return m

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def cover_mask(self) -> int:
        m = 0
        for u, v in self.edges:
            m |= (1 << u) | (1 << v)
        return m

    def mates(self, order: int) -> tuple[int, ...]:
        """Partner array: mates[v] is the vertex matched to v, -1 if none."""
        mate = [-1] * order
        for e in self.edges:
            mate[e.u] = e.v
            mate[e.v] = e.u
        return tuple(mate)


@dataclass(frozen=True, slots=True)
class AlternatingCycle:
    """Even cycle whose edges alternate between a matching and its complement.

    Stored as the vertex sequence in canonical rotation: the smallest vertex
    first, then its smaller cycle-neighbour.  Whether the first consecutive
    pair is the matching edge or the non-matching edge depends on the cycle.
    """

    vertices: tuple[int, ...]

    def __post_init__(self):
        k = len(self.vertices)
        if k < 4 or k % 2:
            raise ValueError("alternating cycle needs even length >= 4")
        if len(set(self.vertices)) != k:
            raise ValueError("cycle vertices must be distinct")

    @classmethod
    def canonical(cls, seq: Sequence[int]) -> "AlternatingCycle":
        seq = tuple(seq)
        i = seq.index(min(seq))
        rot = seq[i:] + seq[:i]
        if rot[-1] < rot[1]:
            rot = (rot[0],) + tuple(reversed(rot[1:]))
        return cls(rot)


def check_perfect_matching(g: Graph, m: PerfectMatching) -> None:
    """Raise PreconditionError unless m is a perfect matching of g."""
    if m.cover_mask != g.full_mask or 2 * len(m) != g.order:
        raise PreconditionError("matching does not cover every vertex")
    rows = g.rows
    for e in m.edges:
        if not (rows[e.u] >> e.v) & 1:
            raise PreconditionError(f"matching edge {e} is not in the graph")


def enumerate_perfect_matchings(
    g: Graph, cap: int | None = None
) -> tuple[PerfectMatching, ...]:
    """Every perfect matching exactly once, lexicographic on the edge list.

    Odd order yields the empty tuple; order zero yields the single empty
    matching.  Raises MatchingOverflowError past ``cap`` matchings.  Each
    call enumerates afresh, so a caller that needs the matchings twice
    keeps the tuple.
    """
    if cap is None:
        cap = DEFAULT_MATCHING_CAP
    flat = _kernel(g).enumerate_pms(cap)
    return tuple(map(PerfectMatching._unchecked, flat))


def has_perfect_matching(g: Graph) -> bool:
    return _kernel(g).count2(g.full_mask) > 0


# ---------------------------------------------------------------------------
# connectivity and components


def components_masks(g: Graph, within: int | None = None) -> list[int]:
    """Connected components (as vertex masks) of the induced subgraph."""
    rows = g.rows
    rem = g.full_mask if within is None else within
    comps = []
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= rows[u] & rem
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    return g.order <= 1 or len(components_masks(g)) == 1


def is_bipartite(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A bipartition (two sorted vertex tuples) or None."""
    color = [-1] * g.order
    for root in range(g.order):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in iter_bits(g.rows[u]):
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    side0 = tuple(v for v in range(g.order) if color[v] == 0)
    side1 = tuple(v for v in range(g.order) if color[v] == 1)
    return side0, side1


def vertex_connectivity(g: Graph) -> int:
    """Exact vertex connectivity; order-1 for complete graphs, 0 when
    disconnected or order <= 1.  Menger: minimum over non-adjacent pairs of
    the maximum number of vertex-disjoint paths.  Memoized per graph."""
    return _connectivity_cached(g.rows)


@lru_cache(maxsize=_GRAPH_MEMO_SIZE)
def _connectivity_cached(rows: tuple[int, ...]) -> int:
    return _kernel_cached(rows).vertex_connectivity()
