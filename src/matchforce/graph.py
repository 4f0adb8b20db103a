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
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import _core
from ._core.cycles import alternating_cycle_first, alternating_cycles
from .errors import PreconditionError

DEFAULT_MATCHING_CAP = 10**6

# Per-graph memos (kernel, connector codes, connectivity) are keyed by
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

    @classmethod
    def empty(cls, order: int) -> "Graph":
        return cls(order, (0,) * order)

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.rows[v])

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
    def _unchecked(cls, edges: tuple[Edge, ...]) -> "PerfectMatching":
        """Matching from edges the kernel enumerated, which are canonical by
        construction; skips ``__post_init__``.  Not for outside input."""
        m = object.__new__(cls)
        object.__setattr__(m, "edges", edges)
        return m

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

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

    def as_pairs(self) -> list[list[int]]:
        return [[e.u, e.v] for e in self.edges]


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

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def mask(self) -> int:
        return mask_of(self.vertices)

    def pairs(self) -> list[Edge]:
        vs = self.vertices
        return [Edge.of(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def check_perfect_matching(g: Graph, m: PerfectMatching) -> None:
    """Raise PreconditionError unless m is a perfect matching of g."""
    if m.cover_mask != g.full_mask or 2 * len(m) != g.order:
        raise PreconditionError("matching does not cover every vertex")
    rows = g.rows
    for e in m.edges:
        if not (rows[e.u] >> e.v) & 1:
            raise PreconditionError(f"matching edge {e} is not in the graph")


def is_alternating_cycle(g: Graph, m: PerfectMatching, c: AlternatingCycle) -> bool:
    """True iff every cycle edge is in g and membership in m alternates."""
    pairs = c.pairs()
    if not all(g.has_edge(e.u, e.v) for e in pairs):
        return False
    m_set = set(m.edges)
    flags = [e in m_set for e in pairs]
    return all(flags[i] != flags[(i + 1) % len(flags)] for i in range(len(flags)))


# ---------------------------------------------------------------------------
# graph operations


def complement(g: Graph) -> Graph:
    full = g.full_mask
    rows = tuple((full ^ r) & ~(1 << u) for u, r in enumerate(g.rows))
    return Graph(g.order, rows)


def induced_subgraph(g: Graph, t: Iterable[int]) -> Graph:
    """Subgraph induced by t, relabeled 0..len(t)-1 in the order given."""
    verts = list(t)
    for v in verts:
        if not 0 <= v < g.order:
            raise ValueError(f"vertex {v} out of range")
    if len(set(verts)) != len(verts):
        raise ValueError("induced vertex set has repeats")
    index = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for v, i in index.items():
        for w in iter_bits(g.rows[v]):
            j = index.get(w)
            if j is not None:
                rows[i] |= 1 << j
    return Graph(len(verts), tuple(rows))


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
    out = []
    for flat in _kernel(g).enumerate_pms(g.full_mask, cap):
        it = iter(flat)
        out.append(PerfectMatching._unchecked(tuple(map(Edge._make, zip(it, it)))))
    return tuple(out)


def has_perfect_matching(g: Graph) -> bool:
    return _kernel(g).count2(g.full_mask) > 0


def find_alternating_cycle(
    g: Graph, m: PerfectMatching, alive: int | None = None
) -> Optional[AlternatingCycle]:
    """Some m-alternating cycle of g (restricted to ``alive``), or None.

    The first cycle in the deterministic search order is returned, so equal
    inputs give equal witnesses.
    """
    check_perfect_matching(g, m)
    if alive is None:
        alive = g.full_mask
    raw = alternating_cycle_first(g.rows, m.mates(g.order), alive)
    return None if raw is None else AlternatingCycle.canonical(raw)


def enumerate_alternating_cycles(
    g: Graph, m: PerfectMatching, cap: int | None = None
) -> tuple[AlternatingCycle, ...]:
    """All m-alternating cycles, canonicalized, sorted by (length, vertices).

    Raises CycleOverflowError when more than ``cap`` cycles exist.
    """
    check_perfect_matching(g, m)
    raws = alternating_cycles(g.rows, m.mates(g.order), g.full_mask, cap=cap)
    cyc = [AlternatingCycle.canonical(r) for r in raws]
    cyc.sort(key=lambda c: (len(c), c.vertices))
    return tuple(cyc)


# Connector-code classes of matching edges (a, b), (c, d).  The pair spans
# one alternating 4-cycle per class its code contains, and induces exactly
# a 4-cycle iff its code is a class.
PARALLEL = 0b0011  # a~c and b~d
CROSSED = 0b1100  # a~d and b~c


@lru_cache(maxsize=32)
def pair_scan(k: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j), i < j < k, in scan order: i ascending, then j."""
    return tuple(combinations(range(k), 2))


@lru_cache(maxsize=_GRAPH_MEMO_SIZE)
def _codes_memo(rows: tuple[int, ...]) -> dict:
    return {}


def connector_codes(
    rows: tuple[int, ...], pairs: tuple[tuple[int, int], ...]
) -> bytes:
    """Code of each pair i < j of matching edges (a, b) = pairs[i] and
    (c, d) = pairs[j], in ``pair_scan`` order; ``pairs`` are sorted by
    smaller endpoint.  The code's bits are a~c, b~d, a~d and b~c.  Each
    matching of a graph is scanned once; later calls reuse the codes."""
    memo = _codes_memo(rows)
    codes = memo.get(pairs)
    if codes is None:
        out = bytearray()
        for i, (a, b) in enumerate(pairs):
            ra = rows[a]
            rb = rows[b]
            for c, d in pairs[i + 1 :]:
                code = (ra >> c & 1) | (rb >> d & 1) << 1
                out.append(code | (ra >> d & 1) << 2 | (rb >> c & 1) << 3)
        codes = memo[pairs] = bytes(out)
    return codes


def four_cycle_switches(
    rows: tuple[int, ...], pairs: tuple[tuple[int, int], ...]
) -> Iterator[tuple[int, int, int, int]]:
    """(a, b, y, w) for every alternating 4-cycle a-b-w-y, in scan order,
    parallel class first: its 2-switch turns matching edges (a, b) and
    {y, w}, in that order in ``pairs``, into (a, y) and (b, w)."""
    codes = connector_codes(rows, pairs)
    for (i, j), code in zip(pair_scan(len(pairs)), codes):
        a, b = pairs[i]
        c, d = pairs[j]
        if code & PARALLEL == PARALLEL:
            yield a, b, c, d
        if code & CROSSED == CROSSED:
            yield a, b, d, c


def switch_cycle(a: int, b: int, y: int, w: int) -> AlternatingCycle:
    """Canonical form of the 4-cycle a-b-w-y whose smallest vertex is a."""
    return AlternatingCycle((a, b, w, y) if b < y else (a, y, w, b))


def alternating_four_cycles(
    g: Graph, m: PerfectMatching
) -> tuple[AlternatingCycle, ...]:
    """All m-alternating 4-cycles, canonicalized and sorted."""
    check_perfect_matching(g, m)
    cycles = [
        switch_cycle(a, b, y, w)
        for a, b, y, w in four_cycle_switches(g.rows, m.edges)
    ]
    return tuple(sorted(cycles, key=lambda cy: cy.vertices))


def apply_cycle(m: PerfectMatching, c: AlternatingCycle) -> PerfectMatching:
    """Symmetric difference of m with the cycle's edges; an involution."""
    m_set = set(m.edges)
    pairs = c.pairs()
    flags = [e in m_set for e in pairs]
    if not all(flags[i] != flags[(i + 1) % len(flags)] for i in range(len(flags))):
        raise PreconditionError("cycle does not alternate with the matching")
    swapped = (m_set - set(pairs)) | {e for e, f in zip(pairs, flags) if not f}
    return PerfectMatching(tuple(sorted(swapped)))


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


def odd_component_count(g: Graph, removed: Iterable[int]) -> int:
    """Number of odd-order components after deleting the given vertices."""
    rm = mask_of(removed)
    if rm & ~g.full_mask:
        raise ValueError("removed set references a vertex out of range")
    within = g.full_mask & ~rm
    return sum(1 for comp in components_masks(g, within) if comp.bit_count() & 1)


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
    # Split network as residual rows: vertex v is entry 2v and exit 2v + 1,
    # with unit arcs entry -> exit and exit -> each neighbour's entry.  No
    # two arcs are antiparallel, so pushing a unit along x -> y is one bit
    # flip in each of res[x] and res[y].
    n = len(rows)
    if n <= 1:
        return 0
    net = []
    for v, row in enumerate(rows):
        net.append(1 << (2 * v + 1))
        net.append(sum(1 << (2 * w) for w in iter_bits(row)))
    full = (1 << n) - 1
    best = n - 1
    for s in range(n):
        for t in iter_bits(full & ~rows[s] & ~((2 << s) - 1)):
            best = _disjoint_paths(net, 2 * s + 1, 2 * t, best)
            if best == 0:
                return 0
    return best


def _disjoint_paths(net: list[int], source: int, sink: int, limit: int) -> int:
    """Unit flow from source to sink in a copy of the split network, stopped
    at limit.  Each round grows breadth-first levels of node masks until one
    holds the sink, then walks back through the levels, taking the lowest
    node with a residual arc to the next one, and reverses those arcs."""
    res = list(net)
    flow = 0
    while flow < limit:
        levels = [1 << source]
        seen = levels[0]
        while not (seen >> sink) & 1:
            reach = 0
            level = levels[-1]
            while level:
                reach |= res[(level & -level).bit_length() - 1]
                level &= level - 1
            frontier = reach & ~seen
            if not frontier:
                return flow
            seen |= frontier
            levels.append(frontier)
        y = sink
        for level in reversed(levels[:-1]):
            x = (level & -level).bit_length() - 1
            while not (res[x] >> y) & 1:
                level &= level - 1
                x = (level & -level).bit_length() - 1
            res[x] ^= 1 << y
            res[y] |= 1 << x
            y = x
        flow += 1
    return flow
