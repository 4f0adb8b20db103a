"""Constructors for the graph families with extremal forcing behaviour.

The minimal families are all built from one device: put a perfect matching
u_i-v_i on 2n vertices and connect every pair of matching edges by exactly
one connector pair, either "parallel" (u_iu_j and v_iv_j) or "cross"
(u_iv_j and v_iu_j).  Every pair of matching edges then induces exactly an
alternating 4-cycle, which pins the forcing number of the base matching at
its maximum and makes the graph edge-minimal for that property.  The
ladder family with k parallel pairs is the special case with pairs
(2i-1, 2i) parallel and everything else crossed: the prescribed k edges on
the u side force those pairs parallel, and edge-minimality forces every
remaining pair to cross, so the construction is the unique one matching
its description.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import PreconditionError
from .extend import _fits_case_i, _fits_case_ii
from .graph import Edge, Graph, PerfectMatching


class Connector(Enum):
    PARALLEL = "parallel"
    CROSS = "cross"


@dataclass(frozen=True, slots=True)
class PairSignature:
    """Connector choice for every pair of matching edges, 0-based indices."""

    n: int
    choice: Mapping[tuple[int, int], Connector]

    def __post_init__(self):
        want = {(i, j) for i in range(self.n) for j in range(i + 1, self.n)}
        have = set(self.choice)
        if have != want:
            raise PreconditionError(
                "signature must assign exactly the pairs i < j < n"
            )

    @classmethod
    def from_parallel_pairs(
        cls, n: int, parallel: Iterable[tuple[int, int]]
    ) -> "PairSignature":
        if n < 1:
            raise PreconditionError("signature needs at least one pair")
        par = {tuple(sorted(p)) for p in parallel}
        choice = {}
        for i in range(n):
            for j in range(i + 1, n):
                choice[(i, j)] = (
                    Connector.PARALLEL if (i, j) in par else Connector.CROSS
                )
        if len(par) != sum(1 for c in choice.values() if c is Connector.PARALLEL):
            raise PreconditionError("parallel pair out of range or repeated")
        return cls(n, choice)


@dataclass(frozen=True, slots=True)
class LabeledGraph:
    """Graph with a distinguished perfect matching u_side[i]-v_side[i]."""

    graph: Graph
    m0: PerfectMatching
    u_side: tuple[int, ...]
    v_side: tuple[int, ...]


def gen_complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts occupy consecutive vertex ranges
    in the order given."""
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise PreconditionError("part sizes must be positive and non-empty")
    order = sum(sizes)
    rows = [0] * order
    start = 0
    full = (1 << order) - 1
    for s in sizes:
        part = ((1 << s) - 1) << start
        for v in range(start, start + s):
            rows[v] = full ^ part
        start += s
    return Graph(order, tuple(rows))


def gen_knn_plus(n: int, extra: Iterable[tuple[int, int]] = ()) -> Graph:
    """K_{n,n} on sides A = 0..n-1, B = n..2n-1, plus extra edges inside B."""
    if n < 1:
        raise PreconditionError("side size must be positive")
    pairs = [(a, n + b) for a in range(n) for b in range(n)]
    seen = set()
    for x, y in extra:
        e = Edge.of(x, y)
        if e.u < n:
            raise PreconditionError(f"extra edge {e} touches the independent side")
        if e.v >= 2 * n:
            raise PreconditionError(f"extra edge {e} is out of range")
        if e in seen:
            raise PreconditionError(f"duplicate extra edge {e}")
        seen.add(e)
        pairs.append(e)
    return Graph.from_edges(2 * n, pairs)


def gen_minimal_from_signature(sig: PairSignature) -> LabeledGraph:
    """Edge-minimal graph whose base matching has maximal forcing number:
    matching edges i-(n+i) plus one connector pair per edge pair."""
    n = sig.n
    pairs = [(i, n + i) for i in range(n)]
    for (i, j), conn in sorted(sig.choice.items()):
        if conn is Connector.PARALLEL:
            pairs.append((i, j))
            pairs.append((n + i, n + j))
        else:
            pairs.append((i, n + j))
            pairs.append((j, n + i))
    g = Graph.from_edges(2 * n, pairs)
    m0 = PerfectMatching.from_pairs((i, n + i) for i in range(n))
    return LabeledGraph(g, m0, tuple(range(n)), tuple(range(n, 2 * n)))


def gen_h_k(n: int, k: int) -> LabeledGraph:
    """Ladder family member: pairs (2i, 2i+1) parallel for i < k, the rest
    crossed.  Valid for 0 <= k <= (n-1)//2."""
    if n < 1:
        raise PreconditionError("need at least one matching edge")
    if not 0 <= k <= (n - 1) // 2:
        raise PreconditionError(f"k={k} out of range for n={n}")
    parallel = [(2 * i, 2 * i + 1) for i in range(k)]
    return gen_minimal_from_signature(PairSignature.from_parallel_pairs(n, parallel))


def gen_non_2_extendable(
    case: str,
    n: int,
    u_edges: Optional[Sequence[tuple[int, int]]] = None,
    triangle: Optional[Sequence[int]] = None,
    parallel_index: Optional[int] = 0,
    extra_v_edges: Sequence[tuple[int, int]] = (),
) -> LabeledGraph:
    """Non-2-extendable graph with maximal forcing number, case "i" or "ii".

    Vertices are u_i = i and v_i = n + i with base matching i-(n+i); pair
    indices in the options are 0-based.  Case "i" (n >= 4) puts a triangle
    on the last three v's (or on ``triangle``) and the given edges on the u
    side (default two independent edges).  Case "ii" (n >= 3) makes pair
    ``parallel_index`` parallel to the final pair and crosses the rest;
    ``u_edges`` and ``extra_v_edges`` (pairs (l, n-1) on the v side) extend
    it.  Missing connector pairs are completed with crosses so the base
    matching keeps maximal forcing number; options that break the target
    structure raise PreconditionError.
    """
    if case == "i":
        if n < 4:
            raise PreconditionError("case i needs n >= 4")
        if u_edges is None:
            u_edges = ((0, 1), (2, 3))
        if triangle is None:
            triangle = (n - 3, n - 2, n - 1)
        tri = tuple(sorted(triangle))
        if len(set(tri)) != 3 or tri[0] < 0 or tri[2] >= n:
            raise PreconditionError("triangle must name three distinct pairs")
        e_u = {tuple(sorted(p)) for p in u_edges}
        e_v = {
            (tri[0], tri[1]),
            (tri[0], tri[2]),
            (tri[1], tri[2]),
        }
    elif case == "ii":
        if n < 3:
            raise PreconditionError("case ii needs n >= 3")
        if u_edges is None:
            u_edges = ()
        e_u = {tuple(sorted(p)) for p in u_edges}
        e_v = set()
        if parallel_index is not None:
            if not 0 <= parallel_index <= n - 2:
                raise PreconditionError("parallel index must point below the pivot")
            e_u.add((parallel_index, n - 1))
            e_v.add((parallel_index, n - 1))
        for p in extra_v_edges:
            q = tuple(sorted(p))
            if q[1] != n - 1 or not 0 <= q[0] < n - 1:
                raise PreconditionError(
                    f"extra v-side edge {p} must join the pivot pair"
                )
            e_v.add(q)
    else:
        raise PreconditionError(f"unknown case {case!r}; expected 'i' or 'ii'")

    for a, b in e_u | e_v:
        if not (0 <= a < b < n):
            raise PreconditionError(f"pair ({a}, {b}) out of range")

    pairs = [(i, n + i) for i in range(n)]
    pairs += [(a, b) for a, b in sorted(e_u)]
    pairs += [(n + a, n + b) for a, b in sorted(e_v)]
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in e_u and (i, j) in e_v:
                continue
            pairs.append((i, n + j))
            pairs.append((j, n + i))
    g = Graph.from_edges(2 * n, pairs)
    u_mask = (1 << n) - 1
    v_mask = u_mask << n

    if case == "i":
        if not _fits_case_i(g, u_mask, v_mask):
            raise PreconditionError("options broke the case i structure")
    elif not _fits_case_ii(g, u_mask, v_mask, n - 1, 2 * n - 1):
        raise PreconditionError("options broke the case ii structure")

    m0 = PerfectMatching.from_pairs((i, n + i) for i in range(n))
    return LabeledGraph(g, m0, tuple(range(n)), tuple(range(n, 2 * n)))


def enumerate_labeled_graphs(order: int, predicate=None) -> Iterator[Graph]:
    """Every labeled simple graph on the given order, edge-mask ascending.

    Above order 6 a filter predicate is required, as a guard against
    accidentally materializing 2^(order choose 2) graphs.
    """
    if order > 6 and predicate is None:
        raise PreconditionError(
            "orders above 6 need an explicit filter predicate"
        )
    pairs = [(i, j) for i in range(order) for j in range(i + 1, order)]
    for mask in range(1 << len(pairs)):
        rows = [0] * order
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            i, j = pairs[bit.bit_length() - 1]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        g = Graph(order, tuple(rows))
        if predicate is None or predicate(g):
            yield g


_MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream; documented so other implementations can
    reproduce seeded graphs bit for bit."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def gen_random(order: int, edge_probability, seed: int) -> Graph:
    """Seeded Bernoulli graph: one 64-bit draw per vertex pair, row-major
    (0,1), (0,2), ..., edge kept iff draw < p * 2^64."""
    p = Fraction(edge_probability)
    if not 0 <= p <= 1:
        raise PreconditionError("edge probability must lie in [0, 1]")
    threshold = (p.numerator << 64) // p.denominator
    stream = splitmix64(seed)
    rows = [0] * order
    for i in range(order):
        for j in range(i + 1, order):
            if next(stream) < threshold:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(order, tuple(rows))
