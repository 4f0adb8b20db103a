"""Constructors for the graph families with extremal forcing behaviour.

The minimal families are all built from one device: put a perfect matching
u_i-v_i on 2n vertices and connect every pair of matching edges by exactly
one connector pair, either "parallel" (u_iu_j and v_iv_j) or "cross"
(u_iv_j and v_iu_j).  A signature is the set of parallel pairs; every other
pair crosses.  Every pair of matching edges then induces exactly an
alternating 4-cycle, which pins the forcing number of the base matching at
its maximum and makes the graph edge-minimal for that property.  The
ladder family H(n, k) is the signature with pairs (2i, 2i+1) parallel for
i < k: the prescribed k edges on the u side force those pairs parallel,
and edge-minimality forces every remaining pair to cross, so the
construction is the unique one matching its description.  The
non-2-extendable families start from the signature of the pairs joined on
both sides, then add the one-sided edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .errors import PreconditionError
from .extend import _fits_case_i, _fits_case_ii
from .graph import Edge, Graph, PerfectMatching


@dataclass(frozen=True, slots=True)
class LabeledGraph:
    """Graph with a distinguished perfect matching u_side[i]-v_side[i]."""

    graph: Graph
    m0: PerfectMatching
    u_side: tuple[int, ...]
    v_side: tuple[int, ...]


def _pair_set(n: int, pairs: Iterable[tuple[int, int]], what: str) -> set:
    """The pairs sorted to (i, j); one outside 0 <= i < j < n, or repeated
    in either order, raises PreconditionError naming it."""
    out = set()
    for p in pairs:
        q = tuple(sorted(p))
        if not 0 <= q[0] < q[1] < n:
            raise PreconditionError(f"{what} {p} out of range for n={n}")
        if q in out:
            raise PreconditionError(f"{what} {p} repeated")
        out.add(q)
    return out


def _signature_edges(n: int, parallel) -> list[tuple[int, int]]:
    """Matching edges i-(n+i) plus one connector pair per pair i < j:
    u_iu_j and v_iv_j when (i, j) is in ``parallel``, else u_iv_j and
    v_iu_j."""
    pairs = [(i, n + i) for i in range(n)]
    for i, j in combinations(range(n), 2):
        if (i, j) in parallel:
            pairs += [(i, j), (n + i, n + j)]
        else:
            pairs += [(i, n + j), (j, n + i)]
    return pairs


def _labeled(n: int, pairs) -> LabeledGraph:
    """The graph on 2n vertices with base matching i-(n+i)."""
    m0 = PerfectMatching.from_pairs((i, n + i) for i in range(n))
    g = Graph.from_edges(2 * n, pairs)
    return LabeledGraph(g, m0, tuple(range(n)), tuple(range(n, 2 * n)))


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


def gen_minimal_from_signature(
    n: int, parallel: Iterable[tuple[int, int]] = ()
) -> LabeledGraph:
    """Edge-minimal graph whose base matching has maximal forcing number:
    matching edges i-(n+i) plus one connector pair per edge pair, parallel
    on the given pairs (either order) and crossed on the rest."""
    if n < 1:
        raise PreconditionError("signature needs at least one pair")
    return _labeled(n, _signature_edges(n, _pair_set(n, parallel, "parallel pair")))


def gen_h_k(n: int, k: int) -> LabeledGraph:
    """Ladder family member: pairs (2i, 2i+1) parallel for i < k, the rest
    crossed.  Valid for 0 <= k <= (n-1)//2."""
    if n < 1:
        raise PreconditionError("need at least one matching edge")
    if not 0 <= k <= (n - 1) // 2:
        raise PreconditionError(f"k={k} out of range for n={n}")
    return gen_minimal_from_signature(n, [(2 * i, 2 * i + 1) for i in range(k)])


_UNSET = object()


def gen_non_2_extendable(
    case: str,
    n: int,
    u_edges: Optional[Sequence[tuple[int, int]]] = None,
    triangle: Optional[Sequence[int]] = None,
    parallel_index: Optional[int] = _UNSET,
    extra_v_edges: Optional[Sequence[tuple[int, int]]] = None,
) -> LabeledGraph:
    """Non-2-extendable graph with maximal forcing number, case "i" or "ii".

    Vertices are u_i = i and v_i = n + i with base matching i-(n+i); pair
    indices in the options are 0-based.  Case "i" (n >= 4) puts a triangle
    on the last three v's (or on ``triangle``) and the given edges on the u
    side (default two independent edges).  Case "ii" (n >= 3) makes pair
    ``parallel_index`` (default 0, None for no pair) parallel to the final
    pair and crosses the rest; ``u_edges`` and ``extra_v_edges`` (pairs
    (l, n-1) on the v side) extend it.  Missing connector pairs are
    completed with crosses so the base matching keeps maximal forcing
    number.  An option the case does not take (``parallel_index`` or
    ``extra_v_edges`` in case i, ``triangle`` in case ii), options that
    break the target structure, or a pair repeated within ``u_edges`` or
    ``extra_v_edges`` raise PreconditionError.
    """
    if case == "i":
        if n < 4:
            raise PreconditionError("case i needs n >= 4")
        if parallel_index is not _UNSET:
            raise PreconditionError("case i takes no parallel_index")
        if extra_v_edges is not None:
            raise PreconditionError("case i takes no extra_v_edges")
        if u_edges is None:
            u_edges = ((0, 1), (2, 3))
        if triangle is None:
            triangle = (n - 3, n - 2, n - 1)
        tri = tuple(sorted(triangle))
        if len(set(tri)) != 3 or tri[0] < 0 or tri[2] >= n:
            raise PreconditionError("triangle must name three distinct pairs")
        e_u = _pair_set(n, u_edges, "u-side edge")
        e_v = set(combinations(tri, 2))
    elif case == "ii":
        if n < 3:
            raise PreconditionError("case ii needs n >= 3")
        if triangle is not None:
            raise PreconditionError("case ii takes no triangle")
        if parallel_index is _UNSET:
            parallel_index = 0
        e_u = _pair_set(n, u_edges or (), "u-side edge")
        e_v = _pair_set(n, extra_v_edges or (), "extra v-side edge")
        for q in e_v:
            if q[1] != n - 1:
                raise PreconditionError(
                    f"extra v-side edge {q} must join the pivot pair"
                )
        if parallel_index is not None:
            if not 0 <= parallel_index <= n - 2:
                raise PreconditionError("parallel index must point below the pivot")
            e_u.add((parallel_index, n - 1))
            e_v.add((parallel_index, n - 1))
    else:
        raise PreconditionError(f"unknown case {case!r}; expected 'i' or 'ii'")

    # a pair joined on both sides is parallel; every other pair crosses
    pairs = _signature_edges(n, e_u & e_v)
    pairs += e_u - e_v
    pairs += [(n + a, n + b) for a, b in e_v - e_u]
    lg = _labeled(n, pairs)
    u_mask = (1 << n) - 1
    v_mask = u_mask << n

    if case == "i":
        if not _fits_case_i(lg.graph, u_mask, v_mask):
            raise PreconditionError("options broke the case i structure")
    elif not _fits_case_ii(lg.graph, u_mask, v_mask, n - 1, 2 * n - 1):
        raise PreconditionError("options broke the case ii structure")
    return lg


def enumerate_labeled_graphs(order: int) -> Iterator[Graph]:
    """Every labeled simple graph on the given order, edge-mask ascending.

    Orders above 6 raise PreconditionError, as a guard against
    materializing 2^(order choose 2) graphs.
    """
    if order > 6:
        raise PreconditionError("exhaustive enumeration stops at order 6")
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
        yield Graph(order, tuple(rows))


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
