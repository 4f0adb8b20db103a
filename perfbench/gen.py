"""Seeded input generators for the benchmark workloads.

These deliberately share no code with ``matchforce.generate``: the
benchmark's inputs must not move when the program's generators change.
Graphs are adjacency row masks (bit ``v`` of ``rows[u]`` set iff u ~ v)
and leave this module only as graph6 text.
"""

from __future__ import annotations

from typing import Iterator

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream (Steele, Lea and Flood, 2014)."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def stream_for(seed: int, workload: str) -> Iterator[int]:
    """Independent stream per (seed, workload) pair."""
    salt = 0
    for ch in workload.encode():
        salt = (salt * 131 + ch) & _MASK64
    return splitmix64(seed ^ salt)


def graph6(rows: list[int]) -> str:
    """Headerless graph6: order byte, then the upper triangle column-major."""
    n = len(rows)
    if n > 62:
        raise ValueError("graph6 here supports order <= 62")
    chars = [chr(63 + n)]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((rows[i] >> j) & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(63 + acc))
                acc = nbits = 0
    if nbits:
        chars.append(chr(63 + (acc << (6 - nbits))))
    return "".join(chars)


def count_perfect_matchings(rows: list[int]) -> int:
    """Number of perfect matchings, by matching the lowest free vertex."""
    memo = {0: 1}

    def count(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        low = mask & -mask
        rest = mask ^ low
        free = rows[low.bit_length() - 1] & rest
        total = 0
        while free:
            bit = free & -free
            free ^= bit
            total += count(rest ^ bit)
        memo[mask] = total
        return total

    n = len(rows)
    return 0 if n % 2 else count((1 << n) - 1)


def _permutation(n: int, stream: Iterator[int]) -> list[int]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = next(stream) % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


# The 7 connector subsets of a matching-edge pair (a, b), (c, d) that hold
# the parallel pair {ac, bd} or the crossed pair {ad, bc}.  Bits: 1 = ac,
# 2 = bd, 4 = ad, 8 = bc.
TOP_CONNECTOR_SUBSETS = tuple(
    s for s in range(16) if (s & 3) == 3 or (s & 12) == 12
)


def top_forcing_graph(n: int, stream: Iterator[int]) -> tuple[str, list[tuple[int, int]]]:
    """One graph on 2n vertices with maximum forcing number n - 1.

    The base matching is (2i, 2i + 1); every pair of its edges gets one of
    the 7 connector subsets that close an alternating 4-cycle, which by
    Lemma 2.2 gives f(G, M) = n - 1.  The vertices are then relabelled by a
    seeded permutation.  Returns the graph6 text and the relabelled base
    matching.
    """
    order = 2 * n
    rows = [0] * order

    def join(x: int, y: int) -> None:
        rows[x] |= 1 << y
        rows[y] |= 1 << x

    for i in range(n):
        join(2 * i, 2 * i + 1)
    for i in range(n):
        a, b = 2 * i, 2 * i + 1
        for j in range(i + 1, n):
            c, d = 2 * j, 2 * j + 1
            subset = TOP_CONNECTOR_SUBSETS[next(stream) % len(TOP_CONNECTOR_SUBSETS)]
            for bit, (x, y) in zip((1, 2, 4, 8), ((a, c), (b, d), (a, d), (b, c))):
                if subset & bit:
                    join(x, y)
    perm = _permutation(order, stream)
    relabelled = [0] * order
    for u in range(order):
        row = 0
        for v in range(order):
            if (rows[u] >> v) & 1:
                row |= 1 << perm[v]
        relabelled[perm[u]] = row
    matching = [tuple(sorted((perm[2 * i], perm[2 * i + 1]))) for i in range(n)]
    return graph6(relabelled), sorted(matching)


def top_forcing_graphs(seed: int, n: int = 5) -> Iterator[tuple[str, list[tuple[int, int]]]]:
    """Endless stream of top-forcing graphs on 2n vertices."""
    stream = stream_for(seed, "top-forcing")
    while True:
        yield top_forcing_graph(n, stream)


def dense_graph(order: int, stream: Iterator[int]) -> list[int]:
    """Bernoulli graph with edge probability 2/3 (one draw per pair)."""
    rows = [0] * order
    for i in range(order):
        for j in range(i + 1, order):
            if next(stream) % 3 < 2:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def dense_graphs(seed: int, order: int, band: tuple[int, int]) -> Iterator[tuple[str, int]]:
    """Endless stream of (graph6, matching count) for dense graphs whose
    perfect-matching count lies in ``band`` (inclusive).

    The band keeps the per-graph cost of a run within a narrow range, so
    that a run's figures depend little on which graphs the seed drew.
    """
    stream = stream_for(seed, "dense")
    lo, hi = band
    while True:
        rows = dense_graph(order, stream)
        count = count_perfect_matchings(rows)
        if lo <= count <= hi:
            yield graph6(rows), count
