"""Pure-Python matching kernels.

A :class:`Kernel` is bound to one graph, given as a tuple of adjacency row
masks (bit ``v`` of ``rows[u]`` set iff ``u ~ v``).  It memoizes the number
of perfect matchings (capped at 2) per vertex subset, which is the inner
primitive of every forcing-set check: a set of matching edges forces iff
the graph left after deleting their endpoints has exactly one perfect
matching.  The six whole-graph methods take no mask: ``enumerate_pms``
lists the graph's perfect matchings, ``forcing_numbers`` answers any of
them in one search over the partial matchings they share, ``switch_pass``
lists the sorted edges of the switch graph on them, ``matching_facts``
reads what verify asks of them from the same pass over their edge pairs,
without that list, ``vertex_connectivity`` runs unit flows on the
graph's split network and ``bicritical`` probes every two-vertex deletion
through ``count2``.  ``native.c`` has a twin of each; these are the
reference it is held to and the fallback where it cannot run.
"""

from __future__ import annotations

from itertools import combinations
from ..errors import MatchingOverflowError


class Kernel:
    """Per-graph matching counts, matchings, forcing numbers, switch pass,
    matching facts, vertex connectivity and bicriticality."""

    __slots__ = ("rows", "order", "_count_cache")

    def __init__(self, rows):
        self.rows = tuple(rows)
        self.order = len(self.rows)
        self._count_cache = {0: 1}

    def count2(self, mask: int) -> int:
        """Perfect matchings of the subgraph induced by ``mask``, capped at 2."""
        if mask.bit_count() & 1:
            return 0
        return self._count2(mask)

    def _count2(self, mask: int) -> int:
        cache = self._count_cache
        hit = cache.get(mask)
        if hit is not None:
            return hit
        u_bit = mask & -mask
        u = u_bit.bit_length() - 1
        rest = mask ^ u_bit
        free = self.rows[u] & rest
        total = 0
        while free:
            v_bit = free & -free
            free ^= v_bit
            total += self._count2(rest ^ v_bit)
            if total >= 2:
                total = 2
                break
        cache[mask] = total
        return total

    def enumerate_pms(self, cap: int) -> list:
        """All perfect matchings of the graph, lexicographically.

        Each matching is a flat tuple (u0, v0, u1, v1, ...) with u0 < u1 < ...
        and ui < vi, which is exactly the canonical edge order.  The lowest
        uncovered vertex is always matched next, neighbours in ascending
        order, so output order is lexicographic on that tuple.
        """
        if self.order & 1:
            return []
        out: list = []
        rows = self.rows
        stack: list = []

        def rec(m: int) -> None:
            if m == 0:
                if len(out) >= cap:
                    raise MatchingOverflowError(
                        f"more than {cap} perfect matchings"
                    )
                out.append(tuple(stack))
                return
            u_bit = m & -m
            u = u_bit.bit_length() - 1
            rest = m ^ u_bit
            free = rows[u] & rest
            while free:
                v_bit = free & -free
                free ^= v_bit
                stack.append(u)
                stack.append(v_bit.bit_length() - 1)
                rec(rest ^ v_bit)
                stack.pop()
                stack.pop()

        rec((1 << self.order) - 1)
        return out

    def forcing_numbers(self, matchings) -> list:
        """Forcing number of each given perfect matching of the graph.

        ``matchings`` are flat tuples (u0, v0, u1, v1, ...); any subset of
        the perfect matchings may be given, and each gets the same number
        as when given alone.  With k edges per matching, f(M) = k - |K| for
        the largest K in M whose vertices induce a uniquely matchable
        subgraph, and a removed set S in M forces every matching that holds
        it iff ``count2(V(G) ^ V(S)) <= 1``.  Uniquely matchable kept
        sets are closed downward and forcing removed sets upward, so the
        search works from both ends over partial matchings shared by all
        the given ones: it grows uniquely matchable kept sets one level at
        a time, and scans removed sets by ascending size.  A set is the
        tuple of its edge indices in sorted edge order, extended only by
        later edges, so each is made once for the whole graph.  Its holders
        (a bitset over ``matchings``) are the AND of its edges' holders;
        a set none of whose holders is unresolved is dropped.  A matching
        gets f = s when a forcing removed set of size s holds it, f = k - t
        when a uniquely matchable kept set of size t holds it but none of
        size t + 1 does, and f = s = k - t when the two ends meet.  Each
        step takes the side whose frontier has fewer candidate extensions,
        growth on a tie.
        """
        out = [0] * len(matchings)
        full_mask = (1 << self.order) - 1
        if not matchings or self._count2(full_mask) <= 1:
            return out
        holders_of: dict = {}
        for i, flat in enumerate(matchings):
            bit = 1 << i
            it = iter(flat)
            for u, v in zip(it, it):
                edge = (1 << u) | (1 << v)
                holders_of[edge] = holders_of.get(edge, 0) | bit
        masks = sorted(holders_of)
        holders = [holders_of[m] for m in masks]
        edges = len(masks)
        k = len(matchings[0]) // 2
        count2 = self._count2
        # every test is a union of matching edges, so it has a perfect
        # matching: a memo hit is never 0, and a miss falls through
        memo = self._count_cache.get
        unresolved = (1 << len(matchings)) - 1

        def extend(frontier):
            """Each entry's extensions by one later edge that some
            unresolved matching holds, as (indices, vertex mask, holders).
            Entries keep only edge indices, which keeps a frontier small;
            the mask and holders are rebuilt here."""
            for entry in frontier:
                union = 0
                held = unresolved
                for i in entry:
                    union |= masks[i]
                    held &= holders[i]
                if not held:
                    continue
                for j in range(entry[-1] + 1 if entry else 0, edges):
                    if not masks[j] & union:
                        both = held & holders[j]
                        if both:
                            yield entry + (j,), union | masks[j], both

        def candidates(frontier) -> int:
            return sum(edges - 1 - e[-1] if e else edges for e in frontier)

        # an unresolved matching is forced by no removed set of size <= s
        # and holds a uniquely matchable kept set of size t
        scanned = [()]
        grown = [(j,) for j in range(edges)]
        s, t = 0, 1
        while unresolved and s + 1 < k - t:
            if candidates(scanned) < candidates(grown):
                before = unresolved
                level = []
                for entry, union, held in extend(scanned):
                    held &= unresolved  # some may be resolved at this size
                    if held:
                        kept = full_mask ^ union
                        if (memo(kept) or count2(kept)) <= 1:
                            unresolved ^= held
                        else:
                            level.append(entry)
                s += 1
                _assign(out, before ^ unresolved, s)
                scanned = level
            else:
                level = []
                kept_by = 0
                for entry, union, held in extend(grown):
                    if (memo(union) or count2(union)) == 1:
                        level.append(entry)
                        kept_by |= held
                _assign(out, unresolved & ~kept_by, k - t)
                unresolved &= kept_by
                t += 1
                grown = level
        _assign(out, unresolved, s + 1)
        return out

    def switch_pass(self, matchings) -> list:
        """The sorted edges (i, j), i < j, of the switch graph whose nodes
        are ``matchings``, perfect matchings of the graph as flat tuples
        (u0, v0, u1, v1, ...), u0 < u1 < ..., ui < vi: two matchings are
        adjacent iff they share all but two edges (see `_switch_pairs`)."""
        bits_of = _edge_bits(matchings, self._edge_ranks()[0])
        return sorted((j, i) for i, j in self._switch_pairs(bits_of)[0])

    def matching_facts(self, matchings, forcing) -> tuple:
        """What the given perfect matchings of the graph, with their
        forcing numbers, answer without building the switch graph's
        adjacency, as ``(switched, covered, bond, jump, reach)``:

        - ``switched``: per matching, the pairs of its edges that span an
          alternating 4-cycle (see `_switch_pairs`);
        - ``covered``: whether every pair of disjoint edges of the graph
          lies in a common matching.  An edge of the graph in no matching
          leaves its pairs uncovered;
        - ``bond``: the lowest edge (u, v) common to all the matchings, or
          None (also for no matchings);
        - ``jump``: the first switch edge (i, j), i < j, in sorted order,
          whose forcing numbers differ by more than 1, or None;
        - ``reach``: whether every matching's switch component holds a
          matching of forcing number k - 1, for k edges per matching; the
          components come from a union-find over the switch edges.

        With ``matchings`` all the perfect matchings of a connected graph
        of order >= 6, ``covered`` says whether it is 2-extendable.

        Memory, here and in `switch_pass`: the pass keys all C(k, 2) rests
        of each of the N matchings at once, and nothing bounds it.
        ``native.c``'s table of them takes 24 * 2**ceil(log2(2 * N *
        C(k, 2))) bytes: one native call on the 284,023 matchings of an
        order-16 top-forcing graph raised peak RSS from 70 to 498 MB.
        """
        bit, edges = self._edge_ranks()
        bits_of = _edge_bits(matchings, bit)
        pairs, switched = self._switch_pairs(bits_of)
        holders_of = {}  # per edge bit: the edges of the matchings holding it
        common = -1 if matchings else 0
        for bits in bits_of:
            key = sum(bits)
            common &= key
            for b in bits:
                holders_of[b] = holders_of.get(b, 0) | key
        touching = [0] * self.order
        for r, (u, v) in enumerate(edges):
            touching[u] |= 1 << r
            touching[v] |= 1 << r
        every = (1 << len(edges)) - 1
        covered = all(
            not every & ~(touching[u] | touching[v] | holders_of.get(1 << r, 0))
            for r, (u, v) in enumerate(edges)
        )
        bond = edges[(common & -common).bit_length() - 1] if common else None
        jump = min(
            ((j, i) for i, j in pairs if abs(forcing[i] - forcing[j]) > 1),
            default=None,
        )
        parent = list(range(len(matchings)))

        def root(i: int) -> int:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i

        for i, j in pairs:
            parent[root(i)] = root(j)
        top = len(matchings[0]) // 2 - 1 if matchings else 0
        tops = {root(i) for i, f in enumerate(forcing) if f == top}
        reach = all(root(i) in tops for i in range(len(matchings)))
        return tuple(switched), covered, bond, jump, reach

    def vertex_connectivity(self) -> int:
        """Exact vertex connectivity; order - 1 for a complete graph, 0 for
        a disconnected one or order <= 1.  By Menger, the minimum over
        non-adjacent pairs s < t of the most vertex-disjoint s-t paths,
        each pair's flow stopped at the least found so far.

        The split network as residual rows: vertex v is entry 2v and exit
        2v + 1, with unit arcs entry -> exit and exit -> each neighbour's
        entry.  No two arcs are antiparallel, so pushing a unit along
        x -> y is one bit flip in each of res[x] and res[y]."""
        rows = self.rows
        n = self.order
        if n <= 1:
            return 0
        net = []
        for v, row in enumerate(rows):
            net.append(1 << (2 * v + 1))
            net.append(sum(1 << (2 * w) for w in range(n) if row >> w & 1))
        best = n - 1
        for s in range(n):
            for t in range(s + 1, n):
                if not rows[s] >> t & 1:
                    best = _disjoint_paths(net, 2 * s + 1, 2 * t, best)
                    if best == 0:
                        return 0
        return best

    def bicritical(self) -> bool:
        """Whether every two-vertex deletion leaves a perfect matching,
        probed through ``count2`` for u < v in (u, v) order up to the
        first that leaves none."""
        full = (1 << self.order) - 1
        count2 = self.count2
        return all(
            count2(full ^ (1 << u) ^ (1 << v)) > 0
            for u in range(self.order)
            for v in range(u + 1, self.order)
        )

    def _edge_ranks(self) -> tuple:
        """``bit[u][v]``, u < v, is 1 << r for the edge (u, v) of rank r in
        the graph, and ``edges[r]`` is that edge."""
        rows = self.rows
        bit = [[0] * len(rows) for _ in rows]
        edges = []
        for u, row in enumerate(rows):
            later = row >> u + 1 << u + 1
            while later:
                v_bit = later & -later
                later ^= v_bit
                v = v_bit.bit_length() - 1
                bit[u][v] = 1 << len(edges)
                edges.append((u, v))
        return bit, edges

    @staticmethod
    def _switch_pairs(bits_of) -> tuple:
        """The switch edges (i, j), j < i, and the switched-pair counts of
        the matchings whose edge bits are ``bits_of``.

        A matching's key is the sum of its edge bits.  Two matchings are
        adjacent iff they share all but two edges, that is iff clearing two
        edges' bits from each key leaves the same rest.  The rest covers all
        but four vertices, so at most three matchings share it (the perfect
        matchings of those four), pairwise adjacent: each matching is joined
        to the first and the second earlier matching with each of its
        rests, so every switch edge is found once.  A rest that a second
        matching shares is a switched pair of both, and of a third as it
        comes: a pair of a matching's edges is switched iff it spans an
        alternating 4-cycle.
        """
        first: dict[int, int] = {}
        second: dict[int, int] = {}
        pairs = []
        switched = [0] * len(bits_of)
        for i, bits in enumerate(bits_of):
            key = sum(bits)
            for x, y in combinations(bits, 2):
                rest = key ^ x ^ y
                j = first.setdefault(rest, i)
                if j != i:
                    switched[i] += 1
                    pairs.append((i, j))
                    k = second.setdefault(rest, i)
                    if k == i:
                        switched[j] += 1
                    else:
                        pairs.append((i, k))
        return pairs, switched


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


def _edge_bits(matchings, bit) -> list:
    """Each flat matching's edges as their bits ``bit[u][v]``."""
    out = []
    for flat in matchings:
        it = iter(flat)
        out.append([bit[u][v] for u, v in zip(it, it)])
    return out


def _assign(out: list, bits: int, value: int) -> None:
    """Set ``out[i] = value`` for every set bit i of ``bits``."""
    text = bin(bits)[:1:-1]
    i = text.find("1")
    while i >= 0:
        out[i] = value
        i = text.find("1", i + 1)
