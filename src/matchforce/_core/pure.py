"""Pure-Python matching kernels.

A :class:`Kernel` is bound to one graph, given as a tuple of adjacency row
masks (bit ``v`` of ``rows[u]`` set iff ``u ~ v``).  It memoizes the number
of perfect matchings (capped at 2) per vertex subset, which is the inner
primitive of every forcing-set check: a set of matching edges forces iff
the graph left after deleting their endpoints has exactly one perfect
matching.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from ..errors import MatchingOverflowError


class Kernel:
    """Per-graph matching-count, forcing-scan and forcing-optimum primitives."""

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

    def enumerate_pms(self, mask: int, cap: int) -> list:
        """All perfect matchings of the induced subgraph, lexicographically.

        Each matching is a flat tuple (u0, v0, u1, v1, ...) with u0 < u1 < ...
        and ui < vi, which is exactly the canonical edge order.  The lowest
        uncovered vertex is always matched next, neighbours in ascending
        order, so output order is lexicographic on that tuple.
        """
        if mask.bit_count() & 1:
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

        rec(mask)
        return out

    def forcing_scan(self, full_mask: int, edge_masks, size: int):
        """First forcing subset of ``size`` matching edges, by index order.

        ``edge_masks[i]`` is the two-vertex mask of matching edge ``i``, so
        the masks are distinct and pairwise disjoint.  Candidate subsets are
        scanned in lexicographic order of their sorted index tuples.  Returns
        ``(indices | None, tested)`` where ``tested`` counts the candidate
        sets whose forcing check ran.
        """
        if size > len(edge_masks):
            return None, 0
        count2 = self._count2
        tested = 0
        for tested, subset in enumerate(combinations(edge_masks, size), 1):
            if count2(full_mask ^ sum(subset)) <= 1:
                return tuple(edge_masks.index(m) for m in subset), tested
        return None, tested

    def forcing_optimum(self, full_mask: int, edge_masks) -> int:
        """Minimum number of matching edges that force the matching.

        ``edge_masks`` are the two-vertex masks of a perfect matching of the
        subgraph induced by ``full_mask``.  A removed set S forces iff the
        kept edges induce a uniquely matchable subgraph, so forcing removed
        sets are closed upward and uniquely matchable kept sets downward.
        The search works from both ends: ``s`` is a size below which no
        removed set forces, ``t`` the size of some uniquely matchable kept
        set, and s <= f <= k - t.  Each step takes the cheaper side, growth
        on a tie: the scan of all removed sets of size ``s``, which may stop
        early, or the growth of every uniquely matchable kept set by one
        edge of higher index (the failures are pruned, which downward
        closure makes sound).  Scanning alone costs about 2**f sets,
        growing alone about 2**(k - f).  A growth test asks ``count2`` of a
        small union that other matchings of the graph have often asked
        about already, but a scan test at small ``s`` asks it of a large
        kept mask, often a cold memo entry with a deep recursion; so each
        scan test is weighted by (k - s)**2, the square of its kept-set
        size, and growth tests count one each.
        """
        count2 = self._count2
        # every test is a union of matching edges, so it has a perfect
        # matching: a memo hit is never 0, and a miss falls through
        memo = self._count_cache.get
        k = len(edge_masks)
        s = 0
        # uniquely matchable kept sets of size t as (highest index, vertex
        # mask); one matching edge alone always is one
        level = list(enumerate(edge_masks))
        t = min(k, 1)
        while s + t < k:
            grow_cost = len(level) * (k - 1) - sum([last for last, _ in level])
            if comb(k, s) * (k - s) ** 2 < grow_cost:
                for removed in map(sum, combinations(edge_masks, s)):
                    kept = full_mask ^ removed
                    if (memo(kept) or count2(kept)) <= 1:
                        return s
                s += 1
            else:
                grown = []
                for last, union in level:
                    for j in range(last + 1, k):
                        kept = union | edge_masks[j]
                        if (memo(kept) or count2(kept)) == 1:
                            grown.append((j, kept))
                if not grown:
                    return k - t
                level = grown
                t += 1
        return s
