"""Pure-Python matching kernels.

A :class:`Kernel` is bound to one graph, given as a tuple of adjacency row
masks (bit ``v`` of ``rows[u]`` set iff ``u ~ v``).  It memoizes the number
of perfect matchings (capped at 2) per vertex subset, which is the inner
primitive of every forcing-set check: a set of matching edges forces iff
the graph left after deleting their endpoints has exactly one perfect
matching.
"""

from __future__ import annotations

from ..errors import MatchingOverflowError


class Kernel:
    """Per-graph matching-count and forcing-scan primitives."""

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

        ``edge_masks[i]`` is the two-vertex mask of matching edge ``i``.
        Candidate subsets are scanned in lexicographic order of their sorted
        index tuples.  Returns ``(indices | None, tested)`` where ``tested``
        counts the candidate sets whose forcing check ran.
        """
        k = len(edge_masks)
        if size > k:
            return None, 0
        if size == 0:
            ok = self._count2(full_mask) <= 1
            return ((), 1) if ok else (None, 1)
        idx = list(range(size))
        tested = 0
        while True:
            removed = 0
            for i in idx:
                removed |= edge_masks[i]
            tested += 1
            if self._count2(full_mask ^ removed) <= 1:
                return tuple(idx), tested
            j = size - 1
            while j >= 0 and idx[j] == k - size + j:
                j -= 1
            if j < 0:
                return None, tested
            idx[j] += 1
            for t in range(j + 1, size):
                idx[t] = idx[t - 1] + 1
