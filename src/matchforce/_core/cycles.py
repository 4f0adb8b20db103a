"""Alternating-cycle search over bitmask graphs.

A cycle alternating with respect to a perfect matching M is traversed as a
chain of matching edges linked by non-matching edges.  The search walks
exactly that chain: from the vertex just reached along a matching edge it
follows a non-matching edge, then the matching edge covering the far end.
Each undirected cycle is produced exactly once, as the vertex sequence
``(a, b, ...)`` where ``(a, b)`` is its matching edge with the smallest
endpoint ``a`` and the walk leaves from ``b``; the reverse traversal never
arises because the walk always enters through ``b``.

Naive directed-cycle detection on the "edge hops to edge" digraph is not
sound here: a directed cycle can reuse a matching edge in both directions
without the graph having any alternating cycle, so the walk must track the
matching edges already on the path (membership of either endpoint in the
path's vertex mask, since endpoints enter in pairs).

The search runs on the subgraph that a vertex mask ``alive`` induces.  A
matching edge with an end outside ``alive`` is not in that subgraph, so
the walk never steps onto it.  ``forcing.is_forcing_set`` takes ``next``
of the generator for its counterexample cycle.
"""

from __future__ import annotations


def alternating_cycles(rows, mates, alive: int):
    """Yield the alternating cycles of the subgraph ``alive`` induces, as
    vertex tuples (see the module docstring for their form and order)."""

    def walk(path, seen):
        a = path[0]
        x = path[-1]
        nb = rows[x] & alive & ~(1 << mates[x])
        while nb:
            bit = nb & -nb
            nb ^= bit
            y = bit.bit_length() - 1
            if y == a:
                yield tuple(path)
            elif not seen & bit:
                z = mates[y]
                if min(y, z) > a and alive >> z & 1:
                    yield from walk(path + [y, z], seen | bit | 1 << z)

    roots = alive
    while roots:
        bit = roots & -roots
        roots ^= bit
        a = bit.bit_length() - 1
        b = mates[a]
        if b > a and alive >> b & 1:
            yield from walk([a, b], bit | 1 << b)
