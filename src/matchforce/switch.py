"""Matching 2-switch dynamics.

Nodes of the switch graph are the perfect matchings of a host graph;
two matchings are adjacent when they differ by one alternating 4-cycle,
that is when they share all but two edges.  The symmetric difference of
adjacent matchings is that cycle's edge set, so each switch edge is
realized by exactly one cycle.  A `SwitchGraph` holds the profile's flat
matchings, and the host graph's kernel reads the rest from them on first
use: the sorted edges (``switch_pass``), which ``analyze`` reports and
the searches derive their adjacency from, or the facts that ``verify``
reads (``matching_facts``, see `MatchingFacts`), which need no edges.
``switch_path`` derives the cycle of each hop it takes from the hop's two
matchings, so verifying or reporting a switch graph never builds a cycle,
and `PerfectMatching` objects are made only for a path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import PreconditionError
from .forcing import SpectrumReport, forcing_profile
from .graph import (
    AlternatingCycle,
    Edge,
    Graph,
    PerfectMatching,
    _kernel,
)


@dataclass(frozen=True, slots=True)
class MatchingFacts:
    """What verify reads off a graph's perfect matchings, from the kernel's
    ``matching_facts`` pass.

    - ``switched_pairs``: per node, the pairs of its edges that span an
      alternating 4-cycle, so Lemma 2.2 reads node i as maximal iff all
      C(n, 2) pairs switch;
    - ``pair_cover``: whether every pair of disjoint edges of the host graph
      lies in a common perfect matching, which for a connected graph of
      order >= 6 is 2-extendability (Theorem 4.1);
    - ``fixed_bond``: the lowest edge (u, v) of every perfect matching, or
      None (Lemma 2.3);
    - ``first_jump``: the first switch edge (i, j) in ``SwitchGraph.edges()``
      order whose forcing numbers differ by more than 1, or None (Lemma
      5.6);
    - ``reaches_top``: whether every node switches, in some number of steps,
      into a node of forcing number n - 1 (Theorem 5.7).
    """

    switched_pairs: tuple[int, ...]
    pair_cover: bool
    fixed_bond: Optional[tuple[int, int]]
    first_jump: Optional[tuple[int, int]]
    reaches_top: bool


@dataclass(frozen=True)
class SwitchGraph:
    """Transition graph over all perfect matchings of one host graph.

    ``matchings`` holds the nodes as flat tuples (u0, v0, u1, v1, ...) and
    ``forcing`` their forcing numbers.  The host's kernel reads the rest on
    first use, each in one pass over the nodes' edge pairs: ``edges()`` and
    ``facts`` (see `MatchingFacts`), which lists no edges.  ``adjacency``
    and ``nodes`` are built in Python on first use.
    """

    matchings: tuple[tuple[int, ...], ...]
    forcing: tuple[int, ...]
    host: Graph

    @cached_property
    def _edges(self) -> list[tuple[int, int]]:
        return _kernel(self.host).switch_pass(self.matchings)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour indices per node, ascending: edge (i, j) precedes
        every edge (j, x), so edge order sorts each row."""
        rows: list[list[int]] = [[] for _ in self.matchings]
        for i, j in self._edges:
            rows[i].append(j)
            rows[j].append(i)
        return tuple(map(tuple, rows))

    @cached_property
    def facts(self) -> MatchingFacts:
        return MatchingFacts(
            *_kernel(self.host).matching_facts(self.matchings, self.forcing)
        )

    @cached_property
    def nodes(self) -> tuple[PerfectMatching, ...]:
        return tuple(map(PerfectMatching._unchecked, self.matchings))

    @cached_property
    def node_index(self) -> dict[PerfectMatching, int]:
        return {m: i for i, m in enumerate(self.nodes)}

    def edges(self) -> list[tuple[int, int]]:
        """The kernel's edges (i, j), i < j, sorted; one list per graph."""
        return self._edges


@dataclass(frozen=True, slots=True)
class SwitchPath:
    """Matching sequence where each step applies the recorded 4-cycle."""

    matchings: tuple[PerfectMatching, ...]
    cycles: tuple[AlternatingCycle, ...]

    def __post_init__(self):
        if len(self.matchings) != len(self.cycles) + 1:
            raise ValueError("path needs one more matching than cycles")


def build_switch_graph(
    g: Graph, profile: SpectrumReport | None = None
) -> SwitchGraph:
    """Full switch graph with a forcing number per node.

    The nodes are the matchings of ``profile``, or of ``forcing_profile(g)``
    when none is given.  A profile holds every perfect matching, since
    `forcing_profile` raises `MatchingOverflowError` past its cap.  The
    edges, the adjacency and the facts are left to the first read of each.
    """
    if profile is None:
        profile = forcing_profile(g)
    return SwitchGraph(profile.matchings, profile.forcing, g)


def switch_path(
    sg: SwitchGraph, src: PerfectMatching, dst: PerfectMatching
) -> Optional[SwitchPath]:
    """Shortest switch path from src to dst, BFS with canonical node order
    breaking ties; None when they lie in different components.  Each hop
    drops matching edges (a, b), (c, d), a smallest, for (a, y), (b, w):
    its cycle is a-b-w-y."""
    try:
        s = sg.node_index[src]
        t = sg.node_index[dst]
    except KeyError:
        raise PreconditionError(
            "matching is not a node of the switch graph"
        ) from None
    if s == t:
        return SwitchPath((src,), ())
    prev: dict[int, int] = {s: s}
    queue = deque([s])
    while queue and t not in prev:
        u = queue.popleft()
        for v in sg.adjacency[u]:
            if v not in prev:
                prev[v] = u
                queue.append(v)
    if t not in prev:
        return None
    hops = [t]
    while hops[-1] != s:
        hops.append(prev[hops[-1]])
    hops.reverse()
    matchings = tuple(sg.nodes[i] for i in hops)
    cycles = []
    for m, after in zip(matchings, matchings[1:]):
        kept = set(after.edges)
        (a, b), (c, d) = sorted(set(m.edges) - kept)
        y, w = (c, d) if Edge(a, c) in kept else (d, c)
        cycles.append(AlternatingCycle.canonical((a, b, w, y)))
    return SwitchPath(matchings, tuple(cycles))


def reaches_top(sg: SwitchGraph) -> bool:
    """Whether every node switches, in some number of steps, into a node
    of forcing number n - 1, for n = the number of edges per matching:
    the reach half of spectrum continuity (Theorem 5.7).  One search from
    every top node at once marks what reaches them; with no top node it
    reads no adjacency."""
    top = len(sg.matchings[0]) // 2 - 1
    seen = [f == top for f in sg.forcing]
    stack = [i for i, is_top in enumerate(seen) if is_top]
    while stack:
        for j in sg.adjacency[stack.pop()]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return all(seen)
