"""Matching 2-switch dynamics.

Nodes of the switch graph are the perfect matchings of a host graph;
two matchings are adjacent when they differ by one alternating 4-cycle,
that is when they share all but two edges.  The symmetric difference of
adjacent matchings is that cycle's edge set, so each switch edge is
realized by exactly one cycle.  The build works on the profile's flat
matchings alone and keeps adjacency and each node's switched pairs,
which answer Lemma 2.2 (see `SwitchGraph`); ``switch_path`` derives the
cycle of each hop it takes from the hop's two matchings, so verifying or
reporting a switch graph never builds a cycle, and `PerfectMatching`
objects are made only for a path or a reported violation.
"""

from __future__ import annotations

from bisect import bisect_right
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


@dataclass(frozen=True)
class SwitchGraph:
    """Transition graph over all perfect matchings of one host graph.

    ``matchings`` holds the nodes as flat tuples (u0, v0, u1, v1, ...),
    ``forcing`` their forcing numbers and ``adjacency`` their sorted
    neighbour indices.  ``switched_pairs`` counts, per node, the pairs of
    its edges that span an alternating 4-cycle, so Lemma 2.2 reads node i
    as maximal iff all C(n, 2) pairs switch.  ``nodes`` holds the same
    matchings as `PerfectMatching` objects; it is built on first use.
    """

    matchings: tuple[tuple[int, ...], ...]
    forcing: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]
    switched_pairs: tuple[int, ...]

    @cached_property
    def nodes(self) -> tuple[PerfectMatching, ...]:
        return tuple(map(PerfectMatching._unchecked, self.matchings))

    @cached_property
    def node_index(self) -> dict[PerfectMatching, int]:
        return {m: i for i, m in enumerate(self.nodes)}

    def edges(self) -> list[tuple[int, int]]:
        """Edges (i, j) with i < j, sorted."""
        return [
            (i, j) for i, nbrs in enumerate(self.adjacency) for j in nbrs if i < j
        ]


@dataclass(frozen=True, slots=True)
class SwitchPath:
    """Matching sequence where each step applies the recorded 4-cycle."""

    matchings: tuple[PerfectMatching, ...]
    cycles: tuple[AlternatingCycle, ...]

    def __post_init__(self):
        if len(self.matchings) != len(self.cycles) + 1:
            raise ValueError("path needs one more matching than cycles")


@dataclass(frozen=True, slots=True)
class ContinuityReport:
    """Spectrum continuity facts for one graph.

    ``applicable`` marks graphs whose maximum forcing number is maximal;
    ``reach_max`` states that every matching can be switched into one of
    maximal forcing number, which is the mechanism behind continuity.
    """

    applicable: bool
    spectrum_continuous: bool
    reach_max: bool


def build_switch_graph(
    g: Graph, profile: SpectrumReport | None = None
) -> SwitchGraph:
    """Full switch graph with forcing numbers and switched pairs per node.

    The nodes are the matchings of ``profile``, or of ``forcing_profile(g)``
    when none is given.  A profile holds every perfect matching, since
    `forcing_profile` raises `MatchingOverflowError` past its cap.
    The pass that finds the adjacency and switched pairs is the graph
    kernel's ``switch_pass``.
    """
    if profile is None:
        profile = forcing_profile(g)
    adjacency, switched = _kernel(g).switch_pass(profile.matchings)
    return SwitchGraph(profile.matchings, profile.forcing, adjacency, switched)


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


def verify_switch_bound(
    sg: SwitchGraph,
) -> tuple[bool, Optional[tuple[PerfectMatching, PerfectMatching]]]:
    """Check that adjacent matchings have forcing numbers within 1.

    Each switch edge is read once, from its lower end i, over the sorted
    neighbours j > i, so the first violation, in ``sg.edges()`` order, is
    reported as its two matchings with i < j."""
    f = sg.forcing
    for i, nbrs in enumerate(sg.adjacency):
        fi = f[i]
        for j in nbrs[bisect_right(nbrs, i):]:
            if abs(fi - f[j]) > 1:
                pair = sg.matchings[i], sg.matchings[j]
                return False, tuple(map(PerfectMatching._unchecked, pair))
    return True, None


def verify_spectrum_continuity(
    g: Graph,
    profile: SpectrumReport | None = None,
    sg: SwitchGraph | None = None,
) -> ContinuityReport:
    """Continuity facts: spectrum interval-ness and reachability of a
    maximal-forcing matching from every matching.  ``profile`` and ``sg``
    default to ``forcing_profile(g)`` and the switch graph built from it;
    a profile already made, with any matching cap, goes in through
    ``profile``."""
    if profile is None:
        profile = forcing_profile(g)
    if sg is None:
        sg = build_switch_graph(g, profile=profile)
    n = g.order // 2
    applicable = n >= 1 and profile.max_forcing == n - 1
    # one search from every top matching at once marks what reaches the top
    seen = [f == n - 1 for f in sg.forcing]
    stack = [i for i, top in enumerate(seen) if top]
    while stack:
        for j in sg.adjacency[stack.pop()]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return ContinuityReport(applicable, profile.continuous, all(seen))
