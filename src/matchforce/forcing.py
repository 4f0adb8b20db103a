"""Exact forcing numbers, forcing sets and forcing spectra.

A subset S of a perfect matching M forces M iff the graph left after
deleting V(S) has no M-alternating cycle, equivalently iff it has exactly
one perfect matching.  Forcing numbers come from one kernel call per graph
(``Kernel.forcing_numbers``), a two-ended search over the partial
matchings that the given matchings share: it grows uniquely matchable
kept sets and scans forcing removed sets by ascending size, each set made
once for all of its matchings.  Every forcing check is answered by the
memoized matching-count kernel.  The profile keeps the kernel's flat
matchings (see `SpectrumReport`).  ``forcing_number`` adds a certificate:
the first forcing set of the optimal size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from ._core.cycles import alternating_cycles
from .errors import NoPerfectMatchingError, PreconditionError
from .graph import (
    DEFAULT_MATCHING_CAP,
    AlternatingCycle,
    Edge,
    Graph,
    PerfectMatching,
    _kernel,
    check_perfect_matching,
)


@dataclass(frozen=True, slots=True)
class ForcingCertificate:
    """Optimal forcing set for one matching.

    ``optimum`` comes from the kernel's two-ended search, and
    ``witness_set`` is the lexicographically first optimal set.
    """

    matching: PerfectMatching
    optimum: int
    witness_set: tuple[Edge, ...]


@dataclass(frozen=True)
class SpectrumReport:
    """Forcing numbers of every perfect matching of one graph.

    ``matchings`` holds the matchings as the kernel's flat tuples
    (u0, v0, u1, v1, ...) in canonical order, and ``forcing`` their forcing
    numbers in the same order.
    """

    order: int
    matchings: tuple[tuple[int, ...], ...]
    forcing: tuple[int, ...]
    spectrum: tuple[int, ...] = field(init=False)
    min_forcing: int = field(init=False)
    max_forcing: int = field(init=False)
    continuous: bool = field(init=False)

    def __post_init__(self):
        if not self.forcing:
            raise ValueError("spectrum report needs at least one matching")
        values = sorted(set(self.forcing))
        object.__setattr__(self, "spectrum", tuple(values))
        object.__setattr__(self, "min_forcing", values[0])
        object.__setattr__(self, "max_forcing", values[-1])
        object.__setattr__(
            self, "continuous", values == list(range(values[0], values[-1] + 1))
        )

    @property
    def matching_count(self) -> int:
        return len(self.matchings)


def _edge_subset_of(m: PerfectMatching, s) -> tuple[Edge, ...]:
    m_set = set(m.edges)
    out = []
    for item in s:
        e = item if isinstance(item, Edge) else Edge.of(*item)
        if e not in m_set:
            raise PreconditionError(f"edge {e} is not in the matching")
        out.append(e)
    if len(set(out)) != len(out):
        raise PreconditionError("forcing-set candidate repeats an edge")
    return tuple(sorted(out))


def is_forcing_set(
    g: Graph, m: PerfectMatching, s
) -> tuple[bool, Optional[AlternatingCycle]]:
    """Whether s (a subset of m) forces m; when it does not, also return an
    alternating cycle avoiding V(s) as the counterexample."""
    check_perfect_matching(g, m)
    edges = _edge_subset_of(m, s)
    removed = 0
    for e in edges:
        removed |= e.mask
    alive = g.full_mask & ~removed
    if _kernel(g).count2(alive) <= 1:
        return True, None
    raw = next(alternating_cycles(g.rows, m.mates(g.order), alive))
    return False, AlternatingCycle.canonical(raw)


def forcing_number(g: Graph, m: PerfectMatching) -> ForcingCertificate:
    """Exact minimum forcing set size for m, with a witness set.

    The witness is the first forcing subset of the optimal size in
    lexicographic order of edge indices.
    """
    check_perfect_matching(g, m)
    kern = _kernel(g)
    (optimum,) = kern.forcing_numbers([tuple(x for e in m.edges for x in e)])
    witness = next(
        s
        for s in combinations(m.edges, optimum)
        if kern.count2(g.full_mask ^ sum(e.mask for e in s)) <= 1
    )
    return ForcingCertificate(m, optimum, witness)


def forcing_profile(g: Graph, matching_cap: int | None = None) -> SpectrumReport:
    """Forcing number of every perfect matching, in canonical matching order.

    One kernel search gives all the numbers.  Past ``matching_cap``
    matchings it raises `MatchingOverflowError`, so a profile holds every
    perfect matching.  The search itself has no memory bound: its
    frontiers of partial matchings can outgrow the machine on a sparse
    graph with few matchings (a 64-cycle with eight chords, 257
    matchings, was killed out of memory).  The matchings stay the
    kernel's flat tuples; see `SpectrumReport`."""
    kern = _kernel(g)
    if matching_cap is None:
        matching_cap = DEFAULT_MATCHING_CAP
    matchings = tuple(kern.enumerate_pms(matching_cap))
    if not matchings:
        raise NoPerfectMatchingError("graph has no perfect matching")
    forcing = kern.forcing_numbers(matchings)
    return SpectrumReport(g.order, matchings, tuple(forcing))
