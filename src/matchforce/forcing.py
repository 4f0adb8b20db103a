"""Exact forcing numbers, forcing sets, cycle packing and forcing spectra.

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
from functools import cached_property
from typing import Optional

from ._core.cycles import alternating_cycles
from .errors import CycleOverflowError, NoPerfectMatchingError, PreconditionError
from .graph import (
    DEFAULT_MATCHING_CAP,
    AlternatingCycle,
    Edge,
    Graph,
    PerfectMatching,
    _kernel,
    alternating_four_cycles,
    check_perfect_matching,
    enumerate_alternating_cycles,
)

DEFAULT_CYCLE_CAP = 10**5


@dataclass(frozen=True, slots=True)
class ForcingCertificate:
    """Optimal forcing set for one matching.

    ``optimum`` comes from the kernel's two-ended search, and
    ``witness_set`` is the lexicographically first optimal set.
    """

    matching: PerfectMatching
    optimum: int
    witness_set: tuple[Edge, ...]


@dataclass(frozen=True, slots=True)
class CyclePacking:
    """Maximum number of vertex-disjoint alternating cycles found.

    ``exact`` is False when cycle enumeration overflowed its cap and the
    value is only the 4-cycle packing lower bound.
    """

    value: int
    exact: bool


@dataclass(frozen=True)
class SpectrumReport:
    """Forcing numbers of every perfect matching of one graph.

    ``matchings`` holds the matchings as the kernel's flat tuples
    (u0, v0, u1, v1, ...) in canonical order, and ``forcing`` their forcing
    numbers in the same order.  ``per_matching`` maps `PerfectMatching`
    objects to the same numbers; it is built on first use.
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

    @cached_property
    def per_matching(self) -> dict[PerfectMatching, int]:
        return dict(zip(map(PerfectMatching._unchecked, self.matchings), self.forcing))

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
    flat = tuple(x for e in m.edges for x in e)
    (optimum,) = kern.forcing_numbers(g.full_mask, [flat])
    edge_masks = [e.mask for e in m.edges]
    found, _ = kern.forcing_scan(g.full_mask, edge_masks, optimum)
    witness = tuple(m.edges[i] for i in found)
    return ForcingCertificate(m, optimum, witness)


def _max_disjoint(masks: list[int]) -> int:
    best = 0

    def rec(cands: list[int], count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        for i, cm in enumerate(cands):
            if count + len(cands) - i <= best:
                break
            rec([x for x in cands[i + 1 :] if not (x & cm)], count + 1)

    rec(masks, 0)
    return best


def cycle_packing(
    g: Graph, m: PerfectMatching, cap: int | None = None
) -> CyclePacking:
    """Maximum vertex-disjoint family of m-alternating cycles.

    Exact branch and bound over the full cycle list; when that list would
    exceed ``cap`` the packing is done over 4-cycles only and flagged as a
    lower bound.
    """
    if cap is None:
        cap = DEFAULT_CYCLE_CAP
    try:
        cycles = enumerate_alternating_cycles(g, m, cap=cap)
        exact = True
    except CycleOverflowError:
        cycles = alternating_four_cycles(g, m)
        exact = False
    return CyclePacking(_max_disjoint([c.mask for c in cycles]), exact)


def cycle_packing_number(g: Graph, m: PerfectMatching, cap: int | None = None) -> int:
    return cycle_packing(g, m, cap).value


def forcing_profile(g: Graph, matching_cap: int | None = None) -> SpectrumReport:
    """Forcing number of every perfect matching, in canonical matching order.

    One kernel search gives all the numbers.  Past ``matching_cap``
    matchings it raises `MatchingOverflowError`, so a profile holds every
    perfect matching.  The matchings stay the kernel's flat tuples; see
    `SpectrumReport`."""
    kern = _kernel(g)
    if matching_cap is None:
        matching_cap = DEFAULT_MATCHING_CAP
    matchings = tuple(kern.enumerate_pms(g.full_mask, matching_cap))
    if not matchings:
        raise NoPerfectMatchingError("graph has no perfect matching")
    forcing = kern.forcing_numbers(g.full_mask, matchings)
    return SpectrumReport(g.order, matchings, tuple(forcing))
