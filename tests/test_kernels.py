"""The matching kernel against the brute-force oracles."""

import random
import shlex
import shutil
import sysconfig
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchforce import (
    Graph,
    PerfectMatching,
    forcing_number,
    gen_random,
    kernel_backend,
)
from matchforce._core import NativeKernel, make_kernel, pure
from matchforce.errors import MatchingOverflowError

from graphs import induced_subgraph
from oracles import (
    oracle_forcing_number,
    oracle_is_forcing,
    oracle_perfect_matchings,
)


# the kernel classes the package can make here: the native one needs the
# compiler
KERNELS = [pure.Kernel] + ([NativeKernel] if kernel_backend() == "compiled" else [])


def _flat(pm) -> tuple[int, ...]:
    """Oracle matching as the kernel's flat (u0, v0, u1, v1, ...) tuple."""
    return tuple(x for e in sorted(pm) for x in e)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(0, 255))
def test_count2_matches_oracle(seed, mask_seed):
    g = gen_random(8, "1/2", seed)
    mask = mask_seed & g.full_mask
    vertices = [v for v in range(g.order) if (mask >> v) & 1]
    sub = induced_subgraph(g, vertices)
    expected = min(2, len(oracle_perfect_matchings(sub)))
    assert pure.Kernel(g.rows).count2(mask) == expected


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_enumeration_matches_oracle(seed):
    g = gen_random(8, "2/3", seed)
    expected = sorted(_flat(pm) for pm in oracle_perfect_matchings(g))
    for cls in KERNELS:
        assert cls(g.rows).enumerate_pms(10**6) == expected


def test_enumeration_overflow():
    g = gen_random(8, 1, 0)  # complete graph, 105 matchings
    for cls in KERNELS:
        kern = cls(g.rows)
        assert len(kern.enumerate_pms(105)) == 105
        with pytest.raises(MatchingOverflowError, match="more than 104 perfect matchings"):
            kern.enumerate_pms(104)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_forcing_witness_matches_oracle(seed):
    # the witness is the first set the oracle calls forcing, by size and
    # then in combinations order
    g = gen_random(8, "1/2", seed)
    for pm in oracle_perfect_matchings(g):
        m = PerfectMatching.from_pairs(pm)
        expected = next(
            s
            for size in range(len(m.edges) + 1)
            for s in combinations(m.edges, size)
            if oracle_is_forcing(g, m, s)
        )
        assert forcing_number(g, m).witness_set == expected


# the pure reference and the kernel the package makes, which is the
# native one wherever the native build works; each forcing-number test
# holds both to the same answers
KERNELS = (pure.Kernel, make_kernel)


def _forcing_numbers(g: Graph, matchings) -> list[int]:
    """The forcing numbers that every kernel gives ``matchings``."""
    reference, made = (
        kernel(g.rows).forcing_numbers(matchings) for kernel in KERNELS
    )
    assert made == reference
    return reference


def test_forcing_optimum_matches_oracle():
    # one call over all of a graph's matchings gives each its forcing number
    cases = product((4, 6, 8), ("1/3", "1/2", "3/4"), range(12))
    cases = chain(cases, product((10,), ("1/3", "1/2", "3/4"), range(4)))
    for order, p, seed in cases:
        g = gen_random(order, p, seed)
        expected = {
            _flat(pm): oracle_forcing_number(g, PerfectMatching.from_pairs(pm))
            for pm in oracle_perfect_matchings(g)
        }
        flats = sorted(expected)
        assert _forcing_numbers(g, flats) == [expected[f] for f in flats]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from(["1/2", "2/3", "3/4", "1"]),
)
def test_forcing_numbers_of_any_subset(seed, p):
    # a matching gets the same number alone, within a seeded half of the
    # matchings, and within all of them
    g = gen_random(8, p, seed)
    flats = pure.Kernel(g.rows).enumerate_pms(10**6)
    whole = _forcing_numbers(g, flats)
    for flat, f in zip(flats, whole):
        assert _forcing_numbers(g, [flat]) == [f]
    half = sorted(random.Random(seed).sample(range(len(flats)), len(flats) // 2))
    assert _forcing_numbers(g, [flats[i] for i in half]) == [whole[i] for i in half]


def test_forcing_optimum_empty_matching():
    assert _forcing_numbers(Graph(0, ()), [()]) == [0]
    assert _forcing_numbers(Graph(0, ()), []) == []


def test_forcing_optimum_unique_matching_is_zero():
    # a path on 8 vertices has exactly one perfect matching
    g = Graph.from_edges(8, [(i, i + 1) for i in range(7)])
    (flat,) = pure.Kernel(g.rows).enumerate_pms(10**6)
    assert _forcing_numbers(g, [flat]) == [0]


def test_forcing_optimum_path_with_chord_stays_small():
    # two perfect matchings, each forced by one edge of 30; a search that
    # only grew kept sets would test about 2**28 of them
    g = Graph.from_edges(60, [(i, i + 1) for i in range(59)] + [(0, 3)])
    kern = pure.Kernel(g.rows)
    flats = kern.enumerate_pms(10**6)
    assert len(flats) == 2
    assert _forcing_numbers(g, flats) == [1, 1]
    for flat in flats:
        assert kern.forcing_numbers([flat]) == [1]
        assert _forcing_numbers(g, [flat]) == [1]
    assert len(kern._count_cache) < 10_000


def _compiler_on_path() -> bool:
    return shutil.which(shlex.split(sysconfig.get_config_var("CC") or "cc")[0]) is not None


def test_make_kernel_picks_native_where_it_builds():
    # a pure.Kernel, and its native subclass exactly when the build works
    kern = make_kernel((0b10, 0b01))
    assert isinstance(kern, pure.Kernel)
    assert isinstance(kern, NativeKernel) == _compiler_on_path()
    assert kern.count2(0b11) == 1


def test_backend_reported():
    assert kernel_backend() == ("compiled" if _compiler_on_path() else "pure")
