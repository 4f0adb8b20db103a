from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchforce import (
    Graph,
    NoPerfectMatchingError,
    PerfectMatching,
    PreconditionError,
    enumerate_perfect_matchings,
    forcing_number,
    forcing_profile,
    gen_h_k,
    gen_random,
    has_perfect_matching,
    is_forcing_set,
    vertex_connectivity,
)

from graphs import cycle_graph, grid_graph, induced_subgraph, star_graph
from oracles import (
    oracle_cycle_packing_number,
    oracle_forcing_number,
    oracle_is_forcing,
)


def first_matching(g):
    return enumerate_perfect_matchings(g)[0]


class TestIsForcingSet:
    def test_k33_all_but_one_edge(self, k33):
        for m in enumerate_perfect_matchings(k33):
            ok, witness = is_forcing_set(k33, m, m.edges[:-1])
            assert ok and witness is None
            assert oracle_is_forcing(k33, m, m.edges[:-1])

    def test_k2_empty_set(self, k2):
        m = first_matching(k2)
        assert is_forcing_set(k2, m, []) == (True, None)

    def test_c6_empty_set_witness(self, c6, c6_matching):
        ok, witness = is_forcing_set(c6, c6_matching, [])
        assert not ok
        assert witness.vertices == (0, 1, 2, 3, 4, 5)

    def test_non_subset_rejected(self, c6, c6_matching):
        with pytest.raises(PreconditionError):
            is_forcing_set(c6, c6_matching, [(1, 2)])


class TestForcingNumber:
    def test_k33_is_two(self, k33):
        for m in enumerate_perfect_matchings(k33):
            cert = forcing_number(k33, m)
            assert cert.optimum == 2 == oracle_forcing_number(k33, m)

    def test_k2_is_zero(self, k2):
        cert = forcing_number(k2, first_matching(k2))
        assert cert.optimum == 0
        assert cert.witness_set == ()

    def test_c6_is_one(self, c6, c6_matching):
        cert = forcing_number(c6, c6_matching)
        assert cert.optimum == 1 == oracle_forcing_number(c6, c6_matching)

    def test_empty_graph(self):
        cert = forcing_number(Graph(0, ()), PerfectMatching(()))
        assert cert.optimum == 0

    def test_certificate_witness_forces(self, c6, c6_matching):
        cert = forcing_number(c6, c6_matching)
        assert is_forcing_set(c6, c6_matching, cert.witness_set)[0]

    def test_certificate_minimality(self, k33):
        # every subset one smaller than the optimum fails to force
        for m in enumerate_perfect_matchings(k33)[:2]:
            cert = forcing_number(k33, m)
            for smaller in combinations(m.edges, cert.optimum - 1):
                assert not is_forcing_set(k33, m, smaller)[0]


class TestCyclePacking:
    """`oracles.oracle_cycle_packing_number`, which the paper invariants
    below compare the forcing number with, on known packings."""

    def test_c6(self, c6, c6_matching):
        assert oracle_cycle_packing_number(c6, c6_matching) == 1

    def test_k2(self, k2):
        assert oracle_cycle_packing_number(k2, first_matching(k2)) == 0

    def test_two_disjoint_squares(self):
        g = Graph.from_edges(
            8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
        )
        m = PerfectMatching.from_pairs([(0, 1), (2, 3), (4, 5), (6, 7)])
        assert oracle_cycle_packing_number(g, m) == 2


class TestForcingProfile:
    def test_k33(self, k33):
        report = forcing_profile(k33)
        assert report.spectrum == (2,)
        assert report.min_forcing == report.max_forcing == 2
        assert report.continuous

    def test_c6(self, c6):
        report = forcing_profile(c6)
        assert report.spectrum == (1,)
        assert report.matching_count == 2

    def test_h_3_1(self):
        report = forcing_profile(gen_h_k(3, 1).graph)
        assert report.spectrum == (1, 2)
        assert report.continuous

    def test_no_matching_rejected(self):
        with pytest.raises(NoPerfectMatchingError):
            forcing_profile(star_graph(3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_profile_equals_certificate_optima(self, seed):
        g = gen_random(8, "2/3", seed)
        if not has_perfect_matching(g):
            return
        profile = forcing_profile(g)
        pms = enumerate_perfect_matchings(g)
        assert profile.matchings == tuple(
            tuple(v for e in m.edges for v in e) for m in pms
        )
        for m, value in zip(pms, profile.forcing):
            assert value == forcing_number(g, m).optimum

    def test_canonical_order(self, c6):
        report = forcing_profile(c6)
        assert list(report.matchings) == sorted(report.matchings)


class TestPaperInvariants:
    def test_packing_bounds_forcing(self):
        # c(M) <= f(G,M) <= n-1 across seeded graphs
        for seed in range(40):
            g = gen_random(8, "1/2", seed)
            for m in enumerate_perfect_matchings(g)[:5]:
                f = forcing_number(g, m).optimum
                assert oracle_cycle_packing_number(g, m) <= f <= len(m) - 1

    @pytest.mark.parametrize("maker", [cycle_graph, None], ids=["c6", "grid"])
    def test_plane_bipartite_minimax(self, maker):
        # on these plane bipartite graphs the forcing number equals the
        # packing number for every matching
        g = maker(6) if maker else grid_graph(2, 3)
        for m in enumerate_perfect_matchings(g):
            assert forcing_number(g, m).optimum == oracle_cycle_packing_number(g, m)

    def test_spanning_subgraph_monotone(self):
        # removing non-matching edges never raises the forcing number
        for seed in range(25):
            g = gen_random(8, "2/3", seed)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            m = pms[0]
            keep = m.cover_mask
            pairs = [tuple(e) for e in g.edges() if e not in set(m.edges)]
            sub_pairs = [p for i, p in enumerate(pairs) if (seed >> (i % 5)) & 1]
            sub = Graph.from_edges(g.order, sub_pairs + list(m.edges))
            assert (
                forcing_number(sub, m).optimum <= forcing_number(g, m).optimum
            )

    def test_partition_additivity(self):
        # f(G, M) >= f(G1, M1) + f(G2, M2) for any split of M
        for seed in range(25):
            g = gen_random(10, "1/2", seed)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            m = pms[0]
            whole = forcing_number(g, m).optimum
            for cut in range(1, len(m)):
                part1, part2 = m.edges[:cut], m.edges[cut:]
                total = 0
                for part in (part1, part2):
                    verts = sorted(v for e in part for v in e)
                    remap = {v: i for i, v in enumerate(verts)}
                    sub = induced_subgraph(g, verts)
                    sub_m = PerfectMatching.from_pairs(
                        (remap[e.u], remap[e.v]) for e in part
                    )
                    total += forcing_number(sub, sub_m).optimum
                assert whole >= total

    def test_connectivity_lower_bound(self):
        # f(G) >= floor(kappa/2) whenever a perfect matching exists
        for seed in range(30):
            g = gen_random(8, "1/2", seed + 100)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            profile = forcing_profile(g)
            assert profile.min_forcing >= vertex_connectivity(g) // 2

    def test_witness_is_minimal(self):
        # dropping any single witness edge leaves a non-forcing set
        for seed in range(25):
            g = gen_random(8, "1/2", seed + 300)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            m = pms[0]
            cert = forcing_number(g, m)
            for skip in range(len(cert.witness_set)):
                reduced = [
                    e for i, e in enumerate(cert.witness_set) if i != skip
                ]
                assert not is_forcing_set(g, m, reduced)[0]

    def test_spectrum_bounded_by_top(self):
        for seed in range(25):
            g = gen_random(8, "2/3", seed)
            if not enumerate_perfect_matchings(g):
                continue
            profile = forcing_profile(g)
            assert profile.max_forcing <= g.order // 2 - 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_forcing_number_matches_oracle(seed):
    g = gen_random(6, "1/2", seed)
    for m in enumerate_perfect_matchings(g):
        assert forcing_number(g, m).optimum == oracle_forcing_number(g, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_certificate_is_first_optimal_subset(seed):
    # the witness is the first forcing subset of optimal size in
    # combinations order
    g = gen_random(8, "1/2", seed)
    for m in enumerate_perfect_matchings(g):
        cert = forcing_number(g, m)
        assert cert.optimum == oracle_forcing_number(g, m)
        first = next(
            s
            for s in combinations(m.edges, cert.optimum)
            if oracle_is_forcing(g, m, s)
        )
        assert cert.witness_set == first
