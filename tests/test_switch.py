from dataclasses import replace
from itertools import combinations

import pytest

from matchforce import (
    AlternatingCycle,
    Connector,
    PairSignature,
    PerfectMatching,
    PreconditionError,
    alternating_four_cycles,
    build_switch_graph,
    enumerate_perfect_matchings,
    forcing_profile,
    gen_complete_multipartite,
    gen_h_k,
    gen_minimal_from_signature,
    gen_random,
    switch_path,
    two_switch,
    verify_spectrum_continuity,
    verify_switch_bound,
)
from matchforce import graph

from oracles import (
    oracle_alternating_cycles,
    oracle_component_masks,
    oracle_perfect_matchings,
    oracle_switch_edges,
)


def _signature_graph(n, mask):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    choice = {
        p: Connector.PARALLEL if (mask >> b) & 1 else Connector.CROSS
        for b, p in enumerate(pairs)
    }
    return gen_minimal_from_signature(PairSignature(n, choice)).graph


ORACLE_GRAPHS = (
    [gen_random(6, "1/2" if s % 2 else "2/3", s) for s in range(16)]
    + [gen_complete_multipartite((4, 4))]
    + [_signature_graph(4, mask) for mask in (0, 5, 63)]
    + [_signature_graph(5, mask) for mask in (0, 341, 1023)]
    + [gen_random(10, "2/3", s) for s in range(1, 6)]
)


class TestFourCycleListing:
    def test_c6_none(self, c6, c6_matching):
        assert alternating_four_cycles(c6, c6_matching) == ()

    def test_k4_two(self, k4, k4_matching):
        cycles = alternating_four_cycles(k4, k4_matching)
        assert [c.vertices for c in cycles] == [(0, 1, 2, 3), (0, 1, 3, 2)]

    def test_k33_three(self, k33):
        m = PerfectMatching.from_pairs([(0, 3), (1, 4), (2, 5)])
        cycles = alternating_four_cycles(k33, m)
        assert len(cycles) == 3

    def test_rejects_non_matching(self, c6):
        m = PerfectMatching.from_pairs([(0, 3), (1, 4), (2, 5)])
        with pytest.raises(PreconditionError):
            alternating_four_cycles(c6, m)

    def test_matches_exhaustive_search(self):
        for seed in range(30):
            g = gen_random(8, "1/2", seed)
            for m in enumerate_perfect_matchings(g)[:4]:
                mine = {c.vertices for c in alternating_four_cycles(g, m)}
                brute = {
                    AlternatingCycle.canonical(c).vertices
                    for c in oracle_alternating_cycles(g, m)
                    if len(c) == 4
                }
                assert mine == brute


class TestTwoSwitch:
    def test_k4(self, k4, k4_matching):
        cyc = AlternatingCycle.canonical((0, 1, 2, 3))
        assert two_switch(k4, k4_matching, cyc).as_pairs() == [[0, 3], [1, 2]]

    def test_involution(self, k4, k4_matching):
        cyc = AlternatingCycle.canonical((0, 1, 2, 3))
        assert two_switch(k4, two_switch(k4, k4_matching, cyc), cyc) == k4_matching

    def test_c6_rejects_long_cycle(self, c6, c6_matching):
        six = AlternatingCycle.canonical((0, 1, 2, 3, 4, 5))
        with pytest.raises(PreconditionError):
            two_switch(c6, c6_matching, six)

    def test_rejects_cycle_outside_graph(self, c6, c6_matching):
        fake = AlternatingCycle.canonical((0, 1, 4, 5))
        with pytest.raises(PreconditionError):
            two_switch(c6, c6_matching, fake)


class TestSwitchGraph:
    def test_k33_six_nodes_cubic_connected(self, k33):
        sg = build_switch_graph(k33)
        assert len(sg.nodes) == 6
        assert all(len(adj) == 3 for adj in sg.adjacency)
        assert len(oracle_component_masks(sg.adjacency)) == 1

    def test_c6_two_isolated(self, c6):
        sg = build_switch_graph(c6)
        assert len(sg.nodes) == 2
        assert all(adj == () for adj in sg.adjacency)
        assert len(oracle_component_masks(sg.adjacency)) == 2

    def test_k4_triangle(self, k4):
        sg = build_switch_graph(k4)
        assert len(sg.nodes) == 3
        assert all(len(adj) == 2 for adj in sg.adjacency)

    def test_node_count_matches_enumeration(self):
        for seed in range(15):
            g = gen_random(8, "1/2", seed)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            assert len(build_switch_graph(g).nodes) == len(pms)

    @pytest.mark.parametrize("g", ORACLE_GRAPHS)
    def test_matches_oracle(self, g):
        sg = build_switch_graph(g) if enumerate_perfect_matchings(g) else None
        pms = oracle_perfect_matchings(g)
        if sg is None:
            assert pms == ()
            return
        node = [sg.node_index[PerfectMatching(tuple(sorted(pm)))] for pm in pms]
        assert sorted(node) == list(range(len(sg.nodes)))
        expected = sorted(
            (min(node[i], node[j]), max(node[i], node[j]))
            for i, j in oracle_switch_edges(g)
        )
        forward = [(i, j) for i, nbrs in enumerate(sg.adjacency) for j in nbrs]
        assert sorted((i, j) for i, j in forward if i < j) == expected
        assert sorted((j, i) for i, j in forward if i > j) == expected
        assert sg.edges() == expected
        for i, j in expected:
            # a one-hop path carries the edge's cycle, in canonical form,
            # whichever end it starts from
            diff = set(sg.nodes[i].edges) ^ set(sg.nodes[j].edges)
            (cyc,) = switch_path(sg, sg.nodes[i], sg.nodes[j]).cycles
            assert set(cyc.pairs()) == diff
            assert cyc == AlternatingCycle.canonical(cyc.vertices)
            assert switch_path(sg, sg.nodes[j], sg.nodes[i]).cycles == (cyc,)

    @pytest.mark.parametrize(
        "g",
        ORACLE_GRAPHS
        + [gen_random(order, "1/2", s) for order in (8, 10) for s in range(1, 9)],
    )
    def test_switched_pairs_match_oracle(self, g):
        if not enumerate_perfect_matchings(g):
            return
        sg = build_switch_graph(g)
        expected = []
        for flat in sg.matchings:
            it = iter(flat)
            pairs = combinations(list(zip(it, it)), 2)
            expected.append(sum(graph.spans_four_cycle(g.rows, e, f) for e, f in pairs))
        assert sg.switched_pairs == tuple(expected)

    def test_k4_counts_pairs_not_neighbours(self, k4):
        # each matching's one pair switches, into either of two others
        sg = build_switch_graph(k4)
        assert sg.switched_pairs == (1, 1, 1)
        assert [len(adj) for adj in sg.adjacency] == [2, 2, 2]

    def test_annotations_match_profile(self, k33):
        profile = forcing_profile(k33)
        sg = build_switch_graph(k33, profile=profile)
        assert sg.forcing == tuple(profile.per_matching[m] for m in sg.nodes)


class TestSwitchPath:
    def test_k33_short_paths(self, k33):
        sg = build_switch_graph(k33)
        for a in sg.nodes:
            for b in sg.nodes:
                path = switch_path(sg, a, b)
                assert path is not None
                assert len(path) <= 3
                # replay the path through two_switch
                cur = a
                for cyc in path.cycles:
                    cur = two_switch(k33, cur, cyc)
                assert cur == b

    def test_c6_unreachable(self, c6):
        sg = build_switch_graph(c6)
        assert switch_path(sg, sg.nodes[0], sg.nodes[1]) is None

    def test_identical_endpoints(self, k33):
        sg = build_switch_graph(k33)
        path = switch_path(sg, sg.nodes[0], sg.nodes[0])
        assert len(path) == 0
        assert path.matchings == (sg.nodes[0],)

    def test_foreign_matching_rejected(self, k33, c6_matching):
        sg = build_switch_graph(k33)
        with pytest.raises(PreconditionError):
            switch_path(sg, sg.nodes[0], c6_matching)


class TestBoundAndContinuity:
    def test_k33_bound(self, k33):
        assert verify_switch_bound(build_switch_graph(k33)) == (True, None)

    def test_k4_bound(self, k4):
        assert verify_switch_bound(build_switch_graph(k4))[0]

    def test_bound_everywhere_small(self):
        for seed in range(40):
            g = gen_random(8, "1/2", seed)
            if not enumerate_perfect_matchings(g):
                continue
            ok, violation = verify_switch_bound(build_switch_graph(g))
            assert ok, violation

    def test_h41_reaches_max(self):
        rep = verify_spectrum_continuity(gen_h_k(4, 1).graph)
        assert rep.applicable and rep.spectrum_continuous and rep.reach_max

    def test_k33_applicable(self, k33):
        rep = verify_spectrum_continuity(k33)
        assert rep.applicable and rep.spectrum_continuous

    def test_c6_not_applicable(self, c6):
        rep = verify_spectrum_continuity(c6)
        assert not rep.applicable
        assert rep.spectrum_continuous
        assert not rep.reach_max

    @pytest.mark.parametrize("g", ORACLE_GRAPHS + [gen_h_k(4, 1).graph])
    def test_reach_max_matches_components(self, g):
        # every component of the switch graph holds a top matching
        if not enumerate_perfect_matchings(g):
            return
        sg = build_switch_graph(g)
        n = g.order // 2
        top = sum(1 << i for i, f in enumerate(sg.forcing) if f == n - 1)
        expected = all(c & top for c in oracle_component_masks(sg.adjacency))
        assert verify_spectrum_continuity(g, sg=sg).reach_max == expected

    @pytest.mark.parametrize(
        "adjacency, reach", [(((), ()), False), (((1,), (0,)), True)]
    )
    def test_reach_max_needs_a_top_in_every_component(self, c6, adjacency, reach):
        # C6's two matchings, the first relabelled top (n - 1 = 2): the other
        # reaches the top only through a switch edge
        sg = build_switch_graph(c6)
        sg = replace(sg, forcing=(2, 1), adjacency=adjacency)
        assert verify_spectrum_continuity(c6, sg=sg).reach_max is reach
