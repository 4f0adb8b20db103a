from dataclasses import replace
from itertools import combinations

import pytest

from matchforce import (
    AlternatingCycle,
    PerfectMatching,
    PreconditionError,
    build_switch_graph,
    enumerate_perfect_matchings,
    forcing_number,
    forcing_profile,
    gen_complete_multipartite,
    gen_h_k,
    gen_minimal_from_signature,
    gen_random,
    reaches_top,
    switch_path,
    verify_switch_bound,
)
from matchforce.records import switch_payload

from oracles import (
    oracle_alternating_cycles,
    oracle_component_masks,
    oracle_flip,
    oracle_perfect_matchings,
    oracle_spans_four_cycle,
    oracle_switch_edges,
)


def _signature_graph(n, mask):
    pairs = combinations(range(n), 2)
    parallel = [p for b, p in enumerate(pairs) if (mask >> b) & 1]
    return gen_minimal_from_signature(n, parallel).graph


ORACLE_GRAPHS = (
    [gen_random(6, "1/2" if s % 2 else "2/3", s) for s in range(16)]
    + [gen_complete_multipartite((4, 4))]
    + [_signature_graph(4, mask) for mask in (0, 5, 63)]
    + [_signature_graph(5, mask) for mask in (0, 341, 1023)]
    + [gen_random(10, "2/3", s) for s in range(1, 6)]
)


def four_cycles(g, m):
    """The m-alternating 4-cycles, one per switch edge at m: the cycle of
    the one-hop switch path to each neighbour, sorted."""
    sg = build_switch_graph(g)
    i = sg.node_index[m]
    hops = (switch_path(sg, m, sg.nodes[j]).cycles for j in sg.adjacency[i])
    return sorted(cyc.vertices for (cyc,) in hops)


class TestFourCycleListing:
    def test_c6_none(self, c6, c6_matching):
        assert four_cycles(c6, c6_matching) == []

    def test_k4_two(self, k4, k4_matching):
        assert four_cycles(k4, k4_matching) == [(0, 1, 2, 3), (0, 1, 3, 2)]

    def test_k33_three(self, k33):
        m = PerfectMatching.from_pairs([(0, 3), (1, 4), (2, 5)])
        assert len(four_cycles(k33, m)) == 3

    def test_matches_exhaustive_search(self):
        for seed in range(30):
            g = gen_random(8, "1/2", seed)
            for m in enumerate_perfect_matchings(g)[:4]:
                brute = sorted(
                    AlternatingCycle.canonical(c).vertices
                    for c in oracle_alternating_cycles(g, m)
                    if len(c) == 4
                )
                assert four_cycles(g, m) == brute


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
            (cyc,) = switch_path(sg, sg.nodes[i], sg.nodes[j]).cycles
            assert oracle_flip(g, sg.nodes[i], cyc.vertices) == sg.nodes[j]
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
            expected.append(sum(oracle_spans_four_cycle(g, e, f) for e, f in pairs))
        assert sg.switched_pairs == tuple(expected)

    def test_k4_counts_pairs_not_neighbours(self, k4):
        # each matching's one pair switches, into either of two others
        sg = build_switch_graph(k4)
        assert sg.switched_pairs == (1, 1, 1)
        assert [len(adj) for adj in sg.adjacency] == [2, 2, 2]

    def test_annotations_match_profile(self, k33):
        profile = forcing_profile(k33)
        sg = build_switch_graph(k33, profile=profile)
        assert sg.forcing == tuple(forcing_number(k33, m).optimum for m in sg.nodes)


class TestSwitchPath:
    def test_k33_short_paths(self, k33):
        sg = build_switch_graph(k33)
        for a in sg.nodes:
            for b in sg.nodes:
                path = switch_path(sg, a, b)
                assert path is not None
                assert len(path.cycles) <= 3
                # replay the path one 4-cycle flip at a time
                cur = a
                for cyc in path.cycles:
                    assert len(cyc.vertices) == 4
                    cur = oracle_flip(k33, cur, cyc.vertices)
                assert cur == b

    def test_c6_unreachable(self, c6):
        sg = build_switch_graph(c6)
        assert switch_path(sg, sg.nodes[0], sg.nodes[1]) is None

    def test_identical_endpoints(self, k33):
        sg = build_switch_graph(k33)
        path = switch_path(sg, sg.nodes[0], sg.nodes[0])
        assert path.cycles == ()
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

    @pytest.mark.parametrize(
        "forcing, first",
        [((0, 1, 3), (0, 2)), ((3, 1, 0), (0, 1)), ((1, 3, 1), (0, 1)), ((1, 1, 3), (0, 2))],
    )
    def test_first_planted_violation(self, k4, forcing, first):
        # K4's three matchings are pairwise adjacent; the violation reported
        # is the first in sg.edges() order, lower end first
        sg = replace(build_switch_graph(k4), forcing=forcing)
        violations = [(i, j) for i, j in sg.edges() if abs(forcing[i] - forcing[j]) > 1]
        assert violations[0] == first
        i, j = first
        assert verify_switch_bound(sg) == (False, (sg.nodes[i], sg.nodes[j]))

    def test_bound_everywhere_small(self):
        for seed in range(40):
            g = gen_random(8, "1/2", seed)
            if not enumerate_perfect_matchings(g):
                continue
            ok, violation = verify_switch_bound(build_switch_graph(g))
            assert ok, violation

    @staticmethod
    def continuity(g):
        """The continuity keys of g's switch record."""
        profile = forcing_profile(g)
        sg = build_switch_graph(g, profile=profile)
        rec = switch_payload(sg, profile, reaches_top(sg))
        return rec["applicable"], rec["spectrum_continuous"], rec["reach_max"]

    def test_h41_reaches_max(self):
        assert self.continuity(gen_h_k(4, 1).graph) == (True, True, True)

    def test_k33_applicable(self, k33):
        assert self.continuity(k33) == (True, True, True)

    def test_c6_not_applicable(self, c6):
        # C6's two matchings both have f = 1 < n - 1 = 2: none is top
        assert self.continuity(c6) == (False, True, False)

    @pytest.mark.parametrize("g", ORACLE_GRAPHS + [gen_h_k(4, 1).graph])
    def test_reach_max_matches_components(self, g):
        # every component of the switch graph holds a top matching
        if not enumerate_perfect_matchings(g):
            return
        sg = build_switch_graph(g)
        n = g.order // 2
        top = sum(1 << i for i, f in enumerate(sg.forcing) if f == n - 1)
        expected = all(c & top for c in oracle_component_masks(sg.adjacency))
        assert reaches_top(sg) == expected

    @pytest.mark.parametrize(
        "adjacency, reach", [(((), ()), False), (((1,), (0,)), True)]
    )
    def test_reach_max_needs_a_top_in_every_component(self, c6, adjacency, reach):
        # C6's two matchings, the first relabelled top (n - 1 = 2): the other
        # reaches the top only through a switch edge
        sg = build_switch_graph(c6)
        sg = replace(sg, forcing=(2, 1), adjacency=adjacency)
        assert reaches_top(sg) is reach
