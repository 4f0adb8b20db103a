import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchforce import (
    AlternatingCycle,
    Edge,
    Graph,
    PerfectMatching,
    PreconditionError,
    apply_cycle,
    complement,
    enumerate_perfect_matchings,
    find_alternating_cycle,
    gen_random,
    has_perfect_matching,
    induced_subgraph,
    odd_component_count,
    vertex_connectivity,
)
from matchforce.errors import MatchingOverflowError

from graphs import complete_graph, path_graph, star_graph
from oracles import (
    oracle_alternating_cycles,
    oracle_has_pm_tutte,
    oracle_perfect_matchings,
    oracle_vertex_connectivity,
)


def random_graph_strategy(max_order=8):
    @st.composite
    def build(draw):
        order = draw(st.integers(min_value=0, max_value=max_order))
        pairs = [(i, j) for i in range(order) for j in range(i + 1, order)]
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        return Graph.from_edges(
            order, [p for b, p in enumerate(pairs) if (mask >> b) & 1]
        )

    return build()


class TestGraphType:
    def test_validation_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_validation_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph(1, (0b1,))

    def test_from_edges_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_degrees(self, k33):
        assert [k33.degree(v) for v in range(6)] == [3] * 6

    def test_edge_of_normalizes(self):
        assert Edge.of(5, 2) == Edge(2, 5)
        with pytest.raises(ValueError):
            Edge.of(3, 3)


class TestComplement:
    def test_k4_complement_empty(self, k4):
        assert complement(k4) == Graph.empty(4)

    def test_empty3_complement_k3(self):
        assert complement(Graph.empty(3)) == complete_graph(3)

    def test_p3_complement(self):
        # path 0-1-2 flips to the single edge 0-2 plus the isolated middle
        assert complement(path_graph(3)) == Graph.from_edges(3, [(0, 2)])

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy())
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestInducedSubgraph:
    def test_c6_prefix_is_p4(self, c6):
        assert induced_subgraph(c6, [0, 1, 2, 3]) == path_graph(4)

    def test_k4_pair_is_k2(self, k4):
        assert induced_subgraph(k4, [1, 3]) == complete_graph(2)

    def test_empty_selection(self, k4):
        assert induced_subgraph(k4, []) == Graph.empty(0)

    def test_out_of_range(self, k4):
        with pytest.raises(ValueError):
            induced_subgraph(k4, [0, 9])

    def test_relabeling_preserves_order(self, c6):
        h = induced_subgraph(c6, [5, 0, 1])
        # 5-0 and 0-1 are edges; relabeled as 0-1, 1-2
        assert h == Graph.from_edges(3, [(0, 1), (1, 2)])


class TestMatchingEnumeration:
    def test_k33_count(self, k33):
        assert len(enumerate_perfect_matchings(k33)) == 6

    def test_k6_count(self, k6):
        assert len(enumerate_perfect_matchings(k6)) == 15

    def test_c6_count(self, c6):
        pms = enumerate_perfect_matchings(c6)
        assert len(pms) == 2
        assert pms[0].as_pairs() == [[0, 1], [2, 3], [4, 5]]
        assert pms[1].as_pairs() == [[0, 5], [1, 2], [3, 4]]

    def test_odd_order_empty(self):
        assert enumerate_perfect_matchings(complete_graph(5)) == ()

    def test_order_zero_single_empty(self):
        assert enumerate_perfect_matchings(Graph.empty(0)) == (PerfectMatching(()),)

    def test_lexicographic_and_sorted(self, k6):
        pms = enumerate_perfect_matchings(k6)
        keys = [tuple(e for e in m.edges) for m in pms]
        assert keys == sorted(keys)

    def test_cap_overflow(self, k6):
        with pytest.raises(MatchingOverflowError):
            enumerate_perfect_matchings(k6, cap=10)

    def test_overflow_is_not_memoized(self):
        k8 = complete_graph(8)  # 105 matchings
        assert len(enumerate_perfect_matchings(k8, cap=105)) == 105
        with pytest.raises(MatchingOverflowError):
            enumerate_perfect_matchings(k8, cap=104)
        with pytest.raises(MatchingOverflowError):
            enumerate_perfect_matchings(k8, cap=104)
        assert len(enumerate_perfect_matchings(k8, cap=105)) == 105

    def test_overflow_first_then_success(self):
        k8 = complete_graph(8)
        with pytest.raises(MatchingOverflowError):
            enumerate_perfect_matchings(k8, cap=104)
        assert len(enumerate_perfect_matchings(k8, cap=105)) == 105

    def test_repeat_calls_equal(self, k6):
        first = enumerate_perfect_matchings(k6)
        assert enumerate_perfect_matchings(k6) == first
        assert enumerate_perfect_matchings(k6, cap=15) == first

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(max_order=8))
    def test_matches_bruteforce(self, g):
        pms = enumerate_perfect_matchings(g)
        expected = oracle_perfect_matchings(g)
        assert len(pms) == len(expected)
        assert {frozenset(m.edges) for m in pms} == set(expected)


class TestPerfectMatchingConstruction:
    @pytest.mark.parametrize(
        "edges",
        [
            ((1, 0), (2, 3)),  # a plain tuple, not an Edge
            (Edge(1, 0), Edge(2, 3)),  # smaller endpoint second
            (Edge(2, 3), Edge(0, 1)),  # unsorted
            (Edge(0, 1), Edge(1, 2)),  # vertex 1 reused
        ],
    )
    def test_public_constructor_validates(self, edges):
        with pytest.raises(ValueError):
            PerfectMatching(edges)

    @pytest.mark.parametrize(
        "pairs", [[(0, 0), (2, 3)], [(0, 1), (1, 2)], [(0, 1), (0, 2)]]
    )
    def test_from_pairs_validates(self, pairs):
        with pytest.raises(ValueError):
            PerfectMatching.from_pairs(pairs)

    def test_memoized_equal_validated(self, k6):
        for m in enumerate_perfect_matchings(k6):
            checked = PerfectMatching(tuple(Edge(u, v) for u, v in m.edges))
            assert m == checked
            assert hash(m) == hash(checked)
        assert set(enumerate_perfect_matchings(k6)) == {
            PerfectMatching.from_pairs(pm) for pm in oracle_perfect_matchings(k6)
        }


class TestHasPerfectMatching:
    def test_c6(self, c6):
        assert has_perfect_matching(c6)

    def test_star_k13(self):
        assert not has_perfect_matching(star_graph(3))

    def test_k321_listed_family(self):
        from matchforce import gen_complete_multipartite

        assert has_perfect_matching(gen_complete_multipartite([3, 2, 1]))

    @settings(max_examples=40, deadline=None)
    @given(random_graph_strategy(max_order=7))
    def test_matches_tutte(self, g):
        assert has_perfect_matching(g) == oracle_has_pm_tutte(g)


class TestAlternatingCycles:
    def test_c6_cycle_found(self, c6, c6_matching):
        cyc = find_alternating_cycle(c6, c6_matching)
        assert cyc is not None
        assert cyc.vertices == (0, 1, 2, 3, 4, 5)

    def test_p4_none(self, p4):
        m = PerfectMatching.from_pairs([(0, 1), (2, 3)])
        assert find_alternating_cycle(p4, m) is None

    def test_k4_cycle(self, k4, k4_matching):
        # oracle: K4 with matching {01, 23} carries exactly two alternating
        # 4-cycles, 0-1-2-3 and 0-1-3-2
        raw = oracle_alternating_cycles(k4, k4_matching)
        assert sorted(raw) == [(0, 1, 2, 3), (0, 1, 3, 2)]
        cyc = find_alternating_cycle(k4, k4_matching)
        assert cyc.vertices == (0, 1, 2, 3)

    def test_invalid_matching_rejected(self, k4):
        with pytest.raises(PreconditionError):
            find_alternating_cycle(k4, PerfectMatching.from_pairs([(0, 1)]))

    @settings(max_examples=50, deadline=None)
    @given(random_graph_strategy(max_order=8))
    def test_presence_matches_exhaustive(self, g):
        for m in enumerate_perfect_matchings(g):
            found = find_alternating_cycle(g, m)
            expected = oracle_alternating_cycles(g, m)
            assert (found is not None) == bool(expected)
            if found is not None:
                assert found.vertices in {
                    AlternatingCycle.canonical(c).vertices for c in expected
                }

    def test_full_enumeration_matches_exhaustive_order10(self):
        from matchforce import enumerate_alternating_cycles, gen_random

        checked = 0
        for seed in range(40):
            g = gen_random(10, "2/5", seed)
            pms = enumerate_perfect_matchings(g)
            if not pms:
                continue
            m = pms[0]
            mine = {c.vertices for c in enumerate_alternating_cycles(g, m)}
            brute = {
                AlternatingCycle.canonical(c).vertices
                for c in oracle_alternating_cycles(g, m)
            }
            assert mine == brute
            checked += 1
            if checked >= 10:
                break
        assert checked >= 5


class TestApplyCycle:
    def test_c6_switch(self, c6, c6_matching):
        cyc = AlternatingCycle.canonical((0, 1, 2, 3, 4, 5))
        flipped = apply_cycle(c6_matching, cyc)
        assert flipped.as_pairs() == [[0, 5], [1, 2], [3, 4]]

    def test_involution(self, c6, c6_matching):
        cyc = AlternatingCycle.canonical((0, 1, 2, 3, 4, 5))
        assert apply_cycle(apply_cycle(c6_matching, cyc), cyc) == c6_matching

    def test_k4_switch(self, k4, k4_matching):
        cyc = AlternatingCycle.canonical((0, 1, 2, 3))
        assert apply_cycle(k4_matching, cyc).as_pairs() == [[0, 3], [1, 2]]

    def test_non_alternating_rejected(self, c6, c6_matching):
        # pairs (1,2),(2,3),(3,4),(4,1) hold exactly one matching edge
        bad = AlternatingCycle.canonical((1, 2, 3, 4))
        with pytest.raises(PreconditionError):
            apply_cycle(c6_matching, bad)

    @settings(max_examples=40, deadline=None)
    @given(random_graph_strategy(max_order=8))
    def test_involution_everywhere(self, g):
        for m in enumerate_perfect_matchings(g)[:4]:
            cyc = find_alternating_cycle(g, m)
            if cyc is not None:
                assert apply_cycle(apply_cycle(m, cyc), cyc) == m


class TestConnectivity:
    def test_k33(self, k33):
        assert vertex_connectivity(k33) == 3

    def test_c6(self, c6):
        assert vertex_connectivity(c6) == 2

    def test_complete(self, k6):
        assert vertex_connectivity(k6) == 5

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert vertex_connectivity(g) == 0

    def test_repeat_calls_equal(self, c6, k33):
        assert [vertex_connectivity(g) for g in (c6, k33, c6, k33)] == [2, 3, 2, 3]

    def test_flow_reroutes_first_path(self):
        # 6-cycle 0-5-1-3-2-4 plus chord 0-3: between 1 and 4 the first
        # shortest path 1-3-0-4 blocks both disjoint paths 1-3-2-4 and
        # 1-5-0-4 until a second path cancels its arc from 3 to 0
        g = Graph.from_edges(
            6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)]
        )
        assert vertex_connectivity(g) == 2

    @settings(max_examples=40, deadline=None)
    @given(random_graph_strategy(max_order=8))
    def test_matches_bruteforce(self, g):
        assert vertex_connectivity(g) == oracle_vertex_connectivity(g)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.sampled_from(["1/2", "3/4", "7/8", "1"]),
    )
    def test_dense_matches_bruteforce(self, seed, p):
        # dense graphs have high connectivity, so most pair flows stop
        # early at the running minimum
        g = gen_random(8, p, seed)
        assert vertex_connectivity(g) == oracle_vertex_connectivity(g)


class TestOddComponents:
    def test_k33_side(self, k33):
        assert odd_component_count(k33, [0, 1, 2]) == 3

    def test_c6_nothing(self, c6):
        assert odd_component_count(c6, []) == 0

    def test_star_center(self):
        assert odd_component_count(star_graph(3), [0]) == 3

    def test_out_of_range(self, c6):
        with pytest.raises(ValueError):
            odd_component_count(c6, [7])
