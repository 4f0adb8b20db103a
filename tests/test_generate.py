import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchforce import (
    Connector,
    Graph,
    PairSignature,
    PreconditionError,
    enumerate_labeled_graphs,
    enumerate_perfect_matchings,
    forcing_profile,
    gen_complete_multipartite,
    gen_h_k,
    gen_knn_plus,
    gen_minimal_from_signature,
    gen_non_2_extendable,
    gen_random,
    is_knn_plus,
    is_l_extendable,
    is_minimal_max_forcing,
    pairwise_alternating_condition,
    matching_pairs_exact_four_cycles,
    vertex_connectivity,
)

from graphs import complete_graph


class TestCompleteMultipartite:
    def test_k222_edge_count(self):
        assert gen_complete_multipartite([2, 2, 2]).edge_count() == 12

    def test_k33_edge_count(self):
        assert gen_complete_multipartite([3, 3]).edge_count() == 9

    def test_all_singletons_is_complete(self):
        assert gen_complete_multipartite([1, 1, 1, 1]) == complete_graph(4)

    def test_bad_sizes_rejected(self):
        with pytest.raises(PreconditionError):
            gen_complete_multipartite([])
        with pytest.raises(PreconditionError):
            gen_complete_multipartite([2, 0])


class TestKnnPlus:
    def test_one_extra(self):
        g = gen_knn_plus(3, [(3, 4)])
        assert g.edge_count() == 10
        assert is_knn_plus(g) is not None

    def test_plain(self):
        assert gen_knn_plus(3) == gen_complete_multipartite([3, 3])

    def test_n2_single_pair(self):
        assert gen_knn_plus(2, [(2, 3)]).edge_count() == 5

    def test_a_side_extra_rejected(self):
        with pytest.raises(PreconditionError):
            gen_knn_plus(3, [(0, 4)])

    def test_duplicate_rejected(self):
        with pytest.raises(PreconditionError):
            gen_knn_plus(3, [(3, 4), (4, 3)])


class TestSignature:
    def test_all_cross_is_complete_bipartite(self):
        lg = gen_minimal_from_signature(PairSignature.all_cross(3))
        assert lg.graph == gen_complete_multipartite([3, 3])

    def test_one_parallel_matches_ladder(self):
        sig = PairSignature.from_parallel_pairs(3, [(0, 1)])
        assert gen_minimal_from_signature(sig).graph == gen_h_k(3, 1).graph

    def test_every_signature_is_minimal_and_regular(self):
        for n in (2, 3, 4):
            pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for mask in range(1 << len(pair_list)):
                sig = PairSignature(
                    n,
                    {
                        p: Connector.PARALLEL if (mask >> b) & 1 else Connector.CROSS
                        for b, p in enumerate(pair_list)
                    },
                )
                lg = gen_minimal_from_signature(sig)
                assert pairwise_alternating_condition(lg.graph, lg.m0)[0]
                assert matching_pairs_exact_four_cycles(lg.graph, lg.m0)
                assert all(lg.graph.degree(v) == n for v in range(2 * n))
                if n <= 3:
                    assert is_minimal_max_forcing(lg.graph)

    def test_incomplete_signature_rejected(self):
        with pytest.raises(PreconditionError):
            PairSignature(3, {(0, 1): Connector.CROSS})


class TestLadderFamily:
    def test_h0_is_complete_bipartite(self):
        for n in (1, 2, 3, 4):
            assert gen_h_k(n, 0).graph == gen_complete_multipartite([n, n])

    def test_h31_shape(self):
        g = gen_h_k(3, 1).graph
        assert g.order == 6 and g.edge_count() == 9
        assert all(g.degree(v) == 3 for v in range(6))

    def test_k_range_rejected(self):
        with pytest.raises(PreconditionError):
            gen_h_k(4, 3)

    def test_connectivity_is_n(self):
        for n in range(2, 6):
            for k in range((n - 1) // 2 + 1):
                assert vertex_connectivity(gen_h_k(n, k).graph) == n

    def test_sharp_lower_bound_case(self):
        # at the largest k the minimum forcing number hits floor(n/2)
        profile = forcing_profile(gen_h_k(5, 2).graph)
        assert profile.min_forcing == 2

    def test_m0_carried(self):
        lg = gen_h_k(4, 1)
        assert lg.m0.as_pairs() == [[0, 4], [1, 5], [2, 6], [3, 7]]
        assert lg.m0 in enumerate_perfect_matchings(lg.graph)


class TestNonTwoExtendableGenerators:
    def test_case_i_properties(self):
        lg = gen_non_2_extendable("i", 4)
        assert pairwise_alternating_condition(lg.graph, lg.m0)[0]
        assert is_l_extendable(lg.graph, 1)
        assert not is_l_extendable(lg.graph, 2)

    def test_case_i_needs_n4(self):
        with pytest.raises(PreconditionError):
            gen_non_2_extendable("i", 3)

    def test_case_ii_defaults(self):
        for n in (3, 4, 5):
            lg = gen_non_2_extendable("ii", n)
            assert pairwise_alternating_condition(lg.graph, lg.m0)[0]
            assert is_l_extendable(lg.graph, 1)
            assert not is_l_extendable(lg.graph, 2)

    def test_case_ii_triangle_variant(self):
        lg = gen_non_2_extendable(
            "ii", 3, parallel_index=None, extra_v_edges=((0, 2),), u_edges=((0, 1),)
        )
        assert is_l_extendable(lg.graph, 1)
        assert not is_l_extendable(lg.graph, 2)

    def test_invalid_options_rejected(self):
        with pytest.raises(PreconditionError):
            gen_non_2_extendable("i", 4, u_edges=((0, 1),))  # one edge only
        with pytest.raises(PreconditionError):
            gen_non_2_extendable("ii", 3, parallel_index=None)  # no required pair
        with pytest.raises(PreconditionError):
            gen_non_2_extendable("x", 4)


class TestExhaustiveEnumeration:
    @pytest.mark.parametrize("order,count", [(3, 8), (4, 64), (6, 32768)])
    def test_counts(self, order, count):
        assert sum(1 for _ in enumerate_labeled_graphs(order)) == count

    def test_edge_mask_ascending(self):
        got = list(enumerate_labeled_graphs(3))
        assert got[0] == Graph.empty(3)
        assert got[-1] == complete_graph(3)

    def test_guard_above_6(self):
        with pytest.raises(PreconditionError):
            next(enumerate_labeled_graphs(7))

    def test_filter_unlocks_larger_orders(self):
        from matchforce import Edge

        stream = enumerate_labeled_graphs(7, predicate=lambda g: g.edge_count() >= 1)
        first = next(stream)
        assert first.order == 7
        assert first.edges() == (Edge(0, 1),)


class TestRandom:
    def test_extremes(self):
        assert gen_random(6, 0, 1) == Graph.empty(6)
        assert gen_random(6, 1, 1) == complete_graph(6)

    def test_determinism(self):
        assert gen_random(8, "1/2", 7) == gen_random(8, "1/2", 7)

    def test_fraction_and_float_agree(self):
        assert gen_random(8, "1/2", 3) == gen_random(8, 0.5, 3)

    def test_seed_sensitivity(self):
        assert gen_random(8, "1/2", 0) != gen_random(8, "1/2", 1)

    def test_bad_probability(self):
        with pytest.raises(PreconditionError):
            gen_random(4, "3/2", 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_edge_rate_sane(self, seed):
        g = gen_random(10, "1/2", seed)
        assert 0 <= g.edge_count() <= 45
