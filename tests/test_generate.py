import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchforce import (
    Graph,
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
    vertex_connectivity,
)

from graphs import complete_graph
from oracles import (
    oracle_every_pair_exact,
    oracle_every_pair_spans,
    oracle_is_minimal_max_forcing,
)


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
        lg = gen_minimal_from_signature(3)
        assert lg.graph == gen_complete_multipartite([3, 3])

    def test_one_parallel_matches_ladder(self):
        assert gen_minimal_from_signature(3, [(0, 1)]).graph == gen_h_k(3, 1).graph

    def test_pair_order_is_free(self):
        assert gen_minimal_from_signature(4, [(2, 0), (3, 1)]) == (
            gen_minimal_from_signature(4, [(0, 2), (1, 3)])
        )

    def test_every_signature_is_minimal_and_regular(self):
        for n in (2, 3, 4):
            pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for mask in range(1 << len(pair_list)):
                parallel = [p for b, p in enumerate(pair_list) if (mask >> b) & 1]
                lg = gen_minimal_from_signature(n, parallel)
                assert oracle_every_pair_spans(lg.graph, lg.m0)
                assert oracle_every_pair_exact(lg.graph, lg.m0)
                assert all(lg.graph.degree(v) == n for v in range(2 * n))
                if n <= 3:
                    assert oracle_is_minimal_max_forcing(lg.graph)

    @pytest.mark.parametrize(
        "n,parallel,message",
        [
            (3, [(0, 3)], "(0, 3) out of range"),
            (3, [(1, 1)], "(1, 1) out of range"),
            (3, [(0, 1), (1, 0)], "(1, 0) repeated"),
            (0, [], "at least one pair"),
        ],
    )
    def test_bad_signature_rejected(self, n, parallel, message):
        with pytest.raises(PreconditionError, match=re.escape(message)):
            gen_minimal_from_signature(n, parallel)


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
        assert lg.m0.edges == ((0, 4), (1, 5), (2, 6), (3, 7))
        assert lg.m0 in enumerate_perfect_matchings(lg.graph)


class TestNonTwoExtendableGenerators:
    def test_case_i_properties(self):
        lg = gen_non_2_extendable("i", 4)
        assert oracle_every_pair_spans(lg.graph, lg.m0)
        assert is_l_extendable(lg.graph, 1)
        assert not is_l_extendable(lg.graph, 2)

    def test_case_i_needs_n4(self):
        with pytest.raises(PreconditionError):
            gen_non_2_extendable("i", 3)

    def test_case_ii_defaults(self):
        for n in (3, 4, 5):
            lg = gen_non_2_extendable("ii", n)
            assert oracle_every_pair_spans(lg.graph, lg.m0)
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
        # an option of the other case, even at its default value
        with pytest.raises(PreconditionError, match="case i takes no parallel_index"):
            gen_non_2_extendable("i", 4, parallel_index=0)
        with pytest.raises(PreconditionError, match="case i takes no extra_v_edges"):
            gen_non_2_extendable("i", 4, extra_v_edges=())
        with pytest.raises(PreconditionError, match="case ii takes no triangle"):
            gen_non_2_extendable("ii", 4, triangle=(0, 1, 2))

    def test_repeated_u_edge_rejected(self):
        with pytest.raises(PreconditionError, match=re.escape("(3, 2) repeated")):
            gen_non_2_extendable("i", 4, u_edges=((0, 1), (2, 3), (3, 2)))

    def test_repeated_extra_v_edge_rejected(self):
        with pytest.raises(PreconditionError, match=re.escape("(1, 3) repeated")):
            gen_non_2_extendable("ii", 4, extra_v_edges=((3, 1), (1, 3)))


class TestExhaustiveEnumeration:
    @pytest.mark.parametrize("order,count", [(3, 8), (4, 64), (6, 32768)])
    def test_counts(self, order, count):
        assert sum(1 for _ in enumerate_labeled_graphs(order)) == count

    def test_edge_mask_ascending(self):
        got = list(enumerate_labeled_graphs(3))
        assert got[0] == Graph(3, (0, 0, 0))
        assert got[-1] == complete_graph(3)

    def test_guard_above_6(self):
        with pytest.raises(PreconditionError):
            next(enumerate_labeled_graphs(7))


class TestRandom:
    def test_extremes(self):
        assert gen_random(6, 0, 1) == Graph(6, (0,) * 6)
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
