import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchforce import (
    ClassTag,
    Edge,
    Graph,
    NoPerfectMatchingError,
    PreconditionError,
    classify_min_forcing,
    enumerate_labeled_graphs,
    enumerate_perfect_matchings,
    family_corpus,
    forcing_number,
    forcing_profile,
    gen_complete_multipartite,
    gen_h_k,
    gen_knn_plus,
    gen_random,
    has_fixed_double_bond,
    has_max_forcing_n_minus_1,
    is_complete_multipartite,
    is_knn_plus,
    is_minimal_max_forcing,
    max_independent_set_size,
    pairwise_alternating_condition,
    to_graph6,
)

from graphs import complete_graph, path_graph
from oracles import (
    oracle_is_complete_multipartite,
    oracle_is_minimal_max_forcing,
    oracle_max_independent_set,
    oracle_perfect_matchings,
)


class TestCompleteMultipartite:
    def test_k222(self):
        parts = is_complete_multipartite(gen_complete_multipartite([2, 2, 2]))
        assert parts is not None
        assert sorted(len(p) for p in parts) == [2, 2, 2]

    def test_p4_is_not(self, p4):
        assert is_complete_multipartite(p4) is None

    def test_k6_singletons(self, k6):
        parts = is_complete_multipartite(k6)
        assert parts == ((0,), (1,), (2,), (3,), (4,), (5,))

    def test_partition_covers_and_crosses(self):
        g = gen_complete_multipartite([3, 2, 1])
        parts = is_complete_multipartite(g)
        flat = sorted(v for p in parts for v in p)
        assert flat == list(range(6))
        for p in parts:
            for i, u in enumerate(p):
                for v in p[i + 1 :]:
                    assert not g.has_edge(u, v)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_triple_scan(self, seed):
        g = gen_random(7, "2/3", seed)
        assert (is_complete_multipartite(g) is not None) == (
            oracle_is_complete_multipartite(g)
        )

    @pytest.mark.parametrize("order", range(6))
    def test_every_small_graph(self, order):
        # parts are the classes of "equal or non-adjacent", by smallest vertex
        for g in enumerate_labeled_graphs(order):
            parts = is_complete_multipartite(g)
            assert (parts is not None) == oracle_is_complete_multipartite(g)
            if parts is not None:
                classes = {
                    tuple(w for w in range(order) if w == v or not g.has_edge(v, w))
                    for v in range(order)
                }
                assert parts == tuple(sorted(classes))


class TestKnnPlus:
    def test_k33_plus_edge(self):
        got = is_knn_plus(gen_knn_plus(3, [(3, 4)]))
        assert got is not None
        a, b, extra = got
        assert a == (0, 1, 2) and b == (3, 4, 5)
        assert extra == (Edge(3, 4),)

    def test_k4_excluded(self, k4):
        assert is_knn_plus(k4) is None

    def test_plain_k33(self, k33):
        a, b, extra = is_knn_plus(k33)
        assert extra == ()

    def test_full_b_side(self):
        g = gen_knn_plus(3, [(3, 4), (3, 5), (4, 5)])
        a, b, extra = is_knn_plus(g)
        assert len(extra) == 3

    def test_odd_order_rejected(self):
        with pytest.raises(PreconditionError):
            is_knn_plus(complete_graph(3))

    def test_generator_roundtrip(self):
        for n in (1, 2, 3, 4):
            pairs = [(n + i, n + j) for i in range(n) for j in range(i + 1, n)]
            for count in range(min(3, len(pairs) + 1)):
                g = gen_knn_plus(n, pairs[:count])
                got = is_knn_plus(g)
                assert got is not None
                assert len(got[2]) == count


class TestPairwiseCondition:
    def test_k33_true(self, k33):
        for m in enumerate_perfect_matchings(k33):
            assert pairwise_alternating_condition(k33, m) == (True, None)

    def test_c6_failing_pair(self, c6, c6_matching):
        ok, pair = pairwise_alternating_condition(c6, c6_matching)
        assert not ok
        assert pair == (Edge(0, 1), Edge(2, 3))

    def test_k4_true(self, k4, k4_matching):
        assert pairwise_alternating_condition(k4, k4_matching)[0]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_equivalent_to_max_forcing(self, seed):
        # holds iff the forcing number is one below the matching size
        g = gen_random(8, "1/2", seed)
        n = g.order // 2
        for m in enumerate_perfect_matchings(g)[:6]:
            ok, _ = pairwise_alternating_condition(g, m)
            assert ok == (forcing_number(g, m).optimum == n - 1)


class TestMaxForcingWitness:
    def test_k33_any(self, k33):
        assert has_max_forcing_n_minus_1(k33) is not None

    def test_c6_none(self, c6):
        assert has_max_forcing_n_minus_1(c6) is None

    def test_hk_defining_matching(self):
        lg = gen_h_k(3, 1)
        found = has_max_forcing_n_minus_1(lg.graph)
        assert found == lg.m0

    def test_no_pm_rejected(self):
        with pytest.raises(NoPerfectMatchingError):
            has_max_forcing_n_minus_1(Graph.empty(4))


class TestMinimality:
    def test_k33_minimal(self, k33):
        assert is_minimal_max_forcing(k33)

    def test_k4_not_minimal(self, k4):
        assert not is_minimal_max_forcing(k4)

    def test_hk_minimal(self):
        assert is_minimal_max_forcing(gen_h_k(3, 1).graph)

    def test_count_matches_definition_exhaustive(self):
        # every labeled graph through order 6: the count (F = n - 1 and
        # |E| = n^2) against "some matching induces only 4-cycles"
        minimal = 0
        for order in range(1, 7):
            for g in enumerate_labeled_graphs(order):
                expected = oracle_is_minimal_max_forcing(g)
                assert is_minimal_max_forcing(g) == expected, to_graph6(g)
                minimal += expected
        assert minimal == 74  # 1, 3 and 70 at orders 2, 4 and 6

    def test_count_matches_definition_on_families(self):
        graphs = [
            (name, g)
            for name, g in family_corpus(10)
            if name.startswith(("sig:", "hk:"))
        ]
        assert len(graphs) == 99
        for name, g in graphs:
            assert is_minimal_max_forcing(g) == oracle_is_minimal_max_forcing(g), name

    def test_minimal_graphs_are_regular(self):
        for seed in range(30):
            g = gen_random(6, "1/2", seed)
            if is_minimal_max_forcing(g):
                n = g.order // 2
                assert all(g.degree(v) == n for v in range(g.order))


class TestClassification:
    def test_k321(self):
        result = classify_min_forcing(gen_complete_multipartite([3, 2, 1]))
        assert result.tag is ClassTag.COMPLETE_MULTIPARTITE
        assert result.predicted_min_forcing_is_max

    def test_k33_plus_edge(self):
        result = classify_min_forcing(gen_knn_plus(3, [(3, 4)]))
        assert result.tag is ClassTag.KNN_PLUS
        assert result.extra_edges == (Edge(3, 4),)

    def test_c6_neither(self, c6):
        result = classify_min_forcing(c6)
        assert result.tag is ClassTag.NEITHER
        assert not result.predicted_min_forcing_is_max
        assert forcing_profile(c6).min_forcing == 1

    def test_precedence_on_knn(self, k33):
        # the doubly-recognizable complete bipartite graph reports as
        # complete multipartite
        assert classify_min_forcing(k33).tag is ClassTag.COMPLETE_MULTIPARTITE

    def test_no_pm_rejected(self):
        with pytest.raises(NoPerfectMatchingError):
            classify_min_forcing(Graph.empty(4))
        with pytest.raises(PreconditionError):
            classify_min_forcing(path_graph(3))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_prediction_matches_solver(self, seed):
        g = gen_random(6, "2/3", seed)
        if not enumerate_perfect_matchings(g):
            return
        result = classify_min_forcing(g)
        profile = forcing_profile(g)
        assert result.predicted_min_forcing_is_max == (
            profile.min_forcing == g.order // 2 - 1
        )


class TestIndependentSet:
    def test_small_cases(self, k33, k6, c6):
        assert max_independent_set_size(k33) == 3
        assert max_independent_set_size(k6) == 1
        assert max_independent_set_size(c6) == 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_bruteforce(self, seed):
        g = gen_random(8, "1/2", seed)
        assert max_independent_set_size(g) == oracle_max_independent_set(g)


class TestFixedDoubleBond:
    def test_p4_lowest(self, p4):
        assert has_fixed_double_bond(p4) == Edge(0, 1)

    def test_c6_none(self, c6):
        assert has_fixed_double_bond(c6) is None

    def test_max_forcing_graphs_have_none(self):
        for seed in range(40):
            g = gen_random(6, "1/2", seed)
            pms = enumerate_perfect_matchings(g)
            if not pms or g.order < 4:
                continue
            if has_max_forcing_n_minus_1(g) is not None:
                assert has_fixed_double_bond(g) is None

    def test_no_pm_rejected(self):
        with pytest.raises(NoPerfectMatchingError):
            has_fixed_double_bond(path_graph(3))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_lowest_edge_of_every_matching(self, seed):
        g = gen_random(8, "1/2", seed)
        pms = oracle_perfect_matchings(g)
        if not pms:
            with pytest.raises(NoPerfectMatchingError):
                has_fixed_double_bond(g)
            return
        common = frozenset.intersection(*pms)
        assert has_fixed_double_bond(g) == min(common, default=None)
