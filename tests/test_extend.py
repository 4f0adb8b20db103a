from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matchforce import (
    Graph,
    PreconditionError,
    deficiency_witness,
    enumerate_perfect_matchings,
    gen_complete_multipartite,
    gen_knn_plus,
    gen_non_2_extendable,
    gen_random,
    has_max_forcing_n_minus_1,
    induced_subgraph,
    is_bicritical,
    is_connected,
    is_brick,
    is_factor_critical,
    is_knn_plus,
    is_l_extendable,
    non_2_extendable_structure,
    odd_component_count,
)
from matchforce.extend import (
    _factor_critical,
    _fits_case_i,
    _fits_case_ii,
    _independent_edges,
)
from matchforce.generate import enumerate_labeled_graphs
from matchforce.graph import components_masks

from graphs import cycle_graph, path_graph
from oracles import oracle_is_bicritical, oracle_is_l_extendable


class TestFactorCritical:
    def test_c5(self):
        assert is_factor_critical(cycle_graph(5))

    def test_k1(self):
        assert is_factor_critical(Graph.empty(1))

    def test_p3_fails(self):
        assert not is_factor_critical(path_graph(3))

    def test_even_order_fails(self, k4):
        assert not is_factor_critical(k4)

    def test_empty_graph_fails(self):
        assert not is_factor_critical(Graph.empty(0))


def _first_disjoint_edges(g, mask, l):
    """The first combination of l edges inside mask that are disjoint."""
    edges = [e for e in g.edges() if e.mask & mask == e.mask]
    for combo in combinations(edges, l):
        used = 0
        for e in combo:
            if e.mask & used:
                break
            used |= e.mask
        else:
            return combo
    return None


class TestIndependentEdges:
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_every_order_5_graph_and_mask(self, l):
        for g in enumerate_labeled_graphs(5):
            for mask in range(1 << 5):
                assert _independent_edges(g, mask, l) == _first_disjoint_edges(
                    g, mask, l
                )

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=255),
        st.integers(1, 3),
    )
    def test_random_order_8(self, seed, mask, l):
        g = gen_random(8, "1/2", seed)
        assert _independent_edges(g, mask, l) == _first_disjoint_edges(g, mask, l)


def _inside_edges(g, side):
    return [(x, y) for x, y in combinations(side, 2) if g.has_edge(x, y)]


class TestCasePredicates:
    """The mask predicates against the labelling definitions, with u side
    0..n-1 and v side n..2n-1."""

    def test_case_i(self):
        # case i reads only edges inside a side: every pair of side graphs
        # on four vertices each, joined by the matching i-(4+i)
        pairs = list(combinations(range(4), 2))
        for u_graph in range(1 << 6):
            for v_graph in range(1 << 6):
                edges = [(i, 4 + i) for i in range(4)]
                for k, (a, b) in enumerate(pairs):
                    if u_graph >> k & 1:
                        edges.append((a, b))
                    if v_graph >> k & 1:
                        edges.append((4 + a, 4 + b))
                g = Graph.from_edges(8, edges)
                inside = _inside_edges(g, (4, 5, 6, 7))
                want = (
                    len(inside) == 3
                    and len({x for e in inside for x in e}) == 3
                    and _first_disjoint_edges(g, 0x0F, 2) is not None
                )
                assert _fits_case_i(g, 0x0F, 0xF0) == want

    @pytest.mark.parametrize("pivot", [0, 1, 2])
    def test_case_ii(self, pivot):
        # every labeled order-6 graph, u side 0, 1, 2 and v side 3, 4, 5
        u, v = pivot, 3 + pivot
        rest = [x for x in (3, 4, 5) if x != v]
        for g in enumerate_labeled_graphs(6):
            want = (
                not _inside_edges(g, rest)
                and any(g.has_edge(x, v) for x in rest)
                and any(g.has_edge(x, u) for x in rest)
                and _first_disjoint_edges(g, 0b000111 | 1 << v, 2) is not None
            )
            assert _fits_case_ii(g, 0b000111, 0b111000, u, v) == want


class TestComponentFactorCritical:
    def test_matches_induced_subgraph(self):
        # every component of g - s, for every vertex set s, is a component
        # that the deficiency witness search may inspect
        for seed in range(6):
            g = gen_random(8, "1/2", seed)
            for s_mask in range(1 << g.order):
                for comp in components_masks(g, g.full_mask & ~s_mask):
                    vertices = [v for v in range(g.order) if comp >> v & 1]
                    assert _factor_critical(g, comp) == is_factor_critical(
                        induced_subgraph(g, vertices)
                    )


class TestBicritical:
    def test_k4(self, k4):
        assert is_bicritical(k4)

    def test_k33_fails(self, k33):
        assert not is_bicritical(k33)

    def test_k6(self, k6):
        assert is_bicritical(k6)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_deletion_condition(self, seed):
        g = gen_random(7, "1/2", seed)
        assert is_bicritical(g) == oracle_is_bicritical(g)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_even_matches_deletion_condition(self, seed):
        g = gen_random(8, "2/3", seed)
        assert is_bicritical(g) == oracle_is_bicritical(g)


class TestBrick:
    def test_k4(self, k4):
        assert is_brick(k4)

    def test_k33_not(self, k33):
        assert not is_brick(k33)

    def test_c6_not(self, c6):
        assert not is_brick(c6)


class TestLExtendable:
    def test_c6_level1(self, c6):
        assert is_l_extendable(c6, 1)

    def test_k4_level1(self, k4):
        assert is_l_extendable(k4, 1)

    def test_level0_means_pm(self, c6):
        assert is_l_extendable(c6, 0)

    def test_generated_not_2_extendable(self):
        g = gen_non_2_extendable("i", 4).graph
        assert is_l_extendable(g, 1)
        assert not is_l_extendable(g, 2)

    def test_monotone_in_level(self):
        for seed in range(25):
            g = gen_random(8, "2/3", seed)
            from matchforce import is_connected

            if not is_connected(g):
                continue
            if is_l_extendable(g, 2):
                assert is_l_extendable(g, 1)

    def test_order_too_small(self, k2):
        with pytest.raises(PreconditionError):
            is_l_extendable(k2, 1)

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(PreconditionError):
            is_l_extendable(g, 1)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from(["1/2", "2/3", "3/4", 1]),
    st.integers(1, 3),
)
def test_l_extendable_matches_oracle(seed, p, l):
    g = gen_random(8, p, seed)
    assume(is_connected(g))
    assert is_l_extendable(g, l) == oracle_is_l_extendable(g, l)


class TestDeficiencyWitness:
    def test_k4_level1_none(self, k4):
        assert deficiency_witness(k4, 1) is None

    def test_case_i_family_witness(self):
        g = gen_non_2_extendable("i", 4).graph
        w = deficiency_witness(g, 2)
        assert w is not None
        assert len(w.independent_edges) == 2
        assert odd_component_count(g, w.s) == len(w.s) - 2
        assert all(w.factor_critical)
        for comp in w.components:
            assert is_factor_critical(induced_subgraph(g, comp))

    def test_not_1_extendable_graph_witness(self):
        # one-sided extras with an extra edge are not 1-extendable: the
        # extra edge lies in no perfect matching
        g = gen_knn_plus(3, [(3, 4)])
        assert not is_l_extendable(g, 1)
        w = deficiency_witness(g, 1)
        assert w is not None
        assert odd_component_count(g, w.s) == len(w.s)

    def test_equivalence_with_extendability(self):
        for seed in range(30):
            g = gen_random(6, "2/3", seed)
            from matchforce import is_connected

            if not is_connected(g) or not is_l_extendable(g, 0):
                continue
            one_extendable = is_l_extendable(g, 1)
            assert (deficiency_witness(g, 1) is None) == one_extendable
            if one_extendable:
                assert (deficiency_witness(g, 2) is None) == is_l_extendable(g, 2)

    def test_precondition_checked(self, c6):
        g = gen_knn_plus(3, [(3, 4)])
        with pytest.raises(PreconditionError):
            deficiency_witness(g, 2)  # not even 1-extendable


class TestNonTwoExtendableStructure:
    def test_case_i_instance(self):
        lg = gen_non_2_extendable("i", 4)
        s = non_2_extendable_structure(lg.graph)
        assert s is not None and s.case == "i"
        # v side: one triangle plus isolated vertices
        v_edges = [
            (x, y)
            for i, x in enumerate(s.v_side)
            for y in s.v_side[i + 1 :]
            if lg.graph.has_edge(x, y)
        ]
        assert len(v_edges) == 3
        assert len({v for e in v_edges for v in e}) == 3

    def test_k6_is_2_extendable(self, k6):
        assert non_2_extendable_structure(k6) is None

    def test_case_ii_instance(self):
        lg = gen_non_2_extendable("ii", 3)
        s = non_2_extendable_structure(lg.graph)
        assert s is not None and s.case == "ii"
        rest = [s.v_side[i] for i in range(len(s.v_side)) if i != s.pivot]
        assert all(
            not lg.graph.has_edge(x, y)
            for i, x in enumerate(rest)
            for y in rest[i + 1 :]
        )
        assert any(lg.graph.has_edge(x, s.v_side[s.pivot]) for x in rest)
        assert any(lg.graph.has_edge(x, s.u_side[s.pivot]) for x in rest)

    def test_agrees_with_solver(self):
        for seed in range(60):
            g = gen_random(6, "2/3", seed)
            if not enumerate_perfect_matchings(g):
                continue
            if has_max_forcing_n_minus_1(g) is None or is_knn_plus(g) is not None:
                continue
            assert (non_2_extendable_structure(g) is not None) == (
                not is_l_extendable(g, 2)
            )

    def test_minimal_graphs_only_case_ii(self):
        # on edge-minimal top-forcing graphs the triangle case never occurs,
        # the pivot pair is met by two distinct v's, and both sides away
        # from the pivot are independent
        from matchforce import Connector, PairSignature, gen_minimal_from_signature

        for n in (3, 4):
            pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for mask in range(1 << len(pair_list)):
                sig = PairSignature(
                    n,
                    {
                        p: (
                            Connector.PARALLEL
                            if (mask >> b) & 1
                            else Connector.CROSS
                        )
                        for b, p in enumerate(pair_list)
                    },
                )
                g = gen_minimal_from_signature(sig).graph
                if is_knn_plus(g) is not None or is_l_extendable(g, 2):
                    continue
                s = non_2_extendable_structure(g)
                assert s is not None and s.case == "ii"
                rest_v = [v for i, v in enumerate(s.v_side) if i != s.pivot]
                rest_u = [u for i, u in enumerate(s.u_side) if i != s.pivot]
                for side in (rest_v, rest_u):
                    assert all(
                        not g.has_edge(x, y)
                        for i, x in enumerate(side)
                        for y in side[i + 1 :]
                    )
                vi = [x for x in rest_v if g.has_edge(x, s.v_side[s.pivot])]
                vj = [x for x in rest_v if g.has_edge(x, s.u_side[s.pivot])]
                assert any(a != b for a in vi for b in vj)

    def test_missing_labelling_raises(self, monkeypatch):
        monkeypatch.setattr(
            "matchforce.extend._case_labelling", lambda g, tops: None
        )
        with pytest.raises(AssertionError, match="no structural labeling"):
            non_2_extendable_structure(gen_non_2_extendable("ii", 3).graph)

    def test_preconditions_rejected(self, c6, k4):
        with pytest.raises(PreconditionError):
            non_2_extendable_structure(k4)  # n < 3
        with pytest.raises(PreconditionError):
            non_2_extendable_structure(c6)  # max forcing below top
        with pytest.raises(PreconditionError):
            non_2_extendable_structure(gen_complete_multipartite([3, 3]))  # K_{n,n}
