import hashlib
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchforce import (
    AlternatingCycle,
    ClassTag,
    Edge,
    Graph,
    NoPerfectMatchingError,
    PreconditionError,
    build_switch_graph,
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
    has_perfect_matching,
    is_complete_multipartite,
    is_forcing_set,
    is_knn_plus,
    max_independent_set_size,
    parse_graph6,
    to_graph6,
)
from matchforce._core.cycles import alternating_cycles
from matchforce.harness import _GraphContext

from graphs import complete_graph, path_graph
from oracles import (
    oracle_every_pair_exact,
    oracle_every_pair_spans,
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
    """Lemma 2.2 as the switch build answers it: a matching's pairs of
    edges that span an alternating 4-cycle are its switched pairs."""

    def test_k33_true(self, k33):
        assert build_switch_graph(k33).switched_pairs == (3,) * 6

    def test_c6_failing_pair(self, c6):
        # no pair of either matching's edges spans an alternating 4-cycle
        assert build_switch_graph(c6).switched_pairs == (0, 0)

    def test_k4_true(self, k4):
        assert build_switch_graph(k4).switched_pairs == (1, 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_equivalent_to_max_forcing(self, seed):
        # holds iff the forcing number is one below the matching size
        g = gen_random(8, "1/2", seed)
        n = g.order // 2
        for m in enumerate_perfect_matchings(g)[:6]:
            ok = oracle_every_pair_spans(g, m)
            assert ok == (forcing_number(g, m).optimum == n - 1)


def _profile_tops(g) -> list:
    """The forcing profile's flat matchings of forcing number n - 1."""
    profile = forcing_profile(g)
    top = g.order // 2 - 1
    return [m for m, f in zip(profile.matchings, profile.forcing) if f == top]


class TestMaxForcingWitness:
    """The top matchings (f = n - 1) that the thm41 block reads off the
    forcing profile, as flat tuples (u0, v0, u1, v1, ...)."""

    def test_k33_any(self, k33):
        assert _profile_tops(k33)

    def test_c6_none(self, c6):
        assert _profile_tops(c6) == []

    def test_hk_defining_matching(self):
        lg = gen_h_k(3, 1)
        assert _profile_tops(lg.graph)[0] == tuple(v for e in lg.m0.edges for v in e)

    def test_no_pm_rejected(self):
        with pytest.raises(NoPerfectMatchingError):
            _profile_tops(Graph(4, (0,) * 4))


# sha256 of `_cycle_witnesses` over every perfect matching of every labeled
# graph through order 6: a change to the cycle search order, to which
# cycles it finds or to the forcing-set counterexamples moves it.
WITNESS_SHA256 = "696b0bcf48b394a74c2ad2a25b16a89767943b317be86ffdea04fea2428ac42d"


def _cycle_witnesses(g, m) -> bytes:
    """The first alternating cycle, every alternating cycle, and the
    counterexample cycle of each one-edge forcing-set candidate."""
    first = is_forcing_set(g, m, ())[1]
    found = alternating_cycles(g.rows, m.mates(g.order), g.full_mask)
    every = sorted(
        (AlternatingCycle.canonical(c) for c in found),
        key=lambda c: (len(c.vertices), c.vertices),
    )
    refuted = [is_forcing_set(g, m, [e])[1] for e in m.edges]
    line = (
        first and first.vertices,
        [c.vertices for c in every],
        [c and c.vertices for c in refuted],
    )
    return repr(line).encode() + b"\n"


def is_minimal_max_forcing(g) -> bool:
    """Edge-minimality by count, as the harness reads it: F = n - 1 and
    |E| = n^2 (False without a perfect matching)."""
    return has_perfect_matching(g) and _GraphContext(g).minimal_max_forcing


class TestMinimality:
    def test_k33_minimal(self, k33):
        assert is_minimal_max_forcing(k33)

    def test_k4_not_minimal(self, k4):
        assert not is_minimal_max_forcing(k4)

    def test_hk_minimal(self):
        assert is_minimal_max_forcing(gen_h_k(3, 1).graph)

    def test_count_matches_definition_exhaustive(self):
        # every labeled graph through order 6 with a perfect matching: the
        # count (F = n - 1 and |E| = n^2) against "some matching induces
        # only 4-cycles"; on every perfect matching, the switch build's
        # pair count (all C(n, 2) pairs switch, and with |E| = n^2 each
        # pair induces exactly a 4-cycle) against per-pair oracles, and a
        # digest of its alternating-cycle witnesses
        minimal = 0
        matchings = spanning = exact = 0
        witnesses = hashlib.sha256()
        for order in range(2, 7, 2):
            for g in enumerate_labeled_graphs(order):
                if not has_perfect_matching(g):
                    continue
                n = order // 2
                sized = g.edge_count() == n * n
                profile = forcing_profile(g)
                sg = build_switch_graph(g, profile=profile)
                some_exact = False
                for m, pairs in zip(sg.nodes, sg.switched_pairs):
                    every_spans = pairs == comb(n, 2)
                    assert every_spans == oracle_every_pair_spans(g, m), to_graph6(g)
                    every_exact = oracle_every_pair_exact(g, m)
                    assert (every_spans and sized) == every_exact, to_graph6(g)
                    some_exact |= every_exact
                    matchings += 1
                    spanning += every_spans
                    exact += every_exact
                    witnesses.update(_cycle_witnesses(g, m))
                counted = profile.max_forcing == n - 1 and sized
                assert counted == some_exact, to_graph6(g)
                minimal += some_exact
        assert minimal == 74  # 1, 3 and 70 at orders 2, 4 and 6
        # perfect matchings; those whose every pair spans a 4-cycle; those
        # whose every pair induces exactly one
        assert (matchings, spanning, exact) == (61489, 5167, 127)
        assert witnesses.hexdigest() == WITNESS_SHA256, witnesses.hexdigest()

    def test_count_matches_definition_on_families(self):
        graphs = [
            (name, g)
            for name, g in family_corpus()
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
            classify_min_forcing(Graph(4, (0,) * 4))
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

    def test_empty_graphs(self):
        assert max_independent_set_size(Graph(0, ())) == 0
        assert max_independent_set_size(Graph(1, (0,))) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_bruteforce(self, seed):
        g = gen_random(8, "1/2", seed)
        assert max_independent_set_size(g) == oracle_max_independent_set(g)


class TestFixedDoubleBond:
    def test_p4_lowest(self, p4):
        assert has_fixed_double_bond(forcing_profile(p4)) == Edge(0, 1)

    def test_c6_none(self, c6):
        assert has_fixed_double_bond(forcing_profile(c6)) is None

    def test_first_matchings_share_an_edge_that_a_later_one_lacks(self):
        # EFj?: edges 0-3, 0-4, 0-5, 1-3, 1-5, 2-3, 2-4 and three matchings;
        # the first two share an edge, all three share none, so the scan
        # must read past the second
        g = parse_graph6("EFj?")
        assert sorted(g.edges()) == [
            (0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)
        ]
        profile = forcing_profile(g)
        sets = [set(zip(m[::2], m[1::2])) for m in profile.matchings]
        assert len(sets) == 3
        assert sets[0] & sets[1] and not sets[0] & sets[1] & sets[2]
        assert has_fixed_double_bond(profile) is None

    def test_max_forcing_graphs_have_none(self):
        for seed in range(40):
            g = gen_random(6, "1/2", seed)
            pms = enumerate_perfect_matchings(g)
            if not pms or g.order < 4:
                continue
            profile = forcing_profile(g)
            if profile.max_forcing == g.order // 2 - 1:
                assert has_fixed_double_bond(profile) is None

    def test_no_pm_rejected(self):
        # a graph without a perfect matching has no profile to read
        with pytest.raises(NoPerfectMatchingError):
            has_fixed_double_bond(forcing_profile(path_graph(3)))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_lowest_edge_of_every_matching(self, seed):
        g = gen_random(8, "1/2", seed)
        pms = oracle_perfect_matchings(g)
        if not pms:
            with pytest.raises(NoPerfectMatchingError):
                forcing_profile(g)
            return
        common = frozenset.intersection(*pms)
        assert has_fixed_double_bond(forcing_profile(g)) == min(common, default=None)
