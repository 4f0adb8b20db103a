"""The benchmark's own input generators."""

from itertools import combinations, islice, permutations

import gen
from matchforce import enumerate_perfect_matchings, parse_graph6


def rows_of(g6: str) -> tuple[int, ...]:
    return parse_graph6(g6).rows


def has_edge(rows, u, v) -> bool:
    return bool((rows[u] >> v) & 1)


def count_pms_brute(rows, vertices) -> int:
    """Perfect matchings of the induced subgraph, by plain recursion."""
    if not vertices:
        return 1
    u, rest = vertices[0], vertices[1:]
    return sum(
        count_pms_brute(rows, rest[:i] + rest[i + 1 :])
        for i, v in enumerate(rest)
        if has_edge(rows, u, v)
    )


def alternating_four_cycle(rows, e1, e2) -> bool:
    """Some 4-cycle through both matching edges that alternates with them."""
    for cyc in permutations((*e1, *e2)):
        pairs = [frozenset((cyc[i], cyc[(i + 1) % 4])) for i in range(4)]
        if not all(has_edge(rows, *p) for p in pairs):
            continue
        in_m = [p in (frozenset(e1), frozenset(e2)) for p in pairs]
        if all(in_m[i] != in_m[(i + 1) % 4] for i in range(4)):
            return True
    return False


def test_same_seed_same_bytes():
    def top(seed):
        return [g6 for g6, _m in islice(gen.top_forcing_graphs(seed), 50)]

    def dense(seed):
        return list(islice(gen.dense_graphs(seed, 14, (4000, 4200)), 3))

    assert top(7) == top(7)
    assert dense(7) == dense(7)
    assert top(7) != top(8)
    assert dense(7) != dense(8)


def test_top_forcing_graphs_meet_pair_condition():
    n = 5
    for g6, matching in islice(gen.top_forcing_graphs(3), 100):
        rows = rows_of(g6)
        assert len(rows) == 2 * n
        assert sorted(v for e in matching for v in e) == list(range(2 * n))
        assert all(has_edge(rows, u, v) for u, v in matching)
        # Lemma 2.2's condition: every pair of base edges spans an
        # alternating 4-cycle ...
        for e1, e2 in combinations(matching, 2):
            assert alternating_four_cycle(rows, e1, e2), (g6, e1, e2)
        # ... so no n - 2 base edges force the matching: deleting their
        # endpoints leaves a second perfect matching
        for kept in combinations(matching, 2):
            assert count_pms_brute(rows, [v for e in kept for v in e]) >= 2


def test_graph6_and_matching_count_agree_with_matchforce():
    stream = gen.stream_for(5, "dense")
    for order in (6, 8, 10):
        for _ in range(5):
            rows = gen.dense_graph(order, stream)
            g = parse_graph6(gen.graph6(rows))
            assert g.rows == tuple(rows)
            assert gen.count_perfect_matchings(rows) == len(enumerate_perfect_matchings(g))


def test_dense_graphs_stay_in_band():
    for g6, count in islice(gen.dense_graphs(2, 14, (4000, 4200)), 3):
        assert 4000 <= count <= 4200
        assert gen.count_perfect_matchings(list(rows_of(g6))) == count
