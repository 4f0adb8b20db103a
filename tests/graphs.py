"""Small named graphs and graph strategies shared by the test modules."""

from hypothesis import strategies as st

from matchforce import Graph, gen_complete_multipartite


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return gen_complete_multipartite([1] * n) if n else Graph.empty(0)


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def grid_2x3() -> Graph:
    # vertices row-major: 0 1 2 / 3 4 5
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    )


def planted_matching_strategy():
    """Graphs on 4, 6 or 8 vertices: a perfect matching on a permuted vertex
    order plus at most 12 other edges, which keeps the cycle oracle fast on
    order 8."""

    @st.composite
    def build(draw):
        order = draw(st.sampled_from((4, 6, 8)))
        perm = draw(st.permutations(range(order)))
        planted = {tuple(sorted(perm[i : i + 2])) for i in range(0, order, 2)}
        others = [
            (i, j)
            for i in range(order)
            for j in range(i + 1, order)
            if (i, j) not in planted
        ]
        extra = draw(st.sets(st.sampled_from(others), max_size=12))
        return Graph.from_edges(order, sorted(planted | extra))

    return build()
