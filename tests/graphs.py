"""Small named graphs shared by the test modules."""

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
