"""Small named graphs and graph strategies shared by the test modules."""

from itertools import combinations

from hypothesis import strategies as st

from matchforce import (
    Graph,
    components_masks,
    gen_complete_multipartite,
    gen_minimal_from_signature,
)
from matchforce.graph import iter_bits, mask_of


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return gen_complete_multipartite([1] * n) if n else Graph(0, ())


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertices numbered row-major."""
    pairs = []
    for v in range(rows * cols):
        if v % cols + 1 < cols:
            pairs.append((v, v + 1))
        if v + cols < rows * cols:
            pairs.append((v, v + cols))
    return Graph.from_edges(rows * cols, pairs)


def half_graph(n: int) -> Graph:
    """u_i = i and v_j = n + j adjacent iff i <= j: exactly one perfect
    matching, u_i v_i, so its forcing number is 0."""
    return Graph.from_edges(2 * n, [(i, n + j) for i in range(n) for j in range(i, n)])


def induced_subgraph(g: Graph, t) -> Graph:
    """Subgraph induced by t, relabeled 0..len(t)-1 in the order given."""
    verts = list(t)
    for v in verts:
        if not 0 <= v < g.order:
            raise ValueError(f"vertex {v} out of range")
    if len(set(verts)) != len(verts):
        raise ValueError("induced vertex set has repeats")
    index = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for v, i in index.items():
        for w in iter_bits(g.rows[v]):
            j = index.get(w)
            if j is not None:
                rows[i] |= 1 << j
    return Graph(len(verts), tuple(rows))


def odd_component_count(g: Graph, removed) -> int:
    """Number of odd-order components after deleting the given vertices."""
    rm = mask_of(removed)
    if rm & ~g.full_mask:
        raise ValueError("removed set references a vertex out of range")
    within = g.full_mask & ~rm
    return sum(1 for comp in components_masks(g, within) if comp.bit_count() & 1)


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


def top_forcing_strategy():
    """Signature graphs on 3 or 4 matching edges (F = n - 1, edge-minimal)
    plus at most four other edges.  A pair of matching edges that spans an
    alternating 4-cycle keeps spanning when edges are added, so F stays
    n - 1."""

    @st.composite
    def build(draw):
        n = draw(st.sampled_from((3, 4)))
        pairs = list(combinations(range(n), 2))
        parallel = draw(st.lists(st.sampled_from(pairs), unique=True))
        g = gen_minimal_from_signature(n, parallel).graph
        present = set(g.edges())
        others = [p for p in combinations(range(2 * n), 2) if p not in present]
        extra = draw(st.sets(st.sampled_from(others), max_size=4))
        return Graph.from_edges(2 * n, sorted(present | extra))

    return build()
