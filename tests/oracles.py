"""Independent brute-force oracles.

Everything here is deliberately naive and shares no code path with the
package: matchings come from edge-subset enumeration, cycles from vertex
DFS, forcing sets straight from the definition (a subset of a matching
forces iff no other perfect matching contains it).  Intended for orders up
to about 8 (10 for the cycle and set oracles).
"""

from collections import deque
from functools import lru_cache
from itertools import combinations

from matchforce import Edge, Graph, PerfectMatching
from matchforce.graph import iter_bits


@lru_cache(maxsize=64)
def oracle_perfect_matchings(g: Graph) -> tuple[frozenset, ...]:
    """All perfect matchings as frozensets of edges, via C(|E|, n/2) scan.
    Memoized per graph: the forcing and extendability oracles ask for the
    same graph's matchings once per matching or subset they check."""
    if g.order % 2:
        return ()
    edges = g.edges()
    want = g.order // 2
    out = []
    for combo in combinations(edges, want):
        used = 0
        ok = True
        for e in combo:
            if used & e.mask:
                ok = False
                break
            used |= e.mask
        if ok and used == g.full_mask:
            out.append(frozenset(combo))
    return tuple(out)


def oracle_switch_edges(g: Graph) -> list[tuple[int, int]]:
    """Switch-graph edges over `oracle_perfect_matchings` order: matchings
    i < j are adjacent iff they differ in exactly two edges."""
    pms = oracle_perfect_matchings(g)
    return [
        (i, j)
        for i, j in combinations(range(len(pms)), 2)
        if len(pms[i] - pms[j]) == 2
    ]


def oracle_component_masks(adjacency) -> list[int]:
    """Connected components of a graph given by neighbour lists, as bit
    masks over node indices, each grown by BFS from its smallest node."""
    seen = 0
    comps = []
    for root in range(len(adjacency)):
        if (seen >> root) & 1:
            continue
        comp = 1 << root
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if not (comp >> v) & 1:
                    comp |= 1 << v
                    queue.append(v)
        seen |= comp
        comps.append(comp)
    return comps


def oracle_has_pm_tutte(g: Graph) -> bool:
    """Tutte condition: every vertex set S leaves at most |S| odd components."""
    for size in range(g.order + 1):
        for s in combinations(range(g.order), size):
            if _odd_components(g, set(s)) > size:
                return False
    return True


def _components(g: Graph, removed: set) -> list[set]:
    left = set(range(g.order)) - removed
    comps = []
    while left:
        seed = min(left)
        comp = {seed}
        stack = [seed]
        while stack:
            u = stack.pop()
            for v in iter_bits(g.rows[u]):
                if v in left and v not in comp:
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
        left -= comp
    return comps


def _odd_components(g: Graph, removed: set) -> int:
    return sum(1 for c in _components(g, removed) if len(c) % 2)


def oracle_simple_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every simple cycle once: rooted at its smallest vertex, direction
    fixed by second < last."""
    adj = [sorted(iter_bits(g.rows[v])) for v in range(g.order)]
    cycles = []

    def extend(path, visited):
        start = path[0]
        for w in adj[path[-1]]:
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w > start and w not in visited:
                path.append(w)
                visited.add(w)
                extend(path, visited)
                visited.remove(w)
                path.pop()

    for s in range(g.order):
        extend([s], {s})
    return cycles


def _alternates(cycle: tuple[int, ...], m_edges: frozenset) -> bool:
    k = len(cycle)
    if k % 2 or k < 4:
        return False
    flags = []
    for i in range(k):
        a, b = cycle[i], cycle[(i + 1) % k]
        flags.append(tuple(sorted((a, b))) in m_edges)
    return all(flags[i] != flags[(i + 1) % k] for i in range(k))


def oracle_alternating_cycles(g: Graph, m: PerfectMatching) -> list[tuple[int, ...]]:
    m_edges = frozenset((e.u, e.v) for e in m.edges)
    return [c for c in oracle_simple_cycles(g) if _alternates(c, m_edges)]


def oracle_flip(g: Graph, m: PerfectMatching, cycle) -> PerfectMatching | None:
    """m with the edges of the vertex cycle exchanged, M xor E(C), or None
    when the cycle is not an m-alternating cycle of g."""
    k = len(cycle)
    pairs = {tuple(sorted((cycle[i], cycle[(i + 1) % k]))) for i in range(k)}
    m_edges = frozenset((e.u, e.v) for e in m.edges)
    if not all(g.has_edge(*p) for p in pairs) or not _alternates(cycle, m_edges):
        return None
    return PerfectMatching.from_pairs(m_edges ^ pairs)


def oracle_cycle_packing_number(g: Graph, m: PerfectMatching) -> int:
    """Most vertex-disjoint m-alternating cycles, over every family of
    `oracle_alternating_cycles` grown one disjoint cycle at a time."""
    masks = [sum(1 << v for v in c) for c in oracle_alternating_cycles(g, m)]

    def most(start: int, used: int) -> int:
        return max(
            (
                1 + most(i + 1, used | c)
                for i, c in enumerate(masks[start:], start)
                if not c & used
            ),
            default=0,
        )

    return most(0, 0)


def oracle_is_forcing(g: Graph, m: PerfectMatching, subset) -> bool:
    """Definition check: no other perfect matching contains the subset."""
    sub = set(subset)
    holders = [
        pm for pm in oracle_perfect_matchings(g) if sub <= {tuple(e) for e in pm}
    ]
    return holders == [frozenset(m.edges)]


def oracle_forcing_number(g: Graph, m: PerfectMatching) -> int:
    pms = oracle_perfect_matchings(g)
    me = frozenset(m.edges)
    assert me in pms, "oracle called with a non-matching"
    for size in range(len(m) + 1):
        for combo in combinations(sorted(me), size):
            sub = set(combo)
            if [pm for pm in pms if sub <= pm] == [me]:
                return size
    raise AssertionError("a perfect matching forces itself")


def oracle_is_minimal_max_forcing(g: Graph) -> bool:
    """Edge-minimality by definition: some perfect matching whose every pair
    of edges (a, b), (c, d) induces exactly 4 edges, which are one
    alternating 4-cycle: both parallel (a~c, b~d) or both crossed
    connectors (a~d, b~c)."""
    for pm in oracle_perfect_matchings(g):
        if all(
            _induces_four_cycle(g, e, f) for e, f in combinations(sorted(pm), 2)
        ):
            return True
    return False


def _induces_four_cycle(g: Graph, e, f) -> bool:
    induced = sum(g.has_edge(x, y) for x, y in combinations((*e, *f), 2))
    return induced == 4 and oracle_spans_four_cycle(g, e, f)


def oracle_spans_four_cycle(g: Graph, e, f) -> bool:
    """Matching edges (a, b), (c, d) with both parallel (a~c, b~d) or both
    crossed connectors (a~d, b~c)."""
    (a, b), (c, d) = e, f
    parallel = g.has_edge(a, c) and g.has_edge(b, d)
    crossed = g.has_edge(a, d) and g.has_edge(b, c)
    return parallel or crossed


def oracle_every_pair_spans(g: Graph, m: PerfectMatching) -> bool:
    """Lemma 2.2's condition for f(G, M) = n - 1: every pair of m's edges
    spans an alternating 4-cycle."""
    return all(oracle_spans_four_cycle(g, e, f) for e, f in combinations(m.edges, 2))


def oracle_every_pair_exact(g: Graph, m: PerfectMatching) -> bool:
    """Every pair of m's edges induces exactly one alternating 4-cycle."""
    return all(_induces_four_cycle(g, e, f) for e, f in combinations(m.edges, 2))


def oracle_vertex_connectivity(g: Graph) -> int:
    n = g.order
    if n <= 1:
        return 0
    if all(g.has_edge(u, v) for u in range(n) for v in range(u + 1, n)):
        return n - 1
    for size in range(n - 1):
        for s in combinations(range(n), size):
            if len(_components(g, set(s))) > 1:
                return size
    return n - 1


def oracle_max_independent_set(g: Graph) -> int:
    for size in range(g.order, 0, -1):
        for s in combinations(range(g.order), size):
            if all(not g.has_edge(u, v) for u, v in combinations(s, 2)):
                return size
    return 0


def oracle_is_complete_multipartite(g: Graph) -> bool:
    """No induced triple carrying exactly one edge."""
    for t in combinations(range(g.order), 3):
        edges = sum(1 for u, v in combinations(t, 2) if g.has_edge(u, v))
        if edges == 1:
            return False
    return True


def oracle_is_bicritical(g: Graph) -> bool:
    """Deletion condition: every X with |X| >= 2 leaves at most |X| - 2 odd
    components."""
    if g.edge_count() == 0:
        return False
    for size in range(2, g.order + 1):
        for x in combinations(range(g.order), size):
            if _odd_components(g, set(x)) > size - 2:
                return False
    return True


def oracle_is_l_extendable(g: Graph, l: int) -> bool:
    """Definition check: g has a perfect matching and every matching of l
    edges lies inside some perfect matching."""
    pms = oracle_perfect_matchings(g)
    if not pms:
        return False
    for combo in combinations(g.edges(), l):
        vertices = [v for e in combo for v in e]
        if len(set(vertices)) < 2 * l:
            continue
        if not any(set(combo) <= pm for pm in pms):
            return False
    return True


def oracle_switch_bound(sg):
    """Check that adjacent matchings of the switch graph ``sg`` have forcing
    numbers within 1: (True, None), or False with the first violation, in
    ``sg.edges()`` order, as its two matchings with i < j."""
    f = sg.forcing
    for i, nbrs in enumerate(sg.adjacency):
        for j in nbrs:
            if i < j and abs(f[i] - f[j]) > 1:
                pair = sg.matchings[i], sg.matchings[j]
                return False, tuple(map(PerfectMatching._unchecked, pair))
    return True, None


def oracle_fixed_double_bond(profile):
    """Lowest edge contained in every matching of a forcing profile, or
    None: the flat tuples' pairs intersected matching by matching."""
    common = None
    for m in profile.matchings:
        it = iter(m)
        pairs = zip(it, it)
        common = set(pairs) if common is None else common.intersection(pairs)
        if not common:
            return None
    return Edge(*min(common))


def oracle_switched_pairs(g: Graph, flat) -> int:
    """The pairs of a flat matching's edges that span an alternating
    4-cycle."""
    it = iter(flat)
    pairs = combinations(list(zip(it, it)), 2)
    return sum(oracle_spans_four_cycle(g, e, f) for e, f in pairs)
