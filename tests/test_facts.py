"""The kernel's matching facts against the readings they replace.

`verify` reads five facts off a graph's enumerated perfect matchings in one
kernel pass, ``matching_facts``, which builds no switch adjacency.  Each
must equal the reading it replaced, under the pure kernel and, where it
builds, the native one:

- the switched pairs: the pairs of a matching's edges that span an
  alternating 4-cycle, by Lemma 2.2's rule;
- the pair cover: ``is_l_extendable(g, 2)`` on connected graphs of order
  >= 6, and a cover of every pair of disjoint edges by some matching on
  any graph;
- the fixed bond: the lowest edge common to all the matchings;
- the first jump: the first violation of the switch bound, in
  ``SwitchGraph.edges()`` order;
- the reach: every component of the switch adjacency holds a top node.
"""

from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings

from matchforce import (
    Graph,
    build_switch_graph,
    builtin_corpus,
    family_corpus,
    forcing_profile,
    gen_random,
    has_perfect_matching,
    is_connected,
    is_l_extendable,
)
from matchforce import _core
from matchforce._core import pure

from graphs import complete_graph, cycle_graph, top_forcing_strategy
from oracles import (
    oracle_component_masks,
    oracle_fixed_double_bond,
    oracle_switch_bound,
    oracle_switched_pairs,
)
from test_acceptance import top_graphs_with_extra_edges

KERNELS = [pure.Kernel]
if _core.kernel_backend() == "compiled":  # no compiler: the pure kernel alone
    KERNELS.append(_core.NativeKernel)


def _pair_cover(g: Graph, matchings) -> bool:
    """Every pair of disjoint edges of g lies in one of the matchings."""
    together = set()
    for flat in matchings:
        it = iter(flat)
        together.update(combinations(list(zip(it, it)), 2))
    return all(
        (e, f) in together
        for e, f in combinations(sorted(g.edges()), 2)
        if not {*e} & {*f}
    )


def _readings(g: Graph, profile) -> tuple:
    """The matching facts of g as the readings they replace give them."""
    sg = build_switch_graph(g, profile=profile)
    covered = _pair_cover(g, profile.matchings)
    if g.order >= 6 and is_connected(g):
        assert covered == is_l_extendable(g, 2)
    ok, violation = oracle_switch_bound(sg)
    top = sum(1 << i for i, f in enumerate(profile.forcing) if f == g.order // 2 - 1)
    return (
        tuple(oracle_switched_pairs(g, flat) for flat in profile.matchings),
        covered,
        oracle_fixed_double_bond(profile),
        None if ok else tuple(sg.node_index[m] for m in violation),
        all(c & top for c in oracle_component_masks(sg.adjacency)),
    )


def _assert_facts(graphs) -> int:
    """Check every graph with a perfect matching under every kernel; the
    number checked."""
    checked = 0
    for g in graphs:
        if not has_perfect_matching(g):
            continue
        profile = forcing_profile(g)
        expected = _readings(g, profile)
        for kernel in KERNELS:
            got = kernel(g.rows).matching_facts(profile.matchings, profile.forcing)
            assert got == expected, (kernel.__name__, g)
        checked += 1
    return checked


def test_exhaustive_6():
    assert _assert_facts(builtin_corpus("exhaustive-6")) == 24823


def test_families_10():
    assert _assert_facts(builtin_corpus("families-10")) == len(
        [g for _, g in family_corpus() if has_perfect_matching(g)]
    )


def test_top_graphs_with_extra_edges():
    assert _assert_facts(top_graphs_with_extra_edges()) == 40


@pytest.mark.parametrize("order", [12, 14, 16])
def test_random_orders_12_to_16(order):
    assert _assert_facts(gen_random(order, "1/2", seed) for seed in range(3)) == 3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(top_forcing_strategy())
def test_top_forcing_graphs(g):
    assert _assert_facts([g]) == 1


@pytest.mark.parametrize("kernel", KERNELS)
def test_edge_in_no_matching_is_uncovered(kernel):
    # two triangles 0-1-2 and 3-4-5 joined by the edge 2-3: the one
    # perfect matching 0-1, 2-3, 4-5 covers every pair of its own edges,
    # but not 0-2 with 4-5, since 0-2 lies in no perfect matching
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    profile = forcing_profile(g)
    assert profile.matchings == ((0, 1, 2, 3, 4, 5),)
    switched, covered, bond, jump, reach = kernel(g.rows).matching_facts(
        profile.matchings, profile.forcing
    )
    assert not covered and not is_l_extendable(g, 2)
    assert (switched, bond, jump, reach) == ((0,), (0, 1), None, False)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "forcing, first",
    [((0, 1, 3), (0, 2)), ((3, 1, 0), (0, 1)), ((1, 3, 1), (0, 1)), ((1, 1, 3), (0, 2))],
)
def test_first_planted_jump(kernel, forcing, first):
    # K4's three matchings are pairwise adjacent: the jump reported is the
    # first in edges() order, lower end first, as the switch bound's
    k4 = complete_graph(4)
    sg = build_switch_graph(k4)
    facts = kernel(k4.rows).matching_facts(sg.matchings, forcing)
    violation = oracle_switch_bound(replace(sg, forcing=forcing))[1]
    assert facts[3] == first == tuple(sg.node_index[m] for m in violation)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("forcing, reach", [((2, 1), False), ((2, 2), True), ((1, 1), False)])
def test_reach_needs_a_top_in_every_component(kernel, forcing, reach):
    # C6's two matchings share no 4-cycle, so each is its own component;
    # relabelled, a top (n - 1 = 2) in one component does not reach the other
    c6 = cycle_graph(6)
    matchings = forcing_profile(c6).matchings
    assert kernel(c6.rows).matching_facts(matchings, forcing)[4] is reach
