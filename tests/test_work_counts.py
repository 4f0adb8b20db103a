"""Work counts of the matching kernel, pinned.

Timings drift between machines and runs; these counts do not.  They are
read from the test side: every kernel made during a test gets a
``count2`` memo that counts its lookups, so the hot loop carries no
counter.  A change that moves a total re-pins it, with the old and the
new values in CHANGES.md.
"""

import pytest

from matchforce import Graph, builtin_corpus, verify_graphs
from matchforce import _core, graph, harness
from matchforce._core import pure

from graphs import cycle_graph, grid_graph, half_graph


class _CountingMemo(dict):
    """A ``count2`` memo that counts its lookups."""

    __slots__ = ("lookups",)

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)


def _counting_kernel(rows) -> pure.Kernel:
    kern = pure.Kernel(rows)
    kern._count_cache = _CountingMemo(kern._count_cache)
    return kern


@pytest.fixture
def kernels(monkeypatch):
    """Every kernel the package makes while the test runs, each fresh and
    with a counting memo."""
    made = []

    def make(rows):
        made.append(_counting_kernel(rows))
        return made[-1]

    monkeypatch.setattr(_core, "make_kernel", make)
    graph._kernel_cached.cache_clear()
    yield made
    graph._kernel_cached.cache_clear()


# corpus, kernels made, count2 memo entries, memo lookups; an odd order
# never reaches the memo, so exhaustive-5 holds only each kernel's seed
# entry and exhaustive-4 is the small even-order row
@pytest.mark.parametrize(
    "corpus, made, entries, lookups",
    [
        ("exhaustive-4", 64, 226, 289),
        ("exhaustive-5", 1024, 1024, 0),
        ("families-10", 229, 33341, 122714),
    ],
)
def test_verify_work_counts(kernels, corpus, made, entries, lookups):
    report = verify_graphs(corpus, builtin_corpus(corpus))
    assert report.all_passed
    assert len(kernels) == made
    assert sum(len(k._count_cache) for k in kernels) == entries
    assert sum(k._count_cache.lookups for k in kernels) == lookups


# corpus, matchings enumerated, switch edges, switched pairs; the last
# is the number of pairs of a node's edges that span an alternating
# 4-cycle, summed over every switch graph node
@pytest.mark.parametrize(
    "corpus, matchings, switch_edges, switched_pairs",
    [
        ("exhaustive-4", 48, 12, 21),
        ("families-10", 17066, 106002, 151200),
    ],
)
def test_verify_matching_and_switch_counts(
    kernels, monkeypatch, corpus, matchings, switch_edges, switched_pairs
):
    enumerated = []
    built = []
    enumerate_pms = pure.Kernel.enumerate_pms
    build = harness.build_switch_graph

    def counted_enumerate(self, *args):
        enumerated.append(enumerate_pms(self, *args))
        return enumerated[-1]

    def counted_build(g, **kwargs):
        built.append(build(g, **kwargs))
        return built[-1]

    monkeypatch.setattr(pure.Kernel, "enumerate_pms", counted_enumerate)
    monkeypatch.setattr(harness, "build_switch_graph", counted_build)
    report = verify_graphs(corpus, builtin_corpus(corpus))
    assert report.all_passed
    assert sum(map(len, enumerated)) == matchings
    assert sum(len(sg.edges()) for sg in built) == switch_edges
    assert sum(sum(sg.switched_pairs) for sg in built) == switched_pairs


# the two ends of the side-choice rule: f = 0, where growing kept sets
# alone would take every one of the 2^12 kept sets; a sparse grid whose
# optima lie mid-range; and a 40-cycle, whose 2 matchings would make
# growth alone walk 2^19 kept sets; graph, matchings, sum of forcing
# numbers, lookups of the one call that takes all the matchings
@pytest.mark.parametrize(
    "g, matchings, optima, lookups",
    [
        (half_graph(12), 1, 0, 13313),
        (grid_graph(4, 5), 95, 344, 35477),
        (cycle_graph(40), 2, 2, 45),
    ],
    ids=["half-graph-24", "grid-4x5", "cycle-40"],
)
def test_forcing_optimum_lookups(g, matchings, optima, lookups):
    kern = _counting_kernel(g.rows)
    found = kern.enumerate_pms(10**6)
    assert len(found) == matchings
    assert sum(kern.forcing_numbers(found)) == optima
    assert kern._count_cache.lookups == lookups
