import json
from collections import Counter
from dataclasses import replace
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchforce import (
    THEOREM_IDS,
    Graph,
    builtin_corpus,
    classify_min_forcing,
    enumerate_perfect_matchings,
    family_corpus,
    forcing_profile,
    gen_complete_multipartite,
    gen_h_k,
    gen_knn_plus,
    gen_non_2_extendable,
    gen_random,
    has_perfect_matching,
    is_connected,
    is_l_extendable,
    to_graph6,
    verify_graphs,
    vertex_connectivity,
)
from matchforce import _core, graph, harness
from matchforce._core import pure
from matchforce.harness import check_graph, resolve_theorems
from matchforce.records import dumps, make_record, verification_payload

from graphs import (
    complete_graph,
    cycle_graph,
    planted_matching_strategy,
    top_forcing_strategy,
)
from oracles import oracle_every_pair_spans


class TestCorpora:
    def test_exhaustive_counts(self):
        assert len(list(builtin_corpus("exhaustive-3"))) == 8
        assert len(list(builtin_corpus("exhaustive-4"))) == 64

    def test_exhaustive_6_size(self):
        assert sum(1 for _ in builtin_corpus("exhaustive-6")) == 32768

    def test_builtin_corpora_are_one_pass_graph_iterators(self):
        for name, size in (("exhaustive-3", 8), ("families-10", len(family_corpus()))):
            corpus = builtin_corpus(name)
            graphs = list(corpus)
            assert len(graphs) == size
            assert all(isinstance(g, graph.Graph) for g in graphs)
            assert list(corpus) == []

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_corpus("exhaustive-9")
        with pytest.raises(ValueError):
            builtin_corpus("nope")

    def test_family_corpus_ids_unique(self):
        fam = family_corpus()
        names = [name for name, _ in fam]
        assert len(names) == len(set(names))
        kinds = {name.split(":")[0] for name in names}
        assert kinds == {"multipartite", "knnplus", "hk", "sig", "non2ext", "random"}

    def test_family_corpus_orders_bounded(self):
        assert all(g.order <= 10 for _, g in family_corpus())


class TestBlocks:
    def test_check_graph_skips_without_pm(self):
        res = check_graph(cycle_graph(5), resolve_theorems("all"))
        assert not res["has_pm"]
        assert res["blocks"] == {}
        assert "g6" not in res

    def test_check_graph_c6(self):
        res = check_graph(cycle_graph(6), resolve_theorems("all"))
        assert res["has_pm"]
        assert "g6" not in res
        checked = {t: v[0] for t, v in res["blocks"].items()}
        ok = {t: v[1] for t, v in res["blocks"].items()}
        # C6 is bipartite with min forcing 1 < 2: the bipartite and
        # classification blocks apply and pass; top-forcing blocks skip
        assert checked["thm13"] == 1 and ok["thm13"]
        assert checked["thm33"] == 1 and ok["thm33"]
        assert checked["lemma23"] == 0
        assert checked["thm41"] == 0

    def test_failed_block_names_the_graph(self, monkeypatch):
        monkeypatch.setattr(harness, "vertex_connectivity", lambda g: 0)
        res = check_graph(_k33(), ("thm13", "lemma23"))
        assert res["blocks"]["lemma23"][:2] == (1, 0)
        assert res["g6"] == to_graph6(_k33())

    def test_crashed_block_names_the_graph(self, monkeypatch):
        real = harness._BLOCKS["thm13"]

        def crash(ctx):
            if ctx.g == _k33():
                raise RuntimeError("boom")
            return real(ctx)

        monkeypatch.setitem(harness._BLOCKS, "thm13", crash)
        res = check_graph(_k33(), ("thm13", "cor52"))
        assert res["blocks"]["thm13"][:2] == (1, 0)
        assert res["blocks"]["thm13"][3] == {"error": "RuntimeError: boom"}
        assert res["blocks"]["cor52"][:2] == (1, 1)
        assert res["g6"] == to_graph6(_k33())
        # a crash counts as one failed check per graph in the report too
        rep = verify_graphs("crashing", [_k33(), cycle_graph(6)], theorems=["thm13"])
        (block,) = rep.blocks
        assert (block.checked, block.passed) == (2, 1)
        assert block.counterexamples == (to_graph6(_k33()),)

    def test_order_above_graph6_limit_rejected_before_blocks(self, monkeypatch):
        calls = []

        def crash(ctx):
            calls.append(ctx)
            raise RuntimeError("boom")

        monkeypatch.setitem(harness._BLOCKS, "thm13", crash)
        g = Graph.from_edges(64, [(2 * i, 2 * i + 1) for i in range(32)])
        with pytest.raises(ValueError, match="graph6 output supports order <= 62"):
            verify_graphs("order-64", [g], theorems=["thm13"])
        assert calls == []

    def test_resolve_theorems(self):
        assert resolve_theorems("all") == THEOREM_IDS
        assert resolve_theorems(["thm33"]) == ("thm33",)
        with pytest.raises(ValueError):
            resolve_theorems(["thm99"])


class TestRelabelling:
    @staticmethod
    def invariants(g: Graph):
        blocks = check_graph(g, THEOREM_IDS)["blocks"]
        extendable = None
        if g.order >= 6 and is_connected(g):
            extendable = is_l_extendable(g, 2)
        return (
            {t: v[:2] for t, v in blocks.items()},
            forcing_profile(g).spectrum,
            classify_min_forcing(g).tag,
            vertex_connectivity(g),
            extendable,
        )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(planted_matching_strategy(), st.data())
    def test_verdicts_do_not_depend_on_labels(self, g, data):
        # every block's (checked, ok), the spectrum, the class tag, the
        # connectivity and 2-extendability under a random vertex renaming
        perm = data.draw(st.permutations(range(g.order)))
        renamed = Graph.from_edges(
            g.order, [(perm[u], perm[v]) for u, v in g.edges()]
        )
        assert self.invariants(renamed) == self.invariants(g)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(top_forcing_strategy(), st.data())
    def test_top_forcing_verdicts_do_not_depend_on_labels(self, g, data):
        # the same with F = n - 1, so the top-gated blocks check the graph
        # (thm13 only bipartite graphs, thm41 only those without one side)
        perm = data.draw(st.permutations(range(g.order)))
        renamed = Graph.from_edges(
            g.order, [(perm[u], perm[v]) for u, v in g.edges()]
        )
        verdicts = self.invariants(g)
        checked = {t for t, v in verdicts[0].items() if v[0]}
        assert checked >= set(THEOREM_IDS) - {"thm13", "thm41"}
        assert self.invariants(renamed) == verdicts


class TestVerify:
    def test_exhaustive_4_all_pass(self):
        rep = verify_graphs("exhaustive-4", builtin_corpus("exhaustive-4"))
        assert rep.graphs_total == 64
        assert rep.graphs_with_pm == 37
        assert rep.all_passed
        for block in rep.blocks:
            assert block.counterexamples == ()
            assert block.passed == block.checked

    def test_worker_counts_agree(self):
        corpus = list(builtin_corpus("exhaustive-4"))
        corpus += [gen_random(6, "1/2", seed) for seed in range(30)]
        rep1 = verify_graphs("mix", corpus, workers=1)
        rep4 = verify_graphs("mix", corpus, workers=4)
        payload1 = dumps(make_record("verification", verification_payload(rep1)))
        payload4 = dumps(make_record("verification", verification_payload(rep4)))
        assert payload1 == payload4

    def test_selection_respected(self):
        rep = verify_graphs(
            "exhaustive-3", builtin_corpus("exhaustive-3"), theorems=["lemma22"]
        )
        assert [b.theorem for b in rep.blocks] == ["lemma22"]

    def test_order_zero_is_not_checked(self):
        # n - 1 = -1 is no forcing number: the blocks that read it, like
        # the top-gated ones, check no graph on 0 vertices
        rep = verify_graphs("empty-graph", [Graph(0, ())])
        assert (rep.graphs_total, rep.graphs_with_pm) == (1, 1)
        assert rep.all_passed
        assert [b.theorem for b in rep.blocks if b.checked] == ["lemma56"]

    def test_counterexamples_stop_at_the_cap_in_corpus_order(self, monkeypatch):
        real = harness.build_switch_graph
        monkeypatch.setattr(
            harness,
            "build_switch_graph",
            lambda g, **kwargs: _with_facts(first_jump=(0, 0))(real(g, **kwargs)),
        )
        with_pm = (g for g in builtin_corpus("exhaustive-4") if has_perfect_matching(g))
        corpus = list(islice(with_pm, 33))
        assert len(corpus) == 33 == harness._MAX_COUNTEREXAMPLES + 1
        (result,) = verify_graphs("capped", corpus, theorems=["lemma56"]).blocks
        assert (result.checked, result.passed) == (33, 0)
        assert result.counterexamples == tuple(map(to_graph6, corpus[:32]))

    def test_counterexamples_capped_schema(self):
        rep = verify_graphs("tiny", [cycle_graph(6)])
        payload = verification_payload(rep, include_timings=True)
        text = dumps(make_record("verification", payload))
        parsed = json.loads(text)
        assert parsed["schema"] == "matchforce-report/v1"
        assert all("runtime_s" in b for b in parsed["blocks"])
        # timings stay out of the default payload for byte determinism
        bare = verification_payload(rep)
        assert all("runtime_s" not in b for b in bare["blocks"])


def _k33():
    return gen_complete_multipartite([3, 3])


def _non2ext():
    return gen_non_2_extendable("ii", 3).graph


def _profile_min_zero(profile):
    return SimpleNamespace(max_forcing=profile.max_forcing, min_forcing=0)


def _node_zero_forcing_zero(profile):
    """The profile with node 0's forcing number 0, which leaves a gap
    below a spectrum that starts at 2."""
    return replace(profile, forcing=(0, *profile.forcing[1:]))


def _with_facts(**changes):
    """A reading of the switch graph whose facts differ by ``changes``; the
    blocks read nothing else of it."""
    return lambda sg: SimpleNamespace(facts=replace(sg.facts, **changes))


def _one_pair_fewer(sg):
    """The switch graph with one switched pair fewer at node 0."""
    first, *rest = sg.facts.switched_pairs
    return _with_facts(switched_pairs=(first - 1, *rest))(sg)


def _node_zero_one_lower(switch_graph_or_profile):
    """The switch graph or the profile with node 0's forcing number one
    lower; the switch graph's facts are read anew from it."""
    first, *rest = switch_graph_or_profile.forcing
    return replace(switch_graph_or_profile, forcing=(first - 1, *rest))


# block, target graph, harness name the block reads, the reading that
# fails on the target (made from the real one), and a test of whether the
# first argument belongs to the target when it is not the graph itself
_FAILING_READINGS = [
    ("thm13", _k33, "is_complete_multipartite", lambda r: None, None),
    ("lemma22", _k33, "build_switch_graph", _one_pair_fewer, None),
    ("lemma23", _k33, "vertex_connectivity", lambda r: 0, None),
    ("lemma25", _non2ext, "is_brick", lambda r: False, None),
    (
        "thm33",
        _k33,
        "classify_min_forcing",
        lambda r: SimpleNamespace(predicted_min_forcing_is_max=False),
        None,
    ),
    ("thm41", _non2ext, "_case_labelling", lambda r: None, None),
    ("cor52", _k33, "forcing_profile", _profile_min_zero, None),
    ("lemma56", _k33, "build_switch_graph", _with_facts(first_jump=(0, 1)), None),
    # K3,3's spectrum {2} becomes {0, 2}, still with max forcing n - 1
    ("thm57", _k33, "forcing_profile", _node_zero_forcing_zero, None),
]

# readings one step past the boundary of a block's comparison, which a
# block that reads its theorem one step less strictly lets pass
_BOUNDARY_READINGS = [
    # connectivity n - 1 = 2 on K3,3
    ("lemma23", _k33, "vertex_connectivity", lambda r: r - 1, None),
    # independence number n = 3 on K2,2,2, a top brick that is not knn_plus
    (
        "lemma25",
        lambda: gen_complete_multipartite([2, 2, 2]),
        "max_independent_set_size",
        lambda r: 3,
        None,
    ),
    # min forcing n // 2 - 1 = 1 on K5,5: at n = 3 that is the min-0 row,
    # so this is the first n where a block reading F_min > 0 lets it pass
    (
        "cor52",
        lambda: gen_h_k(5, 0).graph,
        "forcing_profile",
        lambda r: SimpleNamespace(max_forcing=r.max_forcing, min_forcing=5 // 2 - 1),
        None,
    ),
    # on H(3,1) node 0 (f = 1) is a leaf of node 1 (f = 2): one adjacent
    # pair at |f - f'| = 2, which the kernel's fact pass must report
    (
        "lemma56",
        lambda: gen_h_k(3, 1).graph,
        "build_switch_graph",
        _node_zero_one_lower,
        None,
    ),
    # min forcing n - 2 with max forcing n - 1 on K3,3, which a block that
    # reads the max forcing number lets pass
    (
        "thm13",
        _k33,
        "forcing_profile",
        lambda r: SimpleNamespace(max_forcing=2, min_forcing=1),
        None,
    ),
    # a node with every pair switched and f = n - 2: "f = n - 1 => every
    # pair switches" alone lets it pass
    ("lemma22", _k33, "forcing_profile", _node_zero_one_lower, None),
    # a fixed double bond on a graph that passes every other clause
    ("lemma23", _k33, "build_switch_graph", _with_facts(fixed_bond=(0, 3)), None),
    # a top graph with no case i/ii labelling read as not 2-extendable:
    # reading every graph as 2-extendable lets it pass
    (
        "thm41",
        lambda: gen_complete_multipartite([2, 2, 2, 2]),
        "build_switch_graph",
        _with_facts(pair_cover=False),
        None,
    ),
    # predicted where f = 1 < n - 1: "f = n - 1 => predicted" alone lets
    # it pass
    (
        "thm33",
        lambda: cycle_graph(6),
        "classify_min_forcing",
        lambda r: SimpleNamespace(predicted_min_forcing_is_max=True),
        None,
    ),
    # min forcing n // 2 - 1 = 1 at even n = 4, where a block reading
    # (n - 1) // 2 lets it pass
    (
        "cor52",
        lambda: gen_h_k(4, 0).graph,
        "forcing_profile",
        lambda r: SimpleNamespace(max_forcing=r.max_forcing, min_forcing=4 // 2 - 1),
        None,
    ),
    # a continuous spectrum whose top is not reached from every matching
    ("thm57", _k33, "build_switch_graph", _with_facts(reaches_top=False), None),
]


def _reading_ids():
    """A failing row by its block, a boundary row as "<block>-boundary",
    and a block's second boundary row as "<block>-boundary2"."""
    ids = [row[0] for row in _FAILING_READINGS]
    seen = Counter()
    for block, *_ in _BOUNDARY_READINGS:
        seen[block] += 1
        ids.append(f"{block}-boundary" + (str(seen[block]) if seen[block] > 1 else ""))
    return ids


class TestBlocksCanFail:
    """Every block but the informational one has a reachable False that is
    a failed check, not a crash."""

    def test_covers_every_failing_block(self):
        blocks = {row[0] for row in _FAILING_READINGS}
        assert blocks == set(THEOREM_IDS) - {"lemma22min"}

    @pytest.mark.parametrize(
        "block, make_target, name, fail, of_target",
        _FAILING_READINGS + _BOUNDARY_READINGS,
        ids=_reading_ids(),
    )
    def test_failed_reading_is_a_counterexample(
        self, monkeypatch, block, make_target, name, fail, of_target
    ):
        target = make_target()
        of_target = of_target or (lambda first, g: first == g)
        real = getattr(harness, name)

        def patched(first, *args, **kwargs):
            result = real(first, *args, **kwargs)
            return fail(result) if of_target(first, target) else result

        monkeypatch.setattr(harness, name, patched)
        others = [
            _k33(),
            cycle_graph(6),
            complete_graph(4),
            gen_complete_multipartite([2, 2, 2]),
            gen_h_k(3, 1).graph,
            _non2ext(),
            gen_non_2_extendable("i", 4).graph,
        ]
        corpus = [target] + [g for g in others if g != target]
        (result,) = verify_graphs("patched", corpus, theorems=[block]).blocks
        assert to_graph6(target) in result.counterexamples
        assert result.passed == result.checked - 1
        assert "error" not in result.info

    def test_lemma23_minimal_graph_with_a_vertex_of_degree_n_plus_1(self, monkeypatch):
        # K3,3 plus one edge has F = n - 1 and a vertex of degree n + 1 = 4;
        # read as edge-minimal it must fail, while K3,3 itself passes
        target = gen_knn_plus(3, [(3, 4)])
        monkeypatch.setattr(harness._GraphContext, "minimal_max_forcing", True)
        corpus = [target, _k33()]
        (result,) = verify_graphs("patched", corpus, theorems=["lemma23"]).blocks
        assert result.checked == 2
        assert result.counterexamples == (to_graph6(target),)

    def test_thm41_disconnected_graph_is_an_error(self, monkeypatch):
        # no disconnected graph has F = n - 1, but read as one it lies
        # outside 2-extendability's definition: an error, not a verdict
        two_k4 = Graph.from_edges(8, [(u + s, v + s) for s in (0, 4)
                                      for u in range(4) for v in range(u + 1, 4)])
        monkeypatch.setattr(harness._GraphContext, "max_is_top", True)
        res = check_graph(two_k4, ("thm41",))
        assert res["blocks"]["thm41"][:2] == (1, 0)
        assert res["blocks"]["thm41"][3] == {
            "error": "PreconditionError: extendability is defined for connected graphs"
        }

    def test_lemma22min_never_fails(self, monkeypatch):
        real = harness.build_switch_graph
        monkeypatch.setattr(
            harness,
            "build_switch_graph",
            lambda g, **kwargs: _one_pair_fewer(real(g, **kwargs)),
        )
        corpus = [_k33(), gen_h_k(3, 1).graph]
        (result,) = verify_graphs("patched", corpus, theorems=["lemma22min"]).blocks
        assert result.checked == 2
        assert result.passed == result.checked
        assert result.counterexamples == ()
        assert result.info["readings_differ"] >= 1


def _counted(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that records the arguments of each
    call; the list of recorded calls is returned."""
    real = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestSharedMatchings:
    """Each checked graph enumerates its perfect matchings once, and the
    blocks read the top matchings from its forcing profile."""

    def test_one_enumeration_per_check(self, monkeypatch):
        # counted on both kernel classes: the native one overrides it
        calls = [
            _counted(monkeypatch, cls, "enumerate_pms")
            for cls in (pure.Kernel, _core.NativeKernel)
        ]
        res = check_graph(_non2ext(), THEOREM_IDS)
        assert all(ok for _, ok, _, _ in res["blocks"].values())
        # every block but thm13 (bipartite graphs only) checks this graph
        checked = {t for t, v in res["blocks"].items() if v[0]}
        assert checked == set(THEOREM_IDS) - {"thm13"}
        assert sum(map(len, calls)) == 1

    def test_objects_only_for_top_matchings(self, monkeypatch):
        # thm41 searches the top matchings as flat tuples read from the
        # profile, so even the top matchings get no PerfectMatching objects
        g = _non2ext()
        profile = forcing_profile(g)
        tops = [
            m for m, f in zip(profile.matchings, profile.forcing)
            if f == g.order // 2 - 1
        ]
        assert 0 < len(tops) < profile.matching_count
        made = _counted(monkeypatch, graph.PerfectMatching, "_unchecked")
        res = check_graph(g, THEOREM_IDS)
        assert all(ok for _, ok, _, _ in res["blocks"].values())
        assert res["blocks"]["thm41"][0]
        assert made == []

    def test_no_objects_for_a_2_extendable_top_graph(self, monkeypatch):
        # lemma22 and lemma22min read the switch graph's flat counts, and
        # thm41 reads the profile's flat top matchings
        g = gen_complete_multipartite([2, 2, 2, 2])
        ctx = harness._GraphContext(g)
        assert ctx.max_is_top and ctx.knn_plus is None
        assert is_l_extendable(g, 2)
        made = _counted(monkeypatch, graph.PerfectMatching, "_unchecked")
        res = check_graph(g, THEOREM_IDS)
        assert all(ok for _, ok, _, _ in res["blocks"].values())
        assert all(res["blocks"][t][0] for t in ("lemma22", "thm41", "lemma22min"))
        assert made == []

    def test_a_passing_verify_builds_no_matching_objects(self, monkeypatch):
        # every block reads the profile's and the switch graph's flat
        # matchings, thm41's labelling search included
        corpus = [
            *builtin_corpus("families-10"),
            *builtin_corpus("exhaustive-5"),
            # the non2ext constructions past families-10's order limit
            *(
                gen_non_2_extendable(case, n).graph
                for case, n in (("i", 5), ("i", 6), ("ii", 6))
            ),
        ]
        unchecked = _counted(monkeypatch, graph.PerfectMatching, "_unchecked")
        checked = _counted(monkeypatch, graph.PerfectMatching, "__post_init__")
        labellings = _counted(monkeypatch, harness, "_case_labelling")
        rep = verify_graphs("flat", corpus)
        assert rep.all_passed
        assert len(labellings) > 0
        assert unchecked == checked == []

    def test_profile_tops_give_the_structure(self):
        searched = 0
        for name, g in family_corpus():
            if g.order < 6 or not has_perfect_matching(g):
                continue
            ctx = harness._GraphContext(g)
            if not ctx.max_is_top or ctx.knn_plus is not None:
                continue
            if is_l_extendable(g, 2):
                continue
            searched += 1
            profile = ctx.profile
            profile_tops = [
                m for m, f in zip(profile.matchings, profile.forcing) if f == ctx.n - 1
            ]
            oracle_tops = [
                tuple(v for e in m.edges for v in e)
                for m in enumerate_perfect_matchings(g)
                if oracle_every_pair_spans(g, m)
            ]
            found = harness._case_labelling(g, profile_tops)
            assert found == harness._case_labelling(g, oracle_tops), name
        assert searched == 86


class TestStreaming:
    """verify_graphs reads any iterable of graphs once and counts it."""

    @staticmethod
    def _corpus():
        yield from builtin_corpus("exhaustive-4")
        yield from (gen_random(6, "1/2", seed) for seed in range(10))

    def test_generator_same_report_for_any_worker_count(self):
        serial = verify_graphs("gen", self._corpus(), workers=1)
        pooled = verify_graphs("gen", self._corpus(), workers=2)
        assert serial.graphs_total == pooled.graphs_total == 74
        assert verification_payload(serial) == verification_payload(pooled)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_corpus(self, workers):
        rep = verify_graphs("empty", iter(()), workers=workers)
        assert (rep.graphs_total, rep.graphs_with_pm) == (0, 0)
        assert all(b.checked == 0 for b in rep.blocks)
        assert rep.all_passed


class _FakePool:
    """In-process stand-in for multiprocessing.Pool that records its size."""

    sizes: list = []

    def __init__(self, processes):
        _FakePool.sizes.append(processes)

    def imap(self, fn, items, chunksize=1):
        return map(fn, items)

    def close(self):
        pass

    def join(self):
        pass


class TestWorkers:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        monkeypatch.setattr(_FakePool, "sizes", [])
        monkeypatch.setattr(
            harness, "multiprocessing", SimpleNamespace(Pool=_FakePool)
        )
        return _FakePool.sizes

    def test_pool_no_larger_than_corpus(self, pool_sizes):
        corpus = list(builtin_corpus("exhaustive-4"))
        serial = verify_graphs("c", corpus, workers=1)
        pooled = verify_graphs("c", corpus, workers=1000)
        assert pool_sizes == [len(corpus)]
        assert verification_payload(pooled) == verification_payload(serial)

    def test_single_graph_runs_serially(self, pool_sizes):
        verify_graphs("c", [cycle_graph(6)], workers=8)
        verify_graphs("c", [], workers=8)
        assert pool_sizes == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_below_one_rejected(self, pool_sizes, workers):
        with pytest.raises(ValueError, match="at least 1"):
            verify_graphs("c", builtin_corpus("exhaustive-3"), workers=workers)
        assert pool_sizes == []
