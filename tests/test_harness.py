import json
import sys
from types import SimpleNamespace

import pytest

from matchforce import (
    THEOREM_IDS,
    builtin_corpus,
    enumerate_perfect_matchings,
    family_corpus,
    gen_complete_multipartite,
    gen_h_k,
    gen_non_2_extendable,
    has_perfect_matching,
    is_l_extendable,
    non_2_extendable_structure,
    random_graph6,
    to_graph6,
    verify_graphs,
)
from matchforce import graph, harness
from matchforce.harness import check_graph, resolve_theorems
from matchforce.records import dumps, make_record, verification_payload

from graphs import complete_graph, cycle_graph


class TestCorpora:
    def test_exhaustive_counts(self):
        assert len(builtin_corpus("exhaustive-3")) == 8
        assert len(builtin_corpus("exhaustive-4")) == 64

    def test_exhaustive_6_size(self):
        assert len(builtin_corpus("exhaustive-6")) == 32768

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_corpus("exhaustive-9")
        with pytest.raises(ValueError):
            builtin_corpus("nope")

    def test_family_corpus_ids_unique(self):
        fam = family_corpus(10)
        names = [name for name, _ in fam]
        assert len(names) == len(set(names))
        kinds = {name.split(":")[0] for name in names}
        assert kinds == {"multipartite", "knnplus", "hk", "sig", "non2ext", "random"}

    def test_family_corpus_orders_bounded(self):
        assert all(g.order <= 10 for _, g in family_corpus(10))
        assert all(g.order <= 6 for _, g in family_corpus(6))

    def test_random_corpus_deterministic(self):
        assert random_graph6(5, 8, "1/2") == random_graph6(5, 8, "1/2")


class TestBlocks:
    def test_check_graph_skips_without_pm(self):
        res = check_graph(to_graph6(cycle_graph(5)), resolve_theorems("all"))
        assert not res["has_pm"]
        assert res["blocks"] == {}

    def test_check_graph_c6(self):
        res = check_graph(to_graph6(cycle_graph(6)), resolve_theorems("all"))
        assert res["has_pm"]
        checked = {t: v[0] for t, v in res["blocks"].items()}
        ok = {t: v[1] for t, v in res["blocks"].items()}
        # C6 is bipartite with min forcing 1 < 2: the bipartite and
        # classification blocks apply and pass; top-forcing blocks skip
        assert checked["thm13"] == 1 and ok["thm13"]
        assert checked["thm33"] == 1 and ok["thm33"]
        assert checked["lemma23"] == 0
        assert checked["thm41"] == 0

    def test_resolve_theorems(self):
        assert resolve_theorems("all") == THEOREM_IDS
        assert resolve_theorems(["thm33"]) == ("thm33",)
        with pytest.raises(ValueError):
            resolve_theorems(["thm99"])


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
        corpus = builtin_corpus("exhaustive-4") + random_graph6(30, 6, "1/2")
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

    def test_counterexamples_capped_schema(self):
        rep = verify_graphs("tiny", [to_graph6(cycle_graph(6))])
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


def _same_matchings(sg, g):
    return frozenset(sg.nodes) == frozenset(enumerate_perfect_matchings(g))


# block, target graph, harness name the block reads, the reading that
# fails on the target (made from the real one), and a test of whether the
# first argument belongs to the target when it is not the graph itself
_FAILING_READINGS = [
    ("thm13", _k33, "is_complete_multipartite", lambda r: None, None),
    ("lemma22", _k33, "pairwise_alternating_condition", lambda r: (False, None), None),
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
    ("lemma56", _k33, "verify_switch_bound", lambda r: (False, None), _same_matchings),
    (
        "thm57",
        _k33,
        "verify_spectrum_continuity",
        lambda r: SimpleNamespace(spectrum_continuous=False, reach_max=True),
        None,
    ),
]


class TestBlocksCanFail:
    """Every block but the informational one has a reachable False that is
    a failed check, not a crash."""

    def test_covers_every_failing_block(self):
        blocks = {row[0] for row in _FAILING_READINGS}
        assert blocks == set(THEOREM_IDS) - {"lemma22min"}

    @pytest.mark.parametrize(
        "block, make_target, name, fail, of_target",
        _FAILING_READINGS,
        ids=[row[0] for row in _FAILING_READINGS],
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
        target_g6 = to_graph6(target)
        corpus = [target_g6] + [
            g6 for g6 in map(to_graph6, others) if g6 != target_g6
        ]
        (result,) = verify_graphs("patched", corpus, theorems=[block]).blocks
        assert target_g6 in result.counterexamples
        assert result.passed == result.checked - 1
        assert "error" not in result.info

    def test_lemma22min_never_fails(self, monkeypatch):
        monkeypatch.setattr(
            harness, "matching_pairs_exact_four_cycles", lambda g, m: False
        )
        corpus = [to_graph6(_k33()), to_graph6(gen_h_k(3, 1).graph)]
        (result,) = verify_graphs("patched", corpus, theorems=["lemma22min"]).blocks
        assert result.checked == 2
        assert result.passed == result.checked
        assert result.counterexamples == ()
        assert result.info["readings_differ"] >= 1


class TestSharedMatchings:
    """Each checked graph enumerates its perfect matchings once, and the
    blocks read the top matchings from its forcing profile."""

    def test_one_enumeration_per_check(self, monkeypatch):
        real = graph.enumerate_perfect_matchings
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "matchforce":
                continue
            if vars(mod).get("enumerate_perfect_matchings") is real:
                monkeypatch.setattr(mod, "enumerate_perfect_matchings", counted)
        res = check_graph(to_graph6(_non2ext()), THEOREM_IDS)
        assert all(ok for _, ok, _, _ in res["blocks"].values())
        # every block but thm13 (bipartite graphs only) checks this graph
        checked = {t for t, v in res["blocks"].items() if v[0]}
        assert checked == set(THEOREM_IDS) - {"thm13"}
        assert len(calls) == 1

    def test_profile_tops_give_the_structure(self):
        searched = 0
        for name, g in family_corpus(10):
            if g.order < 6 or not has_perfect_matching(g):
                continue
            ctx = harness._GraphContext(g)
            if not ctx.max_is_top or ctx.knn_plus is not None:
                continue
            if is_l_extendable(g, 2):
                continue
            searched += 1
            found = harness._case_labelling(g, ctx.top_matchings)
            assert found == non_2_extendable_structure(g), name
        assert searched == 86


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
        corpus = builtin_corpus("exhaustive-4")
        serial = verify_graphs("c", corpus, workers=1)
        pooled = verify_graphs("c", corpus, workers=1000)
        assert pool_sizes == [len(corpus)]
        assert verification_payload(pooled) == verification_payload(serial)

    def test_single_graph_runs_serially(self, pool_sizes):
        verify_graphs("c", [to_graph6(cycle_graph(6))], workers=8)
        verify_graphs("c", [], workers=8)
        assert pool_sizes == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_below_one_rejected(self, pool_sizes, workers):
        with pytest.raises(ValueError, match="at least 1"):
            verify_graphs("c", builtin_corpus("exhaustive-3"), workers=workers)
        assert pool_sizes == []
