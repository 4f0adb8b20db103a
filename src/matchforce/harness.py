"""Corpus verification harness.

Runs a selection of theorem blocks over every corpus graph that has a
perfect matching and reports per-block pass counts with graph6
counterexamples.  Graphs are independent work items, so the corpus can be
fanned out over a process pool; results are merged back in corpus order,
which keeps the report identical for any worker count.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .extend import _case_labelling, is_brick, is_l_extendable
from .forcing import forcing_profile
from .generate import (
    enumerate_labeled_graphs,
    gen_complete_multipartite,
    gen_h_k,
    gen_knn_plus,
    gen_minimal_from_signature,
    gen_non_2_extendable,
    gen_random,
    splitmix64,
    PairSignature,
)
from .graph import Graph, has_perfect_matching, is_bipartite, vertex_connectivity
from .graphio import parse_graph6, to_graph6
from .structure import (
    classify_min_forcing,
    has_fixed_double_bond,
    is_complete_multipartite,
    is_knn_plus,
    matching_pairs_exact_four_cycles,
    max_independent_set_size,
    pairwise_alternating_condition,
)
from .switch import build_switch_graph, verify_spectrum_continuity, verify_switch_bound

THEOREM_IDS = (
    "thm13",
    "lemma22",
    "lemma23",
    "lemma25",
    "thm33",
    "thm41",
    "cor52",
    "lemma56",
    "thm57",
    "lemma22min",
)

_MAX_COUNTEREXAMPLES = 32


@dataclass(frozen=True, slots=True)
class BlockResult:
    theorem: str
    checked: int
    passed: int
    counterexamples: tuple[str, ...]
    runtime_s: float
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.passed == self.checked


@dataclass(frozen=True, slots=True)
class VerificationReport:
    corpus_id: str
    graphs_total: int
    graphs_with_pm: int
    blocks: tuple[BlockResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(b.ok for b in self.blocks)


class _GraphContext:
    """Lazily shared sub-results for one corpus graph."""

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.order // 2

    @cached_property
    def profile(self):
        return forcing_profile(self.g)

    @cached_property
    def max_is_top(self) -> bool:
        return self.n >= 1 and self.profile.max_forcing == self.n - 1

    @cached_property
    def top_matchings(self) -> list:
        """The profile's matchings of forcing number n - 1, canonical order."""
        return [m for m, f in self.profile.per_matching.items() if f == self.n - 1]

    @cached_property
    def knn_plus(self):
        return is_knn_plus(self.g) if self.g.order % 2 == 0 else None

    @cached_property
    def minimal_max_forcing(self) -> bool:
        return self.max_is_top and self.g.edge_count() == self.n * self.n

    @cached_property
    def switch_graph(self):
        return build_switch_graph(self.g, profile=self.profile)


def _block_thm13(ctx: _GraphContext):
    if is_bipartite(ctx.g) is None:
        return 0, True
    parts = is_complete_multipartite(ctx.g)
    balanced = parts is not None and sorted(len(p) for p in parts) == [ctx.n, ctx.n]
    return 1, (ctx.profile.min_forcing == ctx.n - 1) == balanced


def _block_lemma22(ctx: _GraphContext):
    for m, f in ctx.profile.per_matching.items():
        ok, _ = pairwise_alternating_condition(ctx.g, m)
        if ok != (f == ctx.n - 1):
            return 1, False
    return 1, True


def _block_lemma23(ctx: _GraphContext):
    if not ctx.max_is_top or ctx.n < 2:
        return 0, True
    if has_fixed_double_bond(ctx.g) is not None:
        return 1, False
    if vertex_connectivity(ctx.g) < ctx.n:
        return 1, False
    if ctx.minimal_max_forcing:
        if any(ctx.g.degree(v) != ctx.n for v in range(ctx.g.order)):
            return 1, False
    return 1, True


def _block_lemma25(ctx: _GraphContext):
    if not ctx.max_is_top:
        return 0, True
    has_side = ctx.knn_plus is not None
    if has_side != (max_independent_set_size(ctx.g) >= ctx.n):
        return 1, False
    if not has_side and not is_brick(ctx.g):
        return 1, False
    return 1, True


def _block_thm33(ctx: _GraphContext):
    result = classify_min_forcing(ctx.g)
    return 1, result.predicted_min_forcing_is_max == (
        ctx.profile.min_forcing == ctx.n - 1
    )


def _block_thm41(ctx: _GraphContext):
    """One direction of Theorem 4.1: a graph that is not 2-extendable has a
    case i or case ii labelling of a top matching."""
    if not ctx.max_is_top or ctx.n < 3 or ctx.knn_plus is not None:
        return 0, True
    g = ctx.g
    return 1, is_l_extendable(g, 2) or _case_labelling(g, ctx.top_matchings) is not None


def _block_cor52(ctx: _GraphContext):
    if not ctx.max_is_top:
        return 0, True
    return 1, ctx.profile.min_forcing >= ctx.n // 2


def _block_lemma56(ctx: _GraphContext):
    ok, _ = verify_switch_bound(ctx.switch_graph)
    return 1, ok


def _block_thm57(ctx: _GraphContext):
    if not ctx.max_is_top:
        return 0, True
    cont = verify_spectrum_continuity(
        ctx.g, profile=ctx.profile, sg=ctx.switch_graph
    )
    return 1, cont.spectrum_continuous and cont.reach_max


def _block_lemma22min(ctx: _GraphContext):
    """Informational: does edge-minimality by count (|E| = n^2) differ from
    every top matching inducing exactly a 4-cycle on each pair?  Never
    fails; differing graphs are counted."""
    if not ctx.max_is_top:
        return 0, True
    every = all(
        matching_pairs_exact_four_cycles(ctx.g, m) for m in ctx.top_matchings
    )
    return 1, True, {"readings_differ": int(ctx.minimal_max_forcing != every)}


_BLOCKS = {
    "thm13": _block_thm13,
    "lemma22": _block_lemma22,
    "lemma23": _block_lemma23,
    "lemma25": _block_lemma25,
    "thm33": _block_thm33,
    "thm41": _block_thm41,
    "cor52": _block_cor52,
    "lemma56": _block_lemma56,
    "thm57": _block_thm57,
    "lemma22min": _block_lemma22min,
}


def resolve_theorems(selection) -> tuple[str, ...]:
    """Normalize a theorem selection ('all', one id, or a list of ids).

    Ids are stripped of surrounding whitespace; an unknown or repeated id
    raises ValueError."""
    if selection in (None, "all", ("all",), ["all"]):
        return THEOREM_IDS
    if isinstance(selection, str):
        selection = [selection]
    out = []
    for t in selection:
        t = t.strip()
        if t not in _BLOCKS:
            raise ValueError(f"unknown theorem block {t!r}; known: {THEOREM_IDS}")
        if t in out:
            raise ValueError(f"theorem block {t!r} selected twice")
        out.append(t)
    return tuple(out)


def check_graph(g6: str, theorems: Sequence[str]) -> dict:
    """Run the selected blocks on one graph6 string (worker function)."""
    g = parse_graph6(g6)
    result: dict = {"g6": g6, "has_pm": False, "blocks": {}}
    if not has_perfect_matching(g):
        return result
    result["has_pm"] = True
    ctx = _GraphContext(g)
    for t in theorems:
        start = time.perf_counter()
        try:
            outcome = _BLOCKS[t](ctx)
        except Exception as exc:  # a crash is a failed check, not an abort
            outcome = (1, False, {"error": f"{type(exc).__name__}: {exc}"[:200]})
        elapsed = time.perf_counter() - start
        checked, ok = outcome[0], outcome[1]
        info = outcome[2] if len(outcome) > 2 else {}
        result["blocks"][t] = (checked, int(ok), elapsed, info)
    return result


def _worker(args):
    return check_graph(*args)


def verify_graphs(
    corpus_id: str,
    graphs: Iterable[str],
    theorems="all",
    workers: int = 1,
) -> VerificationReport:
    """Run theorem blocks over a corpus of graph6 strings.

    Graphs without a perfect matching are counted and skipped.  The report
    is deterministic for any worker count: results merge in corpus order.
    No more worker processes are started than there are graphs.
    """
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    theorems = resolve_theorems(theorems)
    g6_list = list(graphs)
    workers = min(workers, len(g6_list))
    checked = {t: 0 for t in theorems}
    passed = {t: 0 for t in theorems}
    runtime = {t: 0.0 for t in theorems}
    cex: dict[str, list[str]] = {t: [] for t in theorems}
    info_sums: dict[str, dict] = {t: {} for t in theorems}
    with_pm = 0

    if workers > 1:
        pool = multiprocessing.Pool(processes=workers)
        chunk = max(1, len(g6_list) // (workers * 8))
        results = pool.imap(
            _worker, ((g6, theorems) for g6 in g6_list), chunksize=chunk
        )
    else:
        pool = None
        results = (check_graph(g6, theorems) for g6 in g6_list)

    try:
        for res in results:
            if res["has_pm"]:
                with_pm += 1
            for t, (chk, ok, elapsed, info) in res["blocks"].items():
                checked[t] += chk
                passed[t] += chk and ok
                runtime[t] += elapsed
                if chk and not ok and len(cex[t]) < _MAX_COUNTEREXAMPLES:
                    cex[t].append(res["g6"])
                for key, val in info.items():
                    if isinstance(val, int):
                        info_sums[t][key] = info_sums[t].get(key, 0) + val
                    elif key not in info_sums[t]:
                        info_sums[t][key] = val
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    blocks = tuple(
        BlockResult(
            t, checked[t], passed[t], tuple(cex[t]), runtime[t], info_sums[t]
        )
        for t in theorems
    )
    return VerificationReport(corpus_id, len(g6_list), with_pm, blocks)


# ---------------------------------------------------------------------------
# corpora


def _partitions(total: int, max_part: int):
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def family_corpus(max_order: int = 10) -> list[tuple[str, Graph]]:
    """Deterministic catalogue of generator-family graphs up to max_order.

    Covers every complete multipartite graph with a perfect matching, a
    spread of one-sided-extras graphs, the full ladder family, all pair
    signatures through n=4 (seeded samples at n=5), the non-2-extendable
    constructions, and seeded random graphs.
    """
    out: list[tuple[str, Graph]] = []
    for total in range(2, max_order + 1, 2):
        for sizes in _partitions(total, total // 2):
            name = ",".join(map(str, sizes))
            out.append((f"multipartite:{name}", gen_complete_multipartite(sizes)))
    for n in range(1, max_order // 2 + 1):
        out.append((f"knnplus:{n}:", gen_knn_plus(n)))
        b_pairs = [
            (n + i, n + j) for i in range(n) for j in range(i + 1, n)
        ]
        for bi, bj in b_pairs:
            out.append((f"knnplus:{n}:{bi}-{bj}", gen_knn_plus(n, [(bi, bj)])))
        if len(b_pairs) > 1:
            out.append((f"knnplus:{n}:full", gen_knn_plus(n, b_pairs)))
    for n in range(1, max_order // 2 + 1):
        for k in range((n - 1) // 2 + 1):
            out.append((f"hk:{n},{k}", gen_h_k(n, k).graph))
    for n in range(2, min(4, max_order // 2) + 1):
        pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pair_list)):
            sig = PairSignature.from_parallel_pairs(
                n, [p for b, p in enumerate(pair_list) if mask >> b & 1]
            )
            out.append((f"sig:{n}:{mask}", gen_minimal_from_signature(sig).graph))
    if max_order >= 10:
        stream = splitmix64(5)
        pair_list = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        seen = set()
        while len(seen) < 16:
            mask = next(stream) % (1 << len(pair_list))
            if mask in seen:
                continue
            seen.add(mask)
            sig = PairSignature.from_parallel_pairs(
                5, [p for b, p in enumerate(pair_list) if mask >> b & 1]
            )
            out.append((f"sig:5:{mask}", gen_minimal_from_signature(sig).graph))
    if max_order >= 8:
        out.append(("non2ext:i:4", gen_non_2_extendable("i", 4).graph))
        out.append(
            (
                "non2ext:i:4:chain",
                gen_non_2_extendable(
                    "i", 4, u_edges=((0, 1), (1, 2), (2, 3))
                ).graph,
            )
        )
    for n in range(3, max_order // 2 + 1):
        out.append((f"non2ext:ii:{n}", gen_non_2_extendable("ii", n).graph))
    if max_order >= 6:
        out.append(
            (
                "non2ext:ii:3:triangle",
                gen_non_2_extendable(
                    "ii",
                    3,
                    parallel_index=None,
                    extra_v_edges=((0, 2),),
                    u_edges=((0, 1),),
                ).graph,
            )
        )
    random_batches = [(6, 10), (8, 20), (10, 10)]
    for order, count in random_batches:
        if order > max_order:
            continue
        for seed in range(1, count + 1):
            out.append((f"random:{order}:{seed}", gen_random(order, 0.5, seed)))
    return out


def random_graph6(count: int, order: int, p, seed0: int = 0) -> list[str]:
    """Seeded random corpus as graph6 strings (seeds seed0..seed0+count-1)."""
    return [to_graph6(gen_random(order, p, seed)) for seed in range(seed0, seed0 + count)]


def builtin_corpus(name: str) -> list[str]:
    """Built-in corpora: 'exhaustive-N' (N <= 6) and 'families-10'."""
    if name.startswith("exhaustive-"):
        try:
            order = int(name.split("-", 1)[1])
        except ValueError:
            raise ValueError(f"bad builtin corpus name {name!r}") from None
        if not 1 <= order <= 6:
            raise ValueError("exhaustive corpora exist for orders 1..6")
        return [to_graph6(g) for g in enumerate_labeled_graphs(order)]
    if name == "families-10":
        return [to_graph6(g) for _name, g in family_corpus(10)]
    raise ValueError(f"unknown builtin corpus {name!r}")
