"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one `[acceptance] criterion NN ...: PASS/FAIL` line (run
pytest with -s to watch them).  The corpus-wide theorem sweeps are shared
session fixtures so the exhaustive corpus is only analyzed once.
"""

import hashlib
import json
import time
from itertools import combinations

import pytest

from matchforce import records
from matchforce.cli import main
from matchforce import (
    Graph,
    PerfectMatching,
    enumerate_perfect_matchings,
    forcing_number,
    forcing_profile,
    gen_complete_multipartite,
    gen_h_k,
    gen_minimal_from_signature,
    gen_non_2_extendable,
    gen_random,
    is_forcing_set,
    is_l_extendable,
    builtin_corpus,
    splitmix64,
    verify_graphs,
    to_graph6,
    AlternatingCycle,
)

from graphs import induced_subgraph
from oracles import oracle_alternating_cycles, oracle_forcing_number

RANDOM_WORKERS = 8


def report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {name}: {verdict} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def block(report_, theorem):
    return next(b for b in report_.blocks if b.theorem == theorem)


@pytest.fixture(scope="session")
def exhaustive6_report():
    corpus = builtin_corpus("exhaustive-6")
    return verify_graphs("exhaustive-6", corpus, theorems="all", workers=8)


@pytest.fixture(scope="session")
def families_report():
    corpus = builtin_corpus("families-10")
    return verify_graphs("families-10", corpus, theorems="all", workers=8)


def top_graphs_with_extra_edges(count=40, n=5, seed=14):
    """Seeded signature graphs on 2n vertices with 1 to 4 extra edges each.
    A pair of matching edges that spans an alternating 4-cycle keeps
    spanning when edges are added, so F stays n - 1 while |E| > n^2: top
    graphs that are not edge-minimal."""
    stream = splitmix64(seed)
    pairs = list(combinations(range(n), 2))
    graphs = []
    for _ in range(count):
        bits = next(stream)
        parallel = [p for k, p in enumerate(pairs) if (bits >> k) & 1]
        rows = list(gen_minimal_from_signature(n, parallel).graph.rows)
        for _ in range(1 + next(stream) % 4):
            free = [
                (u, v)
                for u, v in combinations(range(2 * n), 2)
                if not (rows[u] >> v) & 1
            ]
            u, v = free[next(stream) % len(free)]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        graphs.append(Graph(2 * n, tuple(rows)))
    return graphs


@pytest.fixture(scope="session")
def top_extra_report():
    graphs = top_graphs_with_extra_edges()
    return verify_graphs("top-extra-10", graphs, theorems="all", workers=1)


# sha256 of the default `verify` report bytes; a change to any block's
# verdicts, counts, counterexamples or info sums moves them.
REPORT_SHA256 = {
    "exhaustive6_report": "87839662a42eb13e2563477f02fd13a606e15af32016d33b95cb3ed95216a198",
    "families_report": "67aef10666a2122ad5a12b6795b73ef916382ca054be7580e5be011976532cde",
    "top_extra_report": "2090f8e34c4c38c666fcb09eea773e401664c5a362e44e6ae40f5ba20d5952f5",
}


@pytest.mark.parametrize("fixture", sorted(REPORT_SHA256))
def test_default_report_bytes_pinned(fixture, request):
    rep = request.getfixturevalue(fixture)
    text = records.dumps(
        records.make_record("verification", records.verification_payload(rep))
    )
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[fixture]


def _indented_sha256(out: str) -> str:
    """sha256 of the record re-written with sorted keys and indent 2: the
    bytes analyze reports had before they were written compact."""
    text = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of `matchforce analyze --format graph6` on H(6,2) (440 matchings):
# the profile, classification, extendability and switch sections.
H62_GRAPH6 = "K`?Dz~kvNw^_"
H62_ANALYZE_SHA256 = "07abbbc75e9367653dfab67dc05e456e0b3fe0e9ab5b810af12bda6fc81bce02"
H62_INDENTED_SHA256 = "b7ab171bbf00e7a10d9a233b8cb4613009c15fa00fe3b3ceccdb7dac867b3111"


def test_analyze_report_bytes_pinned(tmp_path, capsys):
    assert to_graph6(gen_h_k(6, 2).graph) == H62_GRAPH6
    path = tmp_path / "h62.g6"
    path.write_text(H62_GRAPH6 + "\n")
    assert main(["analyze", "--format", "graph6", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == H62_ANALYZE_SHA256
    assert _indented_sha256(out) == H62_INDENTED_SHA256


# sha256 of `matchforce analyze --format graph6 --profile --switch` on
# gen_random(12, "2/3", 1): 715 matchings and 3787 switch edges.
R12_GRAPH6 = "Kj~rbmveXtwp"
R12_SWITCH_SHA256 = "fd87231c12852e3192897b067834252efbf0ee2dbe52afa0aa5cc14b66233734"
R12_INDENTED_SHA256 = "49e399a067830c6e37b99726e0bd277c8f51a266eea1ff1d25ff7058b2502862"


def test_dense_switch_report_bytes_pinned(tmp_path, capsys):
    assert to_graph6(gen_random(12, "2/3", 1)) == R12_GRAPH6
    path = tmp_path / "r12.g6"
    path.write_text(R12_GRAPH6 + "\n")
    args = ["analyze", "--format", "graph6", "--profile", "--switch", str(path)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == R12_SWITCH_SHA256
    assert _indented_sha256(out) == R12_INDENTED_SHA256


def test_criterion_01_classification_exhaustive():
    corpus = builtin_corpus("exhaustive-6")
    start = time.perf_counter()
    rep = verify_graphs("exhaustive-6", corpus, theorems=["thm33"], workers=1)
    elapsed = time.perf_counter() - start
    b = block(rep, "thm33")
    ok = b.checked > 0 and b.ok and elapsed < 60
    report(
        1,
        "min-forcing classification over all 6-vertex graphs",
        ok,
        f"({b.passed}/{b.checked} graphs, {elapsed:.1f}s single-threaded)",
    )


def test_criterion_02_complete_bipartite_family():
    results = {}
    for n in range(2, 7):
        profile = forcing_profile(gen_complete_multipartite([n, n]))
        results[n] = (profile.min_forcing, profile.max_forcing)
    ok = all(results[n] == (n - 1, n - 1) for n in results)
    report(2, "balanced complete bipartite ladder", ok, f"{results}")


def test_criterion_03_parallel_pair_ladder():
    start = time.perf_counter()
    ok = True
    details = []
    for n in range(2, 8):
        mins = set()
        for k in range((n - 1) // 2 + 1):
            profile = forcing_profile(gen_h_k(n, k).graph)
            if profile.min_forcing != n - k - 1 or profile.max_forcing != n - 1:
                ok = False
                details.append(f"H({n},{k})={profile.spectrum}")
            mins.add(profile.min_forcing)
        if mins != set(range(n // 2, n)):
            ok = False
            details.append(f"n={n} min set {sorted(mins)}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300
    report(
        3,
        "ladder family exact minimum forcing numbers",
        ok,
        f"(n=2..7 all k, {elapsed:.1f}s)" + (f" {details}" if details else ""),
    )


def test_criterion_04_pairwise_condition_equivalence(
    exhaustive6_report, families_report
):
    b1 = block(exhaustive6_report, "lemma22")
    b2 = block(families_report, "lemma22")
    ok = b1.ok and b2.ok and b1.checked > 0 and b2.checked > 0
    report(
        4,
        "pairwise alternating condition = maximal forcing",
        ok,
        f"({b1.passed}/{b1.checked} exhaustive, {b2.passed}/{b2.checked} families)",
    )


def test_criterion_05_connectivity_and_double_bonds(
    exhaustive6_report, families_report
):
    b1 = block(exhaustive6_report, "lemma23")
    b2 = block(families_report, "lemma23")
    ok = b1.ok and b2.ok and b1.checked > 0 and b2.checked > 0
    report(
        5,
        "top-forcing graphs: connectivity, free bonds, regularity",
        ok,
        f"({b1.passed}/{b1.checked} exhaustive, {b2.passed}/{b2.checked} families)",
    )


def test_criterion_06_independent_side_or_brick(
    exhaustive6_report, families_report
):
    b1 = block(exhaustive6_report, "lemma25")
    b2 = block(families_report, "lemma25")
    ok = b1.ok and b2.ok and b1.checked > 0 and b2.checked > 0
    report(
        6,
        "independent-side dichotomy / brick",
        ok,
        f"({b1.passed}/{b1.checked} exhaustive, {b2.passed}/{b2.checked} families)",
    )


def test_criterion_07_non_2_extendable(exhaustive6_report, families_report):
    generated_ok = True
    cases = [("i", 4), ("ii", 3), ("ii", 4), ("ii", 5)]
    for case, n in cases:
        g = gen_non_2_extendable(case, n).graph
        if not is_l_extendable(g, 1) or is_l_extendable(g, 2):
            generated_ok = False
    b1 = block(exhaustive6_report, "thm41")
    b2 = block(families_report, "thm41")
    ok = generated_ok and b1.ok and b2.ok and b1.checked > 0 and b2.checked > 0
    report(
        7,
        "non-2-extendable structure equivalence",
        ok,
        f"(generators x{len(cases)}, {b1.passed}/{b1.checked} exhaustive,"
        f" {b2.passed}/{b2.checked} families)",
    )


def test_criterion_08_switch_bound_and_continuity(
    exhaustive6_report, families_report
):
    b56a = block(exhaustive6_report, "lemma56")
    b57a = block(exhaustive6_report, "thm57")
    b56b = block(families_report, "lemma56")
    b57b = block(families_report, "thm57")
    start = time.perf_counter()
    corpus = (gen_random(8, "1/2", seed) for seed in range(10_000))
    rep = verify_graphs(
        "random-8-10k",
        corpus,
        theorems=["lemma56", "thm57"],
        workers=RANDOM_WORKERS,
    )
    elapsed = time.perf_counter() - start
    b56r = block(rep, "lemma56")
    b57r = block(rep, "thm57")
    ok = (
        all(b.ok for b in (b56a, b57a, b56b, b57b, b56r, b57r))
        and b56r.checked > 0
        and elapsed < 600
    )
    report(
        8,
        "switch bound and spectrum continuity",
        ok,
        f"(exhaustive {b56a.checked}, families {b56b.checked},"
        f" random {b56r.checked} graphs in {elapsed:.0f}s/{RANDOM_WORKERS}w,"
        f" continuity {b57a.checked}+{b57b.checked}+{b57r.checked})",
    )


def test_criterion_09_half_n_lower_bound(exhaustive6_report, families_report):
    b1 = block(exhaustive6_report, "cor52")
    b2 = block(families_report, "cor52")
    ok = b1.ok and b2.ok and b1.checked > 0 and b2.checked > 0
    report(
        9,
        "minimum forcing at least half the matching size",
        ok,
        f"({b1.passed}/{b1.checked} exhaustive, {b2.passed}/{b2.checked} families)",
    )


def test_criterion_10_monotonicity_and_additivity():
    stream = splitmix64(2024)
    mono = addi = 0
    violations = []
    while mono < 1000 or addi < 1000:
        order = (4, 6, 8, 10)[next(stream) % 4]
        g = gen_random(order, "1/2", next(stream) % 2**32)
        pms = enumerate_perfect_matchings(g)
        if not pms:
            continue
        m = pms[next(stream) % len(pms)]
        whole = forcing_number(g, m).optimum
        if mono < 1000:
            keep = [e for e in g.edges() if e not in set(m.edges) and next(stream) & 1]
            sub = Graph.from_edges(g.order, [tuple(e) for e in keep] + list(m.edges))
            if forcing_number(sub, m).optimum > whole:
                violations.append(("mono", to_graph6(g)))
            mono += 1
        if addi < 1000 and len(m) >= 2:
            bits = next(stream)
            split = [(bits >> i) & 1 for i in range(len(m))]
            if all(split):
                split[0] = 0
            if not any(split):
                split[0] = 1
            total = 0
            for side in (0, 1):
                part = [e for e, s in zip(m.edges, split) if s == side]
                verts = sorted(v for e in part for v in e)
                remap = {v: i for i, v in enumerate(verts)}
                sub = induced_subgraph(g, verts)
                sub_m = PerfectMatching.from_pairs(
                    (remap[e.u], remap[e.v]) for e in part
                )
                total += forcing_number(sub, sub_m).optimum
            if whole < total:
                violations.append(("add", to_graph6(g)))
            addi += 1
    ok = not violations
    report(
        10,
        "subgraph monotonicity and partition additivity",
        ok,
        f"({mono}+{addi} seeded instances)"
        + (f" violations={violations[:3]}" if violations else ""),
    )


def test_criterion_11_oracle_cross_checks():
    found = 0
    seed = 0
    mismatch = []
    while found < 200:
        order = (4, 6, 8)[seed % 3]
        g = gen_random(order, "1/2", seed)
        seed += 1
        pms = enumerate_perfect_matchings(g)
        if not pms:
            continue
        m = pms[seed % len(pms)]
        if forcing_number(g, m).optimum != oracle_forcing_number(g, m):
            mismatch.append(("forcing", to_graph6(g)))
        found += 1

    found = 0
    seed = 10_000
    while found < 200:
        order = (4, 6, 8)[seed % 3]
        g = gen_random(order, "1/2", seed)
        seed += 1
        pms = enumerate_perfect_matchings(g)
        if not pms:
            continue
        m = pms[seed % len(pms)]
        mine = is_forcing_set(g, m, ())[1]
        brute = oracle_alternating_cycles(g, m)
        if (mine is not None) != bool(brute):
            mismatch.append(("cycle", to_graph6(g)))
        elif mine is not None:
            canon = {AlternatingCycle.canonical(c).vertices for c in brute}
            if mine.vertices not in canon:
                mismatch.append(("cycle-witness", to_graph6(g)))
        found += 1
    ok = not mismatch
    report(
        11,
        "solver versus naive oracles",
        ok,
        "(200 forcing + 200 cycle instances)"
        + (f" mismatches={mismatch[:3]}" if mismatch else ""),
    )
