"""Command-line surface.

Three subcommands: ``analyze`` (forcing profile, classification,
extendability and switch summary for one graph), ``generate`` (the graph
families, as graph6 or edge-list text) and ``verify`` (theorem blocks over
a corpus).  Every run emits one versioned JSON record on stdout unless
``--csv`` asks for the spectra table: ``analyze`` on one compact line,
``verify`` indented (see `records.dumps`).

Exit codes: 0 success (for verify: all blocks passed), 1 parse/usage/domain
error or, for verify, a refuted block, 2 no perfect matching, 3 matching
cap exceeded.  ``analyze`` reads MATCHFORCE_MATCHING_CAP to override the
default matching cap; the other subcommands do not read it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Iterable

from . import records
from .errors import (
    MatchingOverflowError,
    NoPerfectMatchingError,
    ParseError,
    PreconditionError,
)
from .extend import deficiency_witness, is_bicritical, is_brick, is_l_extendable
from .forcing import forcing_profile
from .graph import Graph, has_perfect_matching, vertex_connectivity
from .graphio import (
    FORMATS,
    load_graph,
    read_graph6_collection,
    serialize_graph,
    to_graph6,
)
from .generate import (
    LabeledGraph,
    gen_complete_multipartite,
    gen_h_k,
    gen_knn_plus,
    gen_minimal_from_signature,
    gen_non_2_extendable,
    gen_random,
)
from .harness import THEOREM_IDS, builtin_corpus, verify_graphs
from .structure import classify_min_forcing
from .switch import build_switch_graph, reaches_top


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _env_cap(name: str):
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise _UsageError(f"{name} must be a positive integer, got {raw!r}")


def _read_input(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read input {path!r}: {exc}", 0) from None


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        a, sep, b = chunk.partition("-")
        if not sep:
            raise _UsageError(f"expected 'u-v' pair, got {chunk!r}")
        pairs.append((int(a), int(b)))
    return pairs


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


# ---------------------------------------------------------------------------
# analyze


def _extendability_section(g: Graph) -> dict:
    section: dict = {
        "vertex_connectivity": vertex_connectivity(g),
        "bicritical": is_bicritical(g),
        "brick": is_brick(g),
    }
    levels = {}
    for level in (1, 2):
        try:
            levels[str(level)] = is_l_extendable(g, level)
        except PreconditionError:
            levels[str(level)] = None
    section["extendable"] = levels
    witness = None
    if levels["1"] is True and levels["2"] is False:
        witness = deficiency_witness(g, 2)
    elif levels["1"] is False and has_perfect_matching(g):
        witness = deficiency_witness(g, 1)
    section["deficiency"] = (
        None if witness is None else records.deficiency_payload(witness)
    )
    return section


def _cmd_analyze(args) -> int:
    g = load_graph(_read_input(args.input), args.format)
    wanted = [
        name
        for name, flag in (
            ("profile", args.profile),
            ("classification", args.classify),
            ("extendability", args.extend),
            ("switch", args.switch),
        )
        if flag
    ]
    if not wanted:
        wanted = ["profile", "classification", "extendability", "switch"]
    matching_cap = _env_cap("MATCHFORCE_MATCHING_CAP")

    needs_pm = {"profile", "classification", "switch"}
    if needs_pm & set(wanted) and not has_perfect_matching(g):
        raise NoPerfectMatchingError("graph has no perfect matching")
    if args.csv:  # the table is the profile alone; no other section is computed
        if not {"profile", "switch"} & set(wanted):
            raise _UsageError("--csv needs the forcing profile section")
        sys.stdout.write(records.spectrum_csv(forcing_profile(g, matching_cap)))
        return 0
    # the JSON record holds the graph6 string; fail before the work if it can't
    graph6 = to_graph6(g)

    sections: dict = {}
    if "profile" in wanted or "switch" in wanted:
        profile = forcing_profile(g, matching_cap=matching_cap)
    if "profile" in wanted:
        sections["profile"] = records.spectrum_payload(profile)
    if "classification" in wanted:
        sections["classification"] = records.classification_payload(
            classify_min_forcing(g)
        )
    if "extendability" in wanted:
        sections["extendability"] = _extendability_section(g)
    if "switch" in wanted:
        sg = build_switch_graph(g, profile=profile)
        sections["switch"] = records.switch_payload(sg, profile, reaches_top(sg))

    record = records.make_record(
        "analysis",
        {"order": g.order, "graph6": graph6, "sections": sections},
    )
    sys.stdout.write(records.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# generate


def _cmd_generate(args) -> int:
    labeled: LabeledGraph | None = None
    if args.family == "multipartite":
        g = gen_complete_multipartite(_parse_ints(args.sizes))
    elif args.family == "knnplus":
        g = gen_knn_plus(args.n, _parse_pairs(args.extra))
    elif args.family == "hk":
        labeled = gen_h_k(args.n, args.k)
        g = labeled.graph
    elif args.family == "signature":
        labeled = gen_minimal_from_signature(args.n, _parse_pairs(args.parallel))
        g = labeled.graph
    elif args.family == "non2ext":
        # only the options given, so that a case can refuse one it does not take
        readers = {
            "u_edges": _parse_pairs,
            "triangle": _parse_ints,
            "parallel_index": lambda i: None if i < 0 else i,
            "extra_v_edges": _parse_pairs,
        }
        options = {
            name: read(getattr(args, name))
            for name, read in readers.items()
            if getattr(args, name) is not None
        }
        labeled = gen_non_2_extendable(args.case, args.n, **options)
        g = labeled.graph
    elif args.family == "random":
        g = gen_random(args.order, args.p, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown family {args.family!r}")

    if labeled is not None:
        pairs = " ".join(f"{e.u}-{e.v}" for e in labeled.m0.edges)
        sys.stdout.write(f"# m0: {pairs}\n")
    sys.stdout.write(serialize_graph(g, args.format))
    return 0


# ---------------------------------------------------------------------------
# verify


def _load_corpus(source: str) -> tuple[str, Iterable[Graph]]:
    path = Path(source)
    try:
        return source, builtin_corpus(source)
    except ValueError as exc:
        if not path.exists():
            raise ValueError(f"{exc}, and no file {source!r} exists") from None
    try:
        return path.name, read_graph6_collection(path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read corpus {source!r}: {exc}", 0) from None


def _cmd_verify(args) -> int:
    corpus_id, graphs = _load_corpus(args.corpus)
    theorems = (
        "all" if args.theorems.strip() == "all" else args.theorems.split(",")
    )
    report = verify_graphs(
        corpus_id, graphs, theorems=theorems, workers=args.workers
    )
    record = records.make_record(
        "verification", records.verification_payload(report, args.timings)
    )
    sys.stdout.write(records.dumps(record))
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="matchforce", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_an = sub.add_parser("analyze", help="report on one graph")
    p_an.add_argument("input", nargs="?", help="path or '-' for stdin")
    p_an.add_argument("--format", choices=FORMATS, default="edge-list")
    p_an.add_argument("--profile", action="store_true")
    p_an.add_argument("--classify", action="store_true")
    p_an.add_argument("--extend", action="store_true")
    p_an.add_argument("--switch", action="store_true")
    p_an.add_argument("--csv", action="store_true", help="spectra table as CSV")
    p_an.set_defaults(func=_cmd_analyze)

    p_gen = sub.add_parser("generate", help="emit one family graph")
    gen_sub = p_gen.add_subparsers(dest="family", required=True, parser_class=_Parser)

    p = gen_sub.add_parser("multipartite")
    p.add_argument("--sizes", required=True, help="comma list, e.g. 2,2,2")
    p = gen_sub.add_parser("knnplus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--extra", default="", help="B-side pairs, e.g. 3-4,4-5")
    p = gen_sub.add_parser("hk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p = gen_sub.add_parser("signature")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--parallel", default="", help="parallel pairs, e.g. 0-1")
    p = gen_sub.add_parser("non2ext")
    p.add_argument("--case", choices=("i", "ii"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u-edges", dest="u_edges")
    p.add_argument("--triangle")
    p.add_argument("--parallel-index", dest="parallel_index", type=int)
    p.add_argument("--extra-v", dest="extra_v_edges")
    p = gen_sub.add_parser("random")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--p", default="1/2", help="edge probability, e.g. 1/2 or 0.5")
    p.add_argument("--seed", type=int, default=0)
    for sp in gen_sub.choices.values():
        sp.add_argument("--format", choices=FORMATS, default="graph6")
        sp.set_defaults(func=_cmd_generate)

    p_ver = sub.add_parser("verify", help="run theorem blocks over a corpus")
    p_ver.add_argument(
        "--corpus",
        default="exhaustive-6",
        help="builtin (exhaustive-N, families-10) or a graph6 file",
    )
    p_ver.add_argument(
        "--theorems",
        default="all",
        help=f"'all' or comma list from {','.join(THEOREM_IDS)}",
    )
    p_ver.add_argument("--workers", type=int, default=1)
    p_ver.add_argument("--timings", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        sys.stderr.close()
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except NoPerfectMatchingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MatchingOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
