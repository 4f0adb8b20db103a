"""Machine-readable report records.

Every CLI invocation emits one versioned JSON record; this module owns the
payload shapes so they stay stable: keys are sorted, matchings are edge
pair lists, and timings are opt-in because report bytes must not depend on
worker count or machine speed.

`dumps` writes an ``analysis`` record on one compact line,
``json.dumps(record, sort_keys=True, separators=(",", ":"))``, because
CPython skips json's C encoder whenever ``indent`` is set and an analyze
report can run to megabytes.  Every other record, verify reports among
them, is ``json.dumps(record, sort_keys=True, indent=2)``: small, and
meant to be diffed.  Both end in a newline.
"""

from __future__ import annotations

import json

SCHEMA = "matchforce-report/v1"
ANALYSIS_SCHEMA = "matchforce-report/v2"  # v1 less two constant fields


def make_record(kind: str, payload: dict) -> dict:
    schema = ANALYSIS_SCHEMA if kind == "analysis" else SCHEMA
    return {"schema": schema, "kind": kind, **payload}


def dumps(record: dict) -> str:
    if record.get("kind") == "analysis":
        return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def matching_payload(flat) -> list[tuple[int, int]]:
    """Edge pairs of a flat matching (u0, v0, u1, v1, ...)."""
    it = iter(flat)
    return list(zip(it, it))


def spectrum_payload(report) -> dict:
    return {
        "order": report.order,
        "matching_count": report.matching_count,
        "spectrum": list(report.spectrum),
        "min": report.min_forcing,
        "max": report.max_forcing,
        "continuous": report.continuous,
        "per_matching": [
            {"matching": matching_payload(m), "forcing": f}
            for m, f in zip(report.matchings, report.forcing)
        ],
    }


def spectrum_csv(report) -> str:
    lines = ["matching,forcing"]
    for m, f in zip(report.matchings, report.forcing):
        it = iter(m)
        key = " ".join(f"{u}-{v}" for u, v in zip(it, it))
        lines.append(f"{key},{f}")
    return "\n".join(lines) + "\n"


def classification_payload(result) -> dict:
    payload: dict = {
        "tag": result.tag.value,
        "predicted_min_forcing_is_max": result.predicted_min_forcing_is_max,
    }
    if result.partition is not None:
        payload["partition"] = [list(p) for p in result.partition]
    if result.bipartition is not None:
        payload["bipartition"] = [list(s) for s in result.bipartition]
    if result.extra_edges is not None:
        payload["extra_edges"] = [[e.u, e.v] for e in result.extra_edges]
    return payload


def deficiency_payload(witness) -> dict:
    return {
        "s": list(witness.s),
        "independent_edges": [[e.u, e.v] for e in witness.independent_edges],
        "components": [list(c) for c in witness.components],
        "level": witness.l,
    }


def switch_payload(sg, profile) -> dict:
    """The switch graph, with Theorem 5.7's facts: whether the maximum
    forcing number is n - 1 (``applicable``), whether the spectrum is an
    interval, and whether every node reaches a top node (``reach_max``).
    The reach is the kernel's fact pass, ``sg.facts.reaches_top``, read
    only where a top matching exists: with none, no node reaches one."""
    n = profile.order // 2
    applicable = n >= 1 and profile.max_forcing == n - 1
    return {
        "nodes": [matching_payload(m) for m in sg.matchings],
        "forcing": list(sg.forcing),
        "edges": sg.edges(),
        "applicable": applicable,
        "spectrum_continuous": profile.continuous,
        "reach_max": applicable and sg.facts.reaches_top,
    }


def verification_payload(report, include_timings: bool = False) -> dict:
    blocks = []
    for b in report.blocks:
        entry = {
            "theorem": b.theorem,
            "checked": b.checked,
            "passed": b.passed,
            "counterexamples": list(b.counterexamples),
        }
        if b.info:
            entry["info"] = dict(sorted(b.info.items()))
        if include_timings:
            entry["runtime_s"] = round(b.runtime_s, 3)
        blocks.append(entry)
    return {
        "corpus_id": report.corpus_id,
        "graphs_total": report.graphs_total,
        "graphs_with_pm": report.graphs_with_pm,
        "blocks": blocks,
    }
