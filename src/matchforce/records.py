"""Machine-readable report records.

Every CLI invocation emits one versioned JSON record; this module owns the
payload shapes so they stay diffable: keys are sorted, matchings are edge
pair lists, cycles are vertex lists, and timings are opt-in because report
bytes must not depend on worker count or machine speed.
"""

from __future__ import annotations

import json

SCHEMA = "matchforce-report/v1"


def make_record(kind: str, payload: dict) -> dict:
    return {"schema": SCHEMA, "kind": kind, **payload}


def dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def matching_payload(m) -> list[list[int]]:
    return m.as_pairs()


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
            for m, f in report.per_matching.items()
        ],
    }


def spectrum_csv(report) -> str:
    lines = ["matching,forcing"]
    for m, f in report.per_matching.items():
        key = " ".join(f"{e.u}-{e.v}" for e in m.edges)
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


def certificate_payload(cert) -> dict:
    return {
        "matching": matching_payload(cert.matching),
        "optimum": cert.optimum,
        "witness_set": [[e.u, e.v] for e in cert.witness_set],
        "lower_bound_used": cert.lower_bound_used,
        "nodes_explored": cert.nodes_explored,
    }


def deficiency_payload(witness) -> dict:
    return {
        "s": list(witness.s),
        "independent_edges": [[e.u, e.v] for e in witness.independent_edges],
        "components": [list(c) for c in witness.components],
        "factor_critical": list(witness.factor_critical),
        "level": witness.l,
    }


def structure_payload(struct) -> dict:
    return {
        "case": struct.case,
        "matching": matching_payload(struct.matching),
        "u_side": list(struct.u_side),
        "v_side": list(struct.v_side),
        "pivot": struct.pivot,
    }


def switch_payload(sg, continuity) -> dict:
    edges = sg.edges()
    return {
        "nodes": [matching_payload(m) for m in sg.nodes],
        "forcing": list(sg.forcing),
        "edges": [list(e) for e in edges],
        # adjacent matchings differ by exactly one 4-cycle, their symmetric
        # difference, so every edge is realized once
        "cycle_multiplicity": {f"{i}-{j}": 1 for i, j in edges},
        "applicable": continuity.applicable,
        "spectrum_continuous": continuity.spectrum_continuous,
        "reach_max": continuity.reach_max,
    }


def switch_path_payload(path) -> dict:
    return {
        "matchings": [matching_payload(m) for m in path.matchings],
        "cycles": [list(c.vertices) for c in path.cycles],
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
