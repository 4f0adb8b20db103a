"""Machine-readable report records.

Every CLI invocation emits one versioned JSON record; this module owns the
payload shapes so they stay diffable: keys are sorted, matchings are edge
pair lists, and timings are opt-in because report bytes must not depend on
worker count or machine speed.

`dumps` writes exactly the bytes of ``json.dumps(record, sort_keys=True,
indent=2) + "\n"``.  It is its own writer because CPython skips json's C
encoder whenever ``indent`` is set, and the pure-Python one costs more than
computing a multi-megabyte analyze report; here the large leaves (int lists,
lists of int pairs, int-valued dicts) are rendered in one join each.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from math import inf

SCHEMA = "matchforce-report/v1"


def make_record(kind: str, payload: dict) -> dict:
    return {"schema": SCHEMA, "kind": kind, **payload}


def dumps(record: dict) -> str:
    return _encode(record, "\n") + "\n"


def _encode(value, nl: str) -> str:
    """JSON text of `value`, whose line starts with the indentation in `nl`."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == inf:
            return "Infinity"
        if value == -inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = nl + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        types = set(map(type, value))
        if types == {int}:
            body = sep.join(map(int.__repr__, value))
        elif (
            types <= {list, tuple}
            and set(map(len, value)) == {2}
            and set(map(type, chain.from_iterable(value))) == {int}
        ):
            deeper = inner + "  "
            pair = "[" + deeper + "%d," + deeper + "%d" + inner + "]"
            body = sep.join([pair] * len(value)) % tuple(chain.from_iterable(value))
        else:
            body = sep.join([_encode(v, inner) for v in value])
        # one join copies the body once; chained "+" copies it per operand
        return "".join(("[", inner, body, nl, "]"))
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = sorted(value.items())
        if set(map(type, value.values())) == {int}:
            body = sep.join([_string(k) + ": " + int.__repr__(v) for k, v in items])
        else:
            body = sep.join([_string(k) + ": " + _encode(v, inner) for k, v in items])
        return "".join(("{", inner, body, nl, "}"))
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def matching_payload(flat) -> list[list[int]]:
    """Edge pairs of a flat matching (u0, v0, u1, v1, ...)."""
    it = iter(flat)
    return [[u, v] for u, v in zip(it, it)]


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
        "factor_critical": list(witness.factor_critical),
        "level": witness.l,
    }


def switch_payload(sg, continuity) -> dict:
    edges = sg.edges()
    return {
        "nodes": [matching_payload(m) for m in sg.matchings],
        "forcing": list(sg.forcing),
        "edges": [list(e) for e in edges],
        # adjacent matchings differ by exactly one 4-cycle, their symmetric
        # difference, so every edge is realized once
        "cycle_multiplicity": {f"{i}-{j}": 1 for i, j in edges},
        "applicable": continuity.applicable,
        "spectrum_continuous": continuity.spectrum_continuous,
        "reach_max": continuity.reach_max,
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
