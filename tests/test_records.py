"""Record payload shapes for every serialized value."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchforce import (
    build_switch_graph,
    classify_min_forcing,
    deficiency_witness,
    forcing_profile,
    gen_h_k,
    gen_knn_plus,
    gen_non_2_extendable,
    to_graph6,
    verify_spectrum_continuity,
)
from matchforce import records
from matchforce.cli import main


def roundtrips(payload):
    return json.loads(json.dumps(payload, sort_keys=True))


def test_spectrum_payload(k33):
    report = forcing_profile(k33)
    payload = roundtrips(records.spectrum_payload(report))
    assert payload["spectrum"] == [2]
    assert payload["matching_count"] == 6
    assert len(payload["per_matching"]) == 6
    assert payload["per_matching"][0]["matching"] == [[0, 3], [1, 4], [2, 5]]


def test_spectrum_csv(k33):
    csv = records.spectrum_csv(forcing_profile(k33))
    assert csv.splitlines()[0] == "matching,forcing"
    assert len(csv.splitlines()) == 7


def test_classification_payload(k33):
    payload = roundtrips(records.classification_payload(classify_min_forcing(k33)))
    assert payload["tag"] == "CompleteMultipartite"
    assert payload["partition"] == [[0, 1, 2], [3, 4, 5]]
    knn = gen_knn_plus(3, [(3, 4)])
    payload = roundtrips(records.classification_payload(classify_min_forcing(knn)))
    assert payload["tag"] == "KnnPlus"
    assert payload["extra_edges"] == [[3, 4]]


def test_deficiency_payload():
    g = gen_non_2_extendable("i", 4).graph
    payload = roundtrips(records.deficiency_payload(deficiency_witness(g, 2)))
    assert payload["level"] == 2
    assert len(payload["independent_edges"]) == 2
    assert all(payload["factor_critical"])


def test_switch_payloads(k33):
    sg = build_switch_graph(k33)
    cont = verify_spectrum_continuity(k33, sg=sg)
    payload = roundtrips(records.switch_payload(sg, cont))
    assert len(payload["nodes"]) == 6
    assert payload["reach_max"] is True
    assert all(mult == 1 for mult in payload["cycle_multiplicity"].values())


def json_reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def compact_reference(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


INTS = st.one_of(st.integers(-5, 20), st.integers(-(2**80), 2**80))
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf]),
    st.floats(-1e4, 1e4).map(lambda x: round(x, 3)),
)
TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2713\U0001d11e", '"\\/\b\f\n\r\t', "\u2028\ud800"]),
)
PAIRS = st.lists(st.tuples(INTS, INTS), max_size=6)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    INTS,
    FLOATS,
    TEXT,
    st.lists(st.one_of(INTS, st.booleans()), max_size=6),
    PAIRS,
    PAIRS.map(lambda ps: [list(p) for p in ps]),
    st.dictionaries(TEXT, st.one_of(INTS, st.booleans()), max_size=5),
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=25,
)


class TestDumps:
    """An analysis record is written on one compact line, every other kind
    indented by two; both with sorted keys and a closing newline."""

    @staticmethod
    def check(value):
        analysis = records.make_record("analysis", {"sections": value})
        assert records.dumps(analysis) == compact_reference(analysis)
        verification = records.make_record("verification", {"blocks": value})
        assert records.dumps(verification) == json_reference(verification)

    @settings(max_examples=400, deadline=None)
    @given(TREES)
    def test_matches_json(self, value):
        self.check(value)

    @pytest.mark.parametrize(
        "value",
        [
            [],
            {},
            [[]],
            [{}],
            [True, 1],
            [[1, True]],
            [[0, 1], [2, 3, 4]],
            [[0, 1], (2, 3)],
            {"a": True, "b": 1},
            {"b": 2, "a": -1, "\u00e9": 3},
            [math.nan, math.inf, -math.inf, -0.0, 1e300, 0.1],
            {"nodes": [[[0, 1], [2, 3]]], "edges": [(0, 1)], "forcing": [1, 2]},
        ],
    )
    def test_edge_cases_match_json(self, value):
        self.check(value)

    @pytest.mark.parametrize(
        "value",
        [
            {(0, 1): "a"},
            {"a": {(1, 2): 2}},
            {"a": {1, 2}},
            [set()],
            frozenset(),
            b"x",
            object(),
        ],
    )
    def test_unserializable_raises_type_error(self, value):
        for kind in ("analysis", "verification"):
            with pytest.raises(TypeError):
                records.dumps(records.make_record(kind, {"sections": value}))


def test_full_size_analyze_report_matches_json(tmp_path, capsys):
    # H(7,3): 2,792 perfect matchings, a 0.8 MB report
    path = tmp_path / "h73.g6"
    path.write_text(to_graph6(gen_h_k(7, 3).graph) + "\n")
    assert main(["analyze", "--format", "graph6", str(path)]) == 0
    out = capsys.readouterr().out
    record = json.loads(out)
    assert len(record["sections"]["profile"]["per_matching"]) == 2792
    assert out.count("\n") == 1
    assert out == compact_reference(record)


def test_timed_verify_report_matches_json(capsys):
    assert main(["verify", "--corpus", "exhaustive-4", "--timings"]) == 0
    out = capsys.readouterr().out
    record = json.loads(out)
    assert all(isinstance(b["runtime_s"], float) for b in record["blocks"])
    assert out == json_reference(record)
