"""Record payload shapes for every serialized value."""

import json

from matchforce import (
    build_switch_graph,
    classify_min_forcing,
    deficiency_witness,
    forcing_number,
    forcing_profile,
    enumerate_perfect_matchings,
    gen_knn_plus,
    gen_non_2_extendable,
    non_2_extendable_structure,
    switch_path,
    verify_spectrum_continuity,
)
from matchforce import records


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


def test_certificate_payload(k33):
    m = enumerate_perfect_matchings(k33)[0]
    payload = roundtrips(records.certificate_payload(forcing_number(k33, m)))
    assert payload["optimum"] == 2
    assert len(payload["witness_set"]) == 2


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


def test_structure_payload():
    g = gen_non_2_extendable("ii", 3).graph
    payload = roundtrips(records.structure_payload(non_2_extendable_structure(g)))
    assert payload["case"] == "ii"
    assert sorted(payload["u_side"] + payload["v_side"]) == list(range(6))


def test_switch_payloads(k33):
    sg = build_switch_graph(k33)
    cont = verify_spectrum_continuity(k33, sg=sg)
    payload = roundtrips(records.switch_payload(sg, cont))
    assert len(payload["nodes"]) == 6
    assert payload["reach_max"] is True
    assert all(mult == 1 for mult in payload["cycle_multiplicity"].values())
    path = switch_path(sg, sg.nodes[0], sg.nodes[-1])
    path_payload = roundtrips(records.switch_path_payload(path))
    assert len(path_payload["matchings"]) == len(path_payload["cycles"]) + 1
    assert all(len(c) == 4 for c in path_payload["cycles"])
