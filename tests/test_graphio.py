import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchforce import (
    Graph,
    ParseError,
    load_graph,
    parse_edge_list,
    parse_graph6,
    read_graph6_collection,
    serialize_graph,
    to_edge_list,
    to_graph6,
)

from graphs import complete_graph, cycle_graph


@st.composite
def graphs(draw, max_order=12):
    order = draw(st.integers(min_value=0, max_value=max_order))
    pairs = [(i, j) for i in range(order) for j in range(i + 1, order)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph.from_edges(order, [p for b, p in enumerate(pairs) if (mask >> b) & 1])


class TestGraph6:
    def test_spec_sample_decodes(self):
        # "E?~o" is a 6-vertex graph: two vertices joined to an independent four
        g = parse_graph6("E?~o")
        assert g.order == 6
        assert sorted(tuple(e) for e in g.edges()) == [
            (0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5),
        ]
        assert to_graph6(g) == "E?~o"

    def test_empty_and_k1(self):
        assert to_graph6(Graph(0, ())) == "?"
        assert parse_graph6("?").order == 0
        assert parse_graph6("@").order == 1

    def test_known_encodings(self):
        assert to_graph6(complete_graph(4)) == "C~"
        assert parse_graph6("C~") == complete_graph(4)

    def test_rejects_order_above_62(self):
        with pytest.raises(ParseError):
            parse_graph6("~???")

    def test_rejects_bad_byte(self):
        with pytest.raises(ParseError) as err:
            parse_graph6("C" + chr(30))
        assert err.value.offset == 1

    def test_rejects_wrong_length(self):
        with pytest.raises(ParseError):
            parse_graph6("C~~")
        with pytest.raises(ParseError):
            parse_graph6("C")

    def test_rejects_dirty_padding(self):
        # order 2 needs 1 body byte with 5 padding bits that must be zero
        with pytest.raises(ParseError):
            parse_graph6("A" + chr(63 + 1))

    def test_rejects_empty(self):
        with pytest.raises(ParseError):
            parse_graph6("")

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_order=14))
    def test_roundtrip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_order_boundary_62(self):
        ring = cycle_graph(62)
        assert parse_graph6(to_graph6(ring)) == ring
        with pytest.raises(ValueError):
            to_graph6(cycle_graph(63))

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_order=10))
    def test_serialized_identity(self, g):
        # loading then re-serializing is the identity on canonical text
        text = to_graph6(g)
        assert to_graph6(parse_graph6(text)) == text

    def test_collection_reader(self):
        text = ">>graph6<<C~\n# comment\n\nEFz_\n"
        graphs_ = read_graph6_collection(text)
        assert [g.order for g in graphs_] == [4, 6]

    def test_indented_line_offset(self):
        # "C~\n" is bytes 0-2, the indent 3-5, "C}" 6-7: the stray "x" is byte 8
        with pytest.raises(ParseError) as err:
            read_graph6_collection("C~\n   C}x\n")
        assert err.value.offset == 8
        with pytest.raises(ParseError) as err:
            load_graph("   C}x\n", "graph6")
        assert err.value.offset == 5

    def test_indented_header_offset(self):
        # two indent bytes, ten header bytes, "C}": the stray "x" is byte 14
        for read in (read_graph6_collection, lambda t: load_graph(t, "graph6")):
            with pytest.raises(ParseError) as err:
                read("  >>graph6<<C}x\n")
            assert err.value.offset == 14


class TestEdgeList:
    def test_k2(self):
        assert parse_edge_list("2 1\n0 1\n") == complete_graph(2)

    def test_loop_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("4 3\n0 1\n1 1\n2 3")
        assert "line 3" in str(err.value)
        assert err.value.offset == 8

    def test_indented_edge_offset(self):
        # "2 1\n" is bytes 0-3, the indent 4-6: the "0 0" starts at byte 7
        with pytest.raises(ParseError) as err:
            parse_edge_list("2 1\n   0 0\n")
        assert "loop at line 2" in str(err.value)
        assert err.value.offset == 7

    def test_indented_header_offset(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("  2 x\n")
        assert "malformed header" in str(err.value)
        assert err.value.offset == 2

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("3 2\n0 1\n1 0\n")
        assert "duplicate" in str(err.value)

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("2 1\n0 2\n")
        assert "range" in str(err.value)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_list("4 2\n0 1\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("nope\n0 1\n")

    def test_comments_skipped(self):
        g = parse_edge_list("# matching: 0-1\n2 1\n0 1\n")
        assert g == complete_graph(2)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_order=10))
    def test_roundtrip(self, g):
        assert parse_edge_list(to_edge_list(g)) == g


class TestDispatch:
    def test_load_graph_both_formats(self, c6=None):
        c6 = cycle_graph(6)
        assert load_graph(to_graph6(c6) + "\n", "graph6") == c6
        assert load_graph(to_edge_list(c6), "edge-list") == c6

    def test_serialize_dispatch(self):
        g = complete_graph(2)
        assert serialize_graph(g, "graph6") == "A_\n"
        assert serialize_graph(g, "edge-list") == "2 1\n0 1\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            load_graph("A_", "dot")
