"""Edge-list parsing, attribute loading, and exports."""

import csv
import io
import json
import re
import warnings
import xml.etree.ElementTree as ET

import pytest

import legnet
from legnet import DataError, Graph

from conftest import random_digraph

CSV_DOC = "source,target,weight\na,b,0.5\nb,a,1.0\nb,c,0.25\n"


def test_csv_happy_path():
    g = legnet.load_edge_list(io.StringIO(CSV_DOC))
    assert g.node_ids == ("a", "b", "c")
    assert list(g.edge_records()) == [("a", "b", 0.5), ("b", "a", 1.0),
                                      ("b", "c", 0.25)]


def test_csv_reads_path_bytes_and_filelike(tmp_path):
    p = tmp_path / "edges.csv"
    p.write_text(CSV_DOC)
    # and past a leading byte-order mark in bytes
    marked = b"\xef\xbb\xbf" + CSV_DOC.encode()
    for source in (p, str(p), CSV_DOC.encode(), io.StringIO(CSV_DOC), marked,
                   io.BytesIO(marked)):
        assert legnet.load_edge_list(source).edge_count == 3


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        legnet.load_edge_list(str(tmp_path / "nope.csv"))


def test_every_string_names_a_file():
    # document text passed as a str is a file name that names no file
    for text in (CSV_DOC, json.dumps(UPSTREAM)):
        with pytest.raises(DataError, match="cannot read"):
            legnet.load_edge_list(text)
    # a NUL byte cannot be in a file name
    with pytest.raises(DataError, match="cannot read"):
        legnet.load_edge_list("a\x00b.csv")
    with pytest.raises(DataError, match="cannot read"):
        legnet.load_attributes("a\x00b.csv", graph_abc())


def test_bracketed_file_name_is_read_as_a_path(tmp_path, monkeypatch):
    (tmp_path / "[2024] edges.csv").write_text(CSV_DOC)
    (tmp_path / "{house} edges.csv").write_text(CSV_DOC)
    monkeypatch.chdir(tmp_path)
    for name in ("[2024] edges.csv", "{house} edges.csv"):
        assert legnet.load_edge_list(name).edge_count == 3


def test_csv_header_must_name_columns():
    with pytest.raises(DataError, match="source"):
        legnet.load_edge_list(io.StringIO("from,to,weight\na,b,0.5\n"))


def test_csv_column_order_is_free():
    g = legnet.load_edge_list(io.StringIO("weight,target,source\n0.5,b,a\n"))
    assert list(g.edge_records()) == [("a", "b", 0.5)]


def test_csv_errors_carry_line_numbers():
    with pytest.raises(DataError, match="line 3"):
        legnet.load_edge_list(io.StringIO("source,target,weight\na,b,0.5\na,c,heavy\n"))
    with pytest.raises(DataError, match="line 2"):
        legnet.load_edge_list(io.StringIO("source,target,weight\n,b,0.5\n"))
    with pytest.raises(DataError, match="line 4"):
        legnet.load_edge_list(io.StringIO("source,target,weight\na,b,0.5\nb,c,0.5\na,b\n"))


def test_empty_stream_reports_no_nodes():
    for doc in ("", "   \n", "source,target,weight\n"):
        with pytest.raises(DataError, match="no nodes"):
            legnet.load_edge_list(io.StringIO(doc))


def test_unknown_format_rejected():
    with pytest.raises(legnet.ConfigError):
        legnet.load_edge_list(io.StringIO(CSV_DOC), format="tsv")


def test_save_load_round_trip(tmp_path):
    g = random_digraph(12, p=0.3, seed=4)
    first, second = tmp_path / "rt1.csv", tmp_path / "rt2.csv"
    legnet.save_edge_list(g, first)
    g2 = legnet.load_edge_list(first)
    assert list(g2.edge_records()) == list(g.edge_records())
    legnet.save_edge_list(g2, second)
    assert first.read_bytes() == second.read_bytes()


UPSTREAM = {
    "usernameList": ["alpha", "beta", "gamma"],
    "outList": [[1, 2], [0], []],
    "outWeight": [[0.5, 0.25], [1.0], []],
}


def test_upstream_json_with_index_targets():
    g = legnet.load_edge_list(io.StringIO(json.dumps(UPSTREAM)), format="upstream-json")
    assert g.node_ids == ("alpha", "beta", "gamma")
    assert list(g.edge_records()) == [("alpha", "beta", 0.5),
                                      ("alpha", "gamma", 0.25),
                                      ("beta", "alpha", 1.0)]


def test_upstream_json_singleton_wrapper_unwrapped():
    g = legnet.load_edge_list(io.StringIO(json.dumps([UPSTREAM])), format="upstream-json")
    assert g.edge_count == 3


def test_upstream_json_string_targets():
    doc = {"usernameList": ["a", "b"], "outList": [["b"], []],
           "outWeight": [[0.7], []]}
    g = legnet.load_edge_list(io.StringIO(json.dumps(doc)), format="upstream-json")
    assert list(g.edge_records()) == [("a", "b", 0.7)]


def test_upstream_json_bad_documents():
    with pytest.raises(DataError, match="missing field"):
        legnet.load_edge_list(io.StringIO(json.dumps({"usernameList": ["a"]})),
                              format="upstream-json")
    bad_index = dict(UPSTREAM, outList=[[7, 2], [0], []])
    with pytest.raises(DataError, match="out of range"):
        legnet.load_edge_list(io.StringIO(json.dumps(bad_index)), format="upstream-json")
    ragged = dict(UPSTREAM, outWeight=[[0.5], [1.0], []])
    with pytest.raises(DataError, match="targets but"):
        legnet.load_edge_list(io.StringIO(json.dumps(ragged)), format="upstream-json")
    with pytest.raises(DataError, match="no nodes"):
        legnet.load_edge_list(io.StringIO("[]"), format="upstream-json")
    with pytest.raises(DataError, match="parse failure"):
        legnet.load_edge_list(io.StringIO("{not json\n"), format="upstream-json")


@pytest.mark.parametrize("change, message", [
    ({"usernameList": "abc"}, "'usernameList' is not an array"),
    ({"outList": {"a": [1]}}, "'outList' is not an array"),
    ({"outWeight": 0.5}, "'outWeight' is not an array"),
    ({"usernameList": [["alpha"], "beta", "gamma"]}, r"node 0: id \['alpha'\]"),
    ({"usernameList": ["alpha", True, "gamma"]}, "node 1: id True"),
    ({"outList": [1, [0], []]}, "node 'alpha': targets and weights must be arrays"),
    ({"outWeight": [[0.5, 0.25], 1.0, []]}, "node 'beta': targets and weights"),
    ({"outList": [[True, 2], [0], []]}, "node 'alpha': target True is not an index"),
    ({"outList": [[1.0, 2], [0], []]}, "node 'alpha': target 1.0 is not an index"),
    ({"outList": [[[1], 2], [0], []]}, r"node 'alpha': target \[1\]"),
    ({"outWeight": [["x", 0.25], [1.0], []]}, "node 'alpha': weight 'x' is not a number"),
    ({"outWeight": [[None, 0.25], [1.0], []]}, "node 'alpha': weight None"),
    ({"outWeight": [[0.5, 0.25], [True], []]}, "node 'beta': weight True"),
    ({"outList": [[1, "zz"], [0], []]}, "node 'alpha': target id 'zz' not in usernameList"),
    # an integer too large for a float
    ({"outWeight": [[10**400, 0.25], [1.0], []]}, "0 is not a number on 'alpha'->'beta'"),
])
def test_upstream_json_malformed_values_name_the_node(change, message):
    with pytest.raises(DataError, match=message):
        legnet.load_edge_list(io.StringIO(json.dumps(dict(UPSTREAM, **change))),
                              format="upstream-json")


def test_upstream_json_integer_past_the_digit_limit_is_a_data_error():
    doc = json.dumps(UPSTREAM).replace("0.25", "1" * 5000)
    with pytest.raises(DataError, match="upstream JSON parse failure: Exceeds the limit"):
        legnet.load_edge_list(io.StringIO(doc), format="upstream-json")


def test_upstream_json_numeric_node_ids_still_load():
    doc = {"usernameList": [10, 2.5], "outList": [[1], [0]], "outWeight": [[0.5], [1]]}
    g = legnet.load_edge_list(io.StringIO(json.dumps(doc)), format="upstream-json")
    assert list(g.edge_records()) == [(10, 2.5, 0.5), (2.5, 10, 1.0)]


def test_non_utf8_input_is_a_data_error_naming_the_file(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_bytes(b"source,target,weight\na\xff,b,0.5\n")
    for source in (path, str(path)):
        with pytest.raises(DataError, match="edges.csv is not UTF-8 text"):
            legnet.load_edge_list(source)
    for source in (path.read_bytes(), io.BytesIO(path.read_bytes())):
        with pytest.raises(DataError, match="input is not UTF-8 text"):
            legnet.load_edge_list(source)
    attrs = tmp_path / "attrs.csv"
    attrs.write_bytes(b"node_id,party\n\xfea,Blue\n")
    with pytest.raises(DataError, match="attrs.csv is not UTF-8 text"):
        legnet.load_attributes(attrs, legnet.load_edge_list(io.StringIO(CSV_DOC)))


def test_upstream_json_keeps_isolated_nodes():
    doc = {"usernameList": ["a", "b", "loner"], "outList": [[1], [0], []],
           "outWeight": [[0.5], [0.5], []]}
    g = legnet.load_edge_list(io.StringIO(json.dumps(doc)), format="upstream-json")
    assert g.n == 3 and g.edge_count == 2


ATTR_DOC = ("node_id,party,chamber,age,tenure\n"
            "a,Blue,Upper,55,10\n"
            "b,Gold,Lower,47,3\n"
            "c,Blue,Lower,61,22\n")


def graph_abc():
    return legnet.load_edge_list(io.StringIO(CSV_DOC))


def test_attribute_loading():
    attrs = legnet.load_attributes(io.StringIO(ATTR_DOC), graph_abc())
    assert attrs.categorical("party") == ("Blue", "Gold", "Blue")
    assert attrs.numeric("age").tolist() == [55.0, 47.0, 61.0]
    assert attrs.has("chamber") and not attrs.has("religion")


def test_attribute_columns_are_read_by_their_stripped_names():
    doc = "node_id , party,age \na,Blue,55\nb,Gold,47\nc,Blue,61\n"
    attrs = legnet.load_attributes(io.StringIO(doc), graph_abc())
    assert attrs.categorical("party") == ("Blue", "Gold", "Blue")
    assert attrs.numeric("age").tolist() == [55.0, 47.0, 61.0]


def test_attributes_from_bracketed_file_name(tmp_path, monkeypatch):
    (tmp_path / "[2024] attrs.csv").write_text(ATTR_DOC)
    monkeypatch.chdir(tmp_path)
    attrs = legnet.load_attributes("[2024] attrs.csv", graph_abc())
    assert attrs.categorical("party") == ("Blue", "Gold", "Blue")


def test_attribute_rows_align_to_graph_regardless_of_order():
    shuffled = ("node_id,party,chamber,age,tenure\n"
                "c,Blue,Lower,61,22\n"
                "a,Blue,Upper,55,10\n"
                "b,Gold,Lower,47,3\n")
    attrs = legnet.load_attributes(io.StringIO(shuffled), graph_abc())
    assert attrs.categorical("party") == ("Blue", "Gold", "Blue")


def test_byte_order_mark_is_skipped_through_text_handles(tmp_path):
    # a text-mode handle or a StringIO passes the mark through undecoded
    edges, attrs = tmp_path / "edges.csv", tmp_path / "attrs.csv"
    edges.write_text("\ufeff" + CSV_DOC, encoding="utf-8")
    attrs.write_text("\ufeff" + ATTR_DOC, encoding="utf-8")
    graph = legnet.load_edge_list(edges)
    table = legnet.load_attributes(attrs, graph)

    def columns(t):
        return ([t.categorical(c) for c in t.categorical_columns],
                [t.numeric(c).tolist() for c in t.numeric_columns])

    for reopen in (lambda p: open(p, encoding="utf-8"),
                   lambda p: io.StringIO(p.read_text(encoding="utf-8"))):
        with reopen(edges) as fh:
            got = legnet.load_edge_list(fh)
        assert got.node_ids == graph.node_ids
        assert list(got.edge_records()) == list(graph.edge_records())
        with reopen(attrs) as fh:
            assert columns(legnet.load_attributes(fh, got)) == columns(table)
    assert table.categorical("party") == ("Blue", "Gold", "Blue")


@pytest.mark.parametrize("load, doc, column", [
    # each reader kept a different copy: the attributes the last, the edges the first
    (lambda doc: legnet.load_attributes(doc, graph_abc()),
     "node_id,party,party\na,D,R\nb,D,R\nc,D,R\n", "party"),
    (legnet.load_edge_list, "source,target,weight,weight\na,b,0.5,0.9\n", "weight"),
    # names are compared stripped
    (legnet.load_edge_list, "source,target ,weight, target\na,b,0.5,c\n", "target"),
])
def test_repeated_header_column_is_a_data_error(load, doc, column):
    with pytest.raises(DataError, match=f"header repeats column '{column}'$"):
        load(io.StringIO(doc))


def test_unknown_attribute_column_warns():
    doc = ("node_id,party,shoe_size\na,Blue,9\nb,Gold,11\nc,Blue,10\n")
    with pytest.warns(UserWarning, match="shoe_size"):
        attrs = legnet.load_attributes(io.StringIO(doc), graph_abc())
    assert attrs.categorical("party") == ("Blue", "Gold", "Blue")
    assert not attrs.has("shoe_size")


def test_attribute_mismatches():
    missing_row = "node_id,party\na,Blue\nb,Gold\n"
    with pytest.raises(DataError, match="attribute/graph mismatch"):
        legnet.load_attributes(io.StringIO(missing_row), graph_abc())
    stranger = "node_id,party\na,Blue\nb,Gold\nc,Blue\nzz,Gold\n"
    with pytest.raises(DataError, match="line 5"):
        legnet.load_attributes(io.StringIO(stranger), graph_abc())
    doubled = "node_id,party\na,Blue\nb,Gold\nb,Gold\n"
    with pytest.raises(DataError, match="line 4"):
        legnet.load_attributes(io.StringIO(doubled), graph_abc())
    bad_age = "node_id,age\na,55\nb,young\nc,61\n"
    with pytest.raises(DataError, match="line 3"):
        legnet.load_attributes(io.StringIO(bad_age), graph_abc())


@pytest.mark.parametrize("load, doc, message", [
    # the attribute loader counted only the rows that were not blank
    (lambda doc: legnet.load_attributes(doc, graph_abc()),
     "node_id,party\na,Blue\nb,Gold\n\nzz,Gold\n", "^line 5: node_id 'zz' absent"),
    # the edge loader counted records, and a quoted field spans two lines
    (legnet.load_edge_list, 'source,target,weight\n"a\nx",b,0.5\nb,c,heavy\n',
     "^line 4: weight 'heavy' is not a number"),
], ids=["attributes-after-a-blank-line", "edges-after-a-two-line-field"])
def test_csv_errors_name_the_physical_line(load, doc, message):
    with pytest.raises(DataError, match=message):
        load(io.StringIO(doc))


def test_blank_lines_are_skipped_in_both_csvs_also_before_the_header():
    edges = legnet.load_edge_list(io.StringIO("\n \t\n" + CSV_DOC.replace("\n", "\n  \n", 1)))
    assert list(edges.edge_records()) == list(graph_abc().edge_records())
    # the attribute loader refused a whitespace-only line, and a blank first line
    for doc in (ATTR_DOC.replace("b,", " \nb,"), "\n" + ATTR_DOC):
        attrs = legnet.load_attributes(io.StringIO(doc), graph_abc())
        assert attrs.categorical("party") == ("Blue", "Gold", "Blue")
        assert attrs.numeric("tenure").tolist() == [10.0, 3.0, 22.0]


def test_blank_lines_never_change_what_a_csv_loads():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    ids = ["a", "b c", "d\ne", "f,g", 'h"i', "ç"]
    pairs = [(i, j) for i in range(len(ids)) for j in range(len(ids)) if i != j]

    def records(rows):
        """Each row as its CSV text, which may span lines."""
        out = []
        for row in rows:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow(row)
            out.append(buf.getvalue())
        return out

    def graph_key(g):
        return g.node_ids, list(g.edge_records())

    def table_key(t):
        return ([(c, t.categorical(c)) for c in t.categorical_columns],
                [(c, t.numeric(c).tolist()) for c in t.numeric_columns])

    @settings(max_examples=60, deadline=None)
    @given(edges=st.lists(st.sampled_from(pairs), min_size=1, max_size=12, unique=True),
           weights=st.lists(st.sampled_from([0.125, 0.5, 1.0, 0.3]), min_size=12,
                            max_size=12),
           parties=st.lists(st.sampled_from(["Blue", "Gold", "Bl\nue", " "]),
                            min_size=len(ids), max_size=len(ids)),
           blanks=st.lists(st.tuples(st.integers(0, 64), st.sampled_from(["", " ", "\t", " \t "])),
                           max_size=6),
           corrupt=st.integers(0, 64), order=st.randoms(use_true_random=False))
    def check(edges, weights, parties, blanks, corrupt, order):
        edge_rows = [[ids[i], ids[j], repr(w)] for (i, j), w in zip(edges, weights)]
        graph = legnet.load_edge_list(io.StringIO("".join(records(
            [["source", "target", "weight"], *edge_rows]))))
        attr_rows = [[node, party, str(k)] for k, (node, party) in
                     enumerate(zip(graph.node_ids, parties))]
        order.shuffle(attr_rows)
        for load, header, rows, key, bad in (
                (legnet.load_edge_list, ["source", "target", "weight"], edge_rows,
                 graph_key, lambda row: [*row[:2], "heavy"]),
                (lambda doc: legnet.load_attributes(doc, graph), ["node_id", "party", "age"],
                 attr_rows, table_key, lambda row: ["zz", *row[1:]])):
            clean = records([header, *rows])
            texts = list(clean)
            for at, blank in sorted(blanks, reverse=True):
                texts.insert(at % (len(texts) + 1), blank + "\n")
            assert key(load(io.StringIO("".join(texts)))) == key(load(io.StringIO("".join(clean))))
            # one corrupted data row is named by the physical line it ends on
            k = texts.index(clean[1 + corrupt % len(rows)])
            texts[k] = records([bad(rows[corrupt % len(rows)])])[0]
            line = "".join(texts[:k + 1]).count("\n")
            with pytest.raises(DataError, match=f"^line {line}: "):
                load(io.StringIO("".join(texts)))

    check()


def test_graphml_is_wellformed_and_complete():
    g = graph_abc()
    attrs = legnet.load_attributes(io.StringIO(ATTR_DOC), g)
    doc = legnet.io.graphml_dump(g, attrs)
    root = ET.fromstring(doc)
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    nodes = root.findall(".//g:node", ns)
    edges = root.findall(".//g:edge", ns)
    assert len(nodes) == g.n and len(edges) == g.edge_count
    assert root.find(".//g:graph", ns).get("edgedefault") == "directed"


def test_dot_output_quotes_identifiers(tmp_path):
    g = Graph([("mr smith", "ms jones", 0.5)])
    path = tmp_path / "g.dot"
    legnet.save_dot(g, path)
    text = path.read_text()
    assert text.startswith("digraph")
    assert '"mr smith" -> "ms jones"' in text


_DOT_STRING = r'"(?:[^"\\]|\\.)*"'


def _dot_strings(line):
    """The quoted strings of a DOT line, unescaped; each must be quoted whole."""
    assert re.fullmatch(rf'(?:[^"]|{_DOT_STRING})*', line), line
    return [re.sub(r"\\(.)", r"\1", s[1:-1]) for s in re.findall(_DOT_STRING, line)]


@pytest.mark.parametrize("text", ["a\\", 'a"b', 'a\\"b', "\\\\", '"', 'ends "\\', "plain"])
def test_dot_strings_unescape_to_the_original(text):
    g = Graph([(text, "x", 0.5)])
    doc = io.StringIO()
    csv.writer(doc).writerows([["node_id", "party"], [text, text + "p"], ["x", "Gold"]])
    attrs = legnet.load_attributes(io.StringIO(doc.getvalue()), g)
    lines = legnet.io.dot_dump(g, attrs).splitlines()
    assert [_dot_strings(line) for line in lines] == [
        [], [text, text + "p"], ["x", "Gold"], [text, "x"], []]


@pytest.mark.parametrize("node, party, message", [
    ("a\x01b", "Blue", r"^node id 'a\\x01b' holds a control character"),
    ("a", "Bl\x1fue", r"^party value 'Bl\\x1fue' holds a control character"),
])
def test_graphml_refuses_control_characters_that_xml_cannot_carry(node, party, message):
    g = Graph([(node, "x", 0.5)])
    attrs = legnet.AttributeTable(g.node_ids, {"party": [party, "Gold"]}, {})
    with pytest.raises(DataError, match=message):
        legnet.io.graphml_dump(g, attrs)


def test_graphml_escapes_reserved_characters(tmp_path):
    g = Graph([("a<b", 'c"d', 0.5)])
    path = tmp_path / "g.graphml"
    legnet.save_graphml(g, path)
    ET.parse(path)
