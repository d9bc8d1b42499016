"""Property suite: the CSR-derived views of a Graph agree with its edge records,
and its GraphML export reads back whole."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import legnet  # noqa: E402
from legnet import AttributeTable, Graph  # noqa: E402


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    # an edge CSV has at least one edge, so every graph here does too
    pairs = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), unique=True,
                          min_size=1, max_size=40))
    weights = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                            min_size=len(pairs), max_size=len(pairs)))
    ids = [f"n{i}" for i in draw(st.permutations(range(n)))]
    nodes = ids if draw(st.booleans()) else None  # with or without isolated nodes
    return Graph([(ids[i], ids[j], w) for (i, j), w in zip(pairs, weights)], nodes=nodes)


def assert_views_match_records(g: Graph) -> None:
    outs = [set() for _ in range(g.n)]
    ins = [set() for _ in range(g.n)]
    strength = [0.0] * g.n
    weight = {}
    for s, t, w in g.edge_records():
        i, j = g.index_of(s), g.index_of(t)
        outs[i].add(j)
        ins[j].add(i)
        strength[i] += w
        weight[i, j] = w
    adj = g.adjacency(weighted=True, sparse=True)
    assert adj.nnz == g.edge_count
    for v in range(g.n):
        row = slice(adj.indptr[v], adj.indptr[v + 1])
        assert adj.indices[row].tolist() == sorted(outs[v])
        assert adj.data[row].tolist() == [weight[v, j] for j in sorted(outs[v])]
        assert g.undirected_neighbors(v).tolist() == sorted(outs[v] | ins[v])
    assert g.out_degrees().tolist() == [len(a) for a in outs]
    assert g.in_degrees().tolist() == [len(a) for a in ins]
    # both sums run in edge storage order, so they agree bit for bit
    assert g.out_strengths().tolist() == strength


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_csr_views_match_edge_records(g, data):
    assert_views_match_records(g)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.csv"
        legnet.save_edge_list(g, path)
        loaded = legnet.load_edge_list(path)
    assert list(loaded.edge_records()) == list(g.edge_records())
    assert_views_match_records(loaded)
    keep = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    sub = g.induced_subgraph(keep)
    assert sub.node_ids == tuple(g.id_of(v) for v in sorted(keep))
    assert_views_match_records(sub)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_dense_adjacency_is_the_csr_made_dense(g):
    for weighted in (False, True):
        dense = g.adjacency(weighted=weighted)
        assert np.array_equal(dense, g.adjacency(weighted=weighted, sparse=True).toarray())
        want = np.zeros((g.n, g.n))
        for s, t, w in g.edge_records():
            want[g.index_of(s), g.index_of(t)] = w if weighted else 1.0
        assert np.array_equal(dense, want)


# XML's reserved characters, backslashes, non-ASCII text, tabs and line
# breaks, with no other control characters (XML 1.0 cannot carry them)
_XML_TEXT = st.text(st.one_of(st.sampled_from("&<>\"'\\é中—\t\n\r"),
                              st.characters(min_codepoint=0x20, max_codepoint=0x2FFF,
                                            exclude_categories=("Cc",))),
                    min_size=1, max_size=8)


@st.composite
def attributed_graphs(draw):
    ids = draw(st.lists(_XML_TEXT, min_size=2, max_size=8, unique=True))
    n = len(ids)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), unique=True,
                          min_size=1, max_size=20))
    weights = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                            min_size=len(pairs), max_size=len(pairs)))
    g = Graph([(ids[i], ids[j], w) for (i, j), w in zip(pairs, weights)], nodes=ids)
    party = draw(st.lists(_XML_TEXT, min_size=n, max_size=n))
    age = draw(st.lists(st.floats(min_value=0.0, max_value=120.0), min_size=n, max_size=n))
    return g, AttributeTable(g.node_ids, {"party": party}, {"age": age})


@settings(max_examples=60, deadline=None)
@given(attributed_graphs())
def test_graphml_reads_back_through_networkx(case):
    nx = pytest.importorskip("networkx")
    g, attrs = case
    read = nx.parse_graphml(legnet.io.graphml_dump(g, attrs))
    assert list(read.nodes) == list(g.node_ids)
    assert sorted(read.edges(data="weight")) == sorted(g.edge_records())
    for i, node in enumerate(g.node_ids):
        assert read.nodes[node] == {"party": attrs.categorical("party")[i],
                                    "age": float(attrs.numeric("age")[i])}
