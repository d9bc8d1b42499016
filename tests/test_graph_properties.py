"""Property suite: the CSR-derived views of a Graph agree with its edge records."""

import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import legnet  # noqa: E402
from legnet import Graph  # noqa: E402


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
    for s, t, w in g.edge_records():
        i, j = g.index_of(s), g.index_of(t)
        outs[i].add(j)
        ins[j].add(i)
        strength[i] += w
        assert g.has_edge(i, j) and g.weight(i, j) == w
    for v in range(g.n):
        assert g.out_neighbors(v).tolist() == sorted(outs[v])
        assert g.in_neighbors(v).tolist() == sorted(ins[v])
        assert g.undirected_neighbors(v).tolist() == sorted(outs[v] | ins[v])
    assert g.out_degrees().tolist() == [len(a) for a in outs]
    assert g.in_degrees().tolist() == [len(a) for a in ins]
    # both sums run in edge storage order, so they agree bit for bit
    assert g.out_strengths().tolist() == strength
    assert sum(g.has_edge(i, j) for i in range(g.n) for j in range(g.n)) == g.edge_count


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
