"""Graph container, components, and articulation points."""

import numpy as np
import pytest

import legnet
from legnet import DataError, Graph, components

from conftest import graph_from_matrix, matrix_of, oracle_distances, random_digraph


def small():
    return Graph([("a", "b", 0.5), ("b", "a", 1.0), ("b", "c", 0.25),
                  ("c", "a", 0.75)])


def test_nodes_indexed_by_first_appearance():
    g = Graph([("x", "y", 0.1), ("z", "x", 0.2), ("y", "z", 0.3)])
    assert g.node_ids == ("x", "y", "z")
    assert [g.index_of(v) for v in ("x", "y", "z")] == [0, 1, 2]
    assert g.id_of(2) == "z"
    assert "y" in g and "w" not in g


def test_counts_and_lookup():
    g = small()
    assert g.n == 3
    assert g.edge_count == 4
    a, b, c = (g.index_of(v) for v in "abc")
    assert g.has_edge(a, b) and not g.has_edge(a, c)
    assert g.weight(b, c) == 0.25
    with pytest.raises(DataError):
        g.weight(a, c)
    with pytest.raises(DataError):
        g.index_of("missing")


@pytest.mark.parametrize("method, args", [
    ("id_of", (5,)), ("id_of", (-1,)), ("weight", (0, 99)), ("weight", (-1, 0)),
    ("out_neighbors", (-1,)), ("in_neighbors", (3,)), ("undirected_neighbors", (-4,)),
])
def test_node_indices_outside_the_graph_are_data_errors(method, args):
    # one rule for every index-taking method: the error names the index,
    # never a wrapped-around node
    with pytest.raises(DataError, match=r"node index -?\d+ out of range for 3 nodes"):
        getattr(small(), method)(*args)


def test_edge_records_keep_input_order():
    records = [("n2", "n1", 0.9), ("n1", "n2", 0.3), ("n1", "n3", 0.7)]
    g = Graph(records)
    assert list(g.edge_records()) == records


def test_rejects_bad_weights():
    for w in (0.0, -0.2, 1.5, float("nan")):
        with pytest.raises(DataError):
            Graph([("a", "b", w)])
    # an integer too large for a float, text and None are not numbers
    for w in (10**400, "heavy", None):
        with pytest.raises(DataError, match=r"is not a number on 'a'->'b' \(edge record 1\)"):
            Graph([("a", "b", w)])
    # one too long for repr is named by its digit count
    with pytest.raises(DataError, match=r"^edge weight <integer of 5001 digits> is not a number on 'a'->'b'"):
        Graph([("a", "b", 10**5000)])


def test_rejects_self_loops_and_duplicates():
    with pytest.raises(DataError, match="record 1"):
        Graph([("a", "a", 0.5)])
    with pytest.raises(DataError, match="record 3"):
        Graph([("a", "b", 0.5), ("b", "a", 0.5), ("a", "b", 0.7)])


def test_rejects_duplicate_node_ids():
    with pytest.raises(DataError):
        Graph([("a", "b", 0.5)], nodes=["a", "b", "a"])


def test_degrees_and_strengths():
    g = small()
    assert list(g.out_degrees()) == [1, 2, 1]
    assert list(g.in_degrees()) == [2, 1, 1]
    assert np.allclose(g.out_strengths(), [0.5, 1.25, 0.75])


def test_neighbor_arrays_sorted():
    g = Graph([("a", "c", 0.5), ("a", "b", 0.5), ("d", "a", 0.5)])
    assert list(g.out_neighbors(0)) == sorted(g.out_neighbors(0))
    und = g.undirected_neighbors(0)
    assert list(und) == sorted(set(und))


def test_adjacency_matrices():
    g = small()
    w = g.adjacency(weighted=True)
    b = g.adjacency(weighted=False)
    assert w[0, 1] == 0.5 and w[1, 0] == 1.0
    assert b.dtype == np.float64 and set(np.unique(b)) <= {0.0, 1.0}
    assert np.all((w > 0) == (b > 0))


def test_weak_components_ordered_by_smallest_member():
    g = Graph([("p", "q", 0.5), ("r", "s", 0.5), ("s", "r", 0.5)])
    comps = [tuple(c) for c in g.weak_components()]
    assert comps == [(0, 1), (2, 3)]


def test_strong_components_against_reachability():
    for seed in range(6):
        g = random_digraph(9, p=0.22, seed=seed)
        dist = oracle_distances(matrix_of(g))
        mutual = np.isfinite(dist) & np.isfinite(dist.T)
        expected = {frozenset(np.flatnonzero(mutual[i]).tolist()) for i in range(g.n)}
        got = {frozenset(component) for component in g.strong_components()}
        assert got == expected


def test_strong_components_cycle_and_dag():
    cycle = Graph([("a", "b", 0.5), ("b", "c", 0.5), ("c", "a", 0.5)])
    assert len(cycle.strong_components()) == 1
    dag = Graph([("a", "b", 0.5), ("b", "c", 0.5), ("a", "c", 0.5)])
    assert len(dag.strong_components()) == 3


def _brute_articulation(g: Graph) -> set:
    y = matrix_of(g)
    u = y | y.T
    n = g.n

    def n_components(mask):
        seen, count = set(), 0
        for s in range(n):
            if not mask[s] or s in seen:
                continue
            count += 1
            stack = [s]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(j for j in range(n) if mask[j] and u[v, j])
        return count

    base = n_components(np.ones(n, bool))
    cut = set()
    for v in range(n):
        mask = np.ones(n, bool)
        mask[v] = False
        if n_components(mask) > base - (1 if not u[v].any() else 0):
            cut.add(g.id_of(v))
    return cut


def test_articulation_points_against_deletion():
    for seed in range(8):
        g = random_digraph(10, p=0.14, seed=seed + 50)
        got = {g.id_of(v) for v in g.articulation_points()}
        assert got == _brute_articulation(g)


def test_articulation_point_in_chain():
    g = Graph([("a", "b", 0.5), ("b", "c", 0.5)])
    assert [g.id_of(v) for v in g.articulation_points()] == ["b"]


def test_induced_subgraph_preserves_order_and_weights():
    g = small()
    sub = g.induced_subgraph([g.index_of("a"), g.index_of("b")])
    assert sub.node_ids == ("a", "b")
    assert list(sub.edge_records()) == [("a", "b", 0.5), ("b", "a", 1.0)]
    with pytest.raises(DataError):
        g.induced_subgraph([99])


def test_component_report_fields():
    g = Graph([("a", "b", 0.5), ("b", "a", 0.5), ("b", "c", 0.5)])
    rep = components(g)
    assert rep.weak_sizes == (3,)
    assert rep.is_giant_weak_component
    assert not rep.is_strongly_connected
    assert rep.strong_sizes[0] == 2
    assert rep.articulation_points == ("b",)


def test_graph_is_immutable():
    g = small()
    with pytest.raises(AttributeError):
        g.n = 10
    # neighbor rows and edge arrays are views of the graph's own storage
    with pytest.raises(ValueError):
        g.out_neighbors(0)[0] = 2
    with pytest.raises(ValueError):
        g.edge_arrays()[2][0] = 1.0


def test_empty_graph():
    g = Graph([])
    assert (g.n, g.edge_count) == (0, 0)
    assert g.weak_components() == [] and g.strong_components() == []
    assert g.articulation_points() == []
    assert g.out_degrees().shape == g.in_degrees().shape == g.out_strengths().shape == (0,)
    assert g.adjacency(sparse=True).shape == g.adjacency().shape == (0, 0)
    rep = components(g)
    assert rep.weak_sizes == rep.strong_sizes == rep.articulation_points == ()


def test_isolated_nodes():
    g = Graph([("a", "b", 0.5)], nodes=["z", "a", "b", "y"])
    z, y = g.index_of("z"), g.index_of("y")
    assert list(g.out_degrees()) == [0, 1, 0, 0]
    assert list(g.in_degrees()) == [0, 0, 1, 0]
    assert list(g.out_strengths()) == [0.0, 0.5, 0.0, 0.0]
    for v in (z, y):
        assert g.out_neighbors(v).size == g.in_neighbors(v).size == 0
        assert g.undirected_neighbors(v).size == 0
    assert g.weak_components() == [[0], [1, 2], [3]]
    assert g.strong_components() == [[0], [1], [2], [3]]
    assert g.articulation_points() == []
    assert not g.has_edge(z, y) and not g.has_edge(-1, 0) and not g.has_edge(4, 0)
    assert components(g).weak_sizes == (2, 1, 1)


def test_census_against_networkx():
    nx = pytest.importorskip("networkx")
    n = 300
    rng = np.random.default_rng(5)
    y = (rng.random((n, n)) < 1.5 / n) & ~np.eye(n, dtype=bool)
    y[:10, :] = y[:, :10] = False    # 0-9 isolated
    y[:, 10:20] = False              # 10-19 source-only
    y[10:20, 100] = True
    y[20:30, :] = False              # 20-29 sinks
    y[200, 20:30] = True
    g = graph_from_matrix(y, ids=list(range(n)), rng=rng)
    src, dst, w = g.edge_arrays()
    d = nx.DiGraph()
    d.add_nodes_from(range(n))
    d.add_weighted_edges_from(zip(src.tolist(), dst.tolist(), w.tolist()))

    def ordered(comps):
        return sorted(sorted(c) for c in comps)

    assert g.weak_components() == ordered(nx.weakly_connected_components(d))
    assert g.strong_components() == ordered(nx.strongly_connected_components(d))
    assert g.articulation_points() == sorted(nx.articulation_points(d.to_undirected()))
    assert legnet.reciprocity(g) == pytest.approx(nx.overall_reciprocity(d), rel=1e-12)
    assert g.out_degrees().tolist() == [d.out_degree(v) for v in range(n)]
    assert g.in_degrees().tolist() == [d.in_degree(v) for v in range(n)]
    np.testing.assert_allclose(g.out_strengths(),
                               [d.out_degree(v, weight="weight") for v in range(n)],
                               rtol=1e-12)
    # the graph has every kind of node the census must handle
    outd, ind = g.out_degrees(), g.in_degrees()
    assert np.any((outd == 0) & (ind == 0))
    assert np.any((outd > 0) & (ind == 0)) and np.any((outd == 0) & (ind > 0))
    assert len(g.weak_components()) > 10 and g.articulation_points()
