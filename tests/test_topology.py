"""Centrality, cohesion, cliques, and assortativity against oracles."""

import math

import numpy as np
import pytest

import legnet
from legnet import DataError, EstimationError, Graph

from conftest import (graph_from_matrix, matrix_of, oracle_closeness,
                      oracle_betweenness, oracle_eigen, oracle_hits,
                      oracle_local_clustering, oracle_maximal_cliques,
                      oracle_triangle_ratio, random_digraph)


def test_degree_strength_matches_manual_sums():
    g = random_digraph(10, p=0.3, seed=1)
    indeg, outdeg, strength = g.in_degrees(), g.out_degrees(), g.out_strengths()
    a = g.adjacency(weighted=True)
    assert np.array_equal(indeg, (a > 0).sum(axis=0))
    assert np.array_equal(outdeg, (a > 0).sum(axis=1))
    assert np.allclose(strength, a.sum(axis=1))


def test_closeness_matches_enumeration():
    for seed in range(5):
        g = random_digraph(8, p=0.25, seed=seed + 10)
        expected = oracle_closeness(matrix_of(g))
        got = legnet.closeness(g)
        assert np.allclose(got, expected, equal_nan=True)


def test_closeness_unreachable_is_nan():
    g = Graph([("a", "b", 0.5), ("c", "a", 0.5)])
    got = legnet.closeness(g)
    # b has no outgoing edges at all
    assert math.isnan(got[g.index_of("b")])
    assert got[g.index_of("c")] == pytest.approx(2 / 3)


def test_closeness_incoming_mode():
    g = Graph([("a", "b", 0.5), ("c", "b", 0.5)])
    got = legnet.closeness(g, mode="in")
    assert got[g.index_of("b")] == pytest.approx(1.0)
    assert math.isnan(got[g.index_of("a")])


def test_betweenness_matches_enumeration():
    for seed in range(5):
        g = random_digraph(6, p=0.35, seed=seed + 3)
        expected = oracle_betweenness(matrix_of(g))
        got = legnet.betweenness(g)
        assert np.allclose(got, expected)


def test_betweenness_directed_chain():
    g = Graph([("a", "b", 0.5), ("b", "c", 0.5)])
    got = legnet.betweenness(g)
    assert got[g.index_of("b")] == pytest.approx(0.5)
    assert got[g.index_of("a")] == 0.0


def test_betweenness_needs_three_nodes():
    with pytest.raises(DataError):
        legnet.betweenness(Graph([("a", "b", 0.5)]))


def test_path_scores_block_size_invariant(monkeypatch):
    from legnet import topology
    g = random_digraph(40, p=0.08, seed=8)
    whole = legnet.betweenness(g), legnet.closeness(g, "out"), legnet.closeness(g, "in")
    for block in (1, 7, 39, 40):
        monkeypatch.setattr(topology, "_BLOCK", block)
        between = legnet.betweenness(g)
        assert np.allclose(between, whole[0], rtol=1e-12, atol=0.0)
        assert np.array_equal(legnet.closeness(g, "out"), whole[1], equal_nan=True)
        assert np.array_equal(legnet.closeness(g, "in"), whole[2], equal_nan=True)
        # the report reads the same sweep as the standalone scores
        rep = legnet.centrality_report(g)
        assert np.array_equal(rep.betweenness, between)
        assert np.array_equal(rep.closeness, whole[1], equal_nan=True)


def test_centrality_report_sweeps_the_sources_once(monkeypatch):
    from legnet import topology
    real_geodesics = topology._geodesics
    calls = []

    def counted(graph, mode="out"):
        calls.append(mode)
        return real_geodesics(graph, mode)

    monkeypatch.setattr(topology, "_geodesics", counted)
    # 150 sources make three blocks of the one sweep
    legnet.centrality_report(random_digraph(150, p=0.05, seed=9))
    assert calls == ["out"]


def test_path_scores_match_networkx():
    nx = pytest.importorskip("networkx")
    n = 220
    rng = np.random.default_rng(31)
    y = (rng.random((n, n)) < 0.025) & ~np.eye(n, dtype=bool)
    sink, source, a, b = 0, 1, 2, 3
    y[sink, :] = False
    y[:, source] = False
    # a -> b is a pair cut off from everything else
    y[[a, b], :] = False
    y[:, [a, b]] = False
    y[a, b] = True
    assert y[:, sink].any() and y[source, :].any()
    g = graph_from_matrix(y)
    d = nx.DiGraph()
    d.add_nodes_from(range(n))
    d.add_edges_from(zip(*np.nonzero(y)))

    def nx_closeness(graph):
        # networkx scores distances *to* a node and gives 0 to nodes with
        # nothing reachable; legnet gives NaN there
        close = nx.closeness_centrality(graph, wf_improved=False)
        return np.asarray([close[i] or np.nan for i in range(n)])

    out_close = legnet.closeness(g, mode="out")
    in_close = legnet.closeness(g, mode="in")
    assert np.allclose(out_close, nx_closeness(d.reverse(copy=True)),
                       rtol=1e-9, atol=0.0, equal_nan=True)
    assert np.allclose(in_close, nx_closeness(d), rtol=1e-9, atol=0.0, equal_nan=True)
    assert np.isnan(out_close[[sink, b]]).all() and np.isnan(in_close[[source, a]]).all()
    assert out_close[a] == 1.0 and in_close[b] == 1.0
    between = nx.betweenness_centrality(d, normalized=True)
    assert np.allclose(legnet.betweenness(g), [between[i] for i in range(n)],
                       rtol=1e-9, atol=1e-15)


def test_report_path_scores_match_networkx_at_published_density():
    # n and density of the published congress graph: geodesics of 2-3
    # levels, so each block of sources meets most nodes at every level
    nx = pytest.importorskip("networkx")
    n = 475
    g = random_digraph(n, p=0.059, seed=47)
    d = nx.DiGraph()
    d.add_nodes_from(range(n))
    d.add_edges_from(zip(*np.nonzero(matrix_of(g))))
    rep = legnet.centrality_report(g)
    close = nx.closeness_centrality(d.reverse(copy=True), wf_improved=False)
    assert np.allclose(rep.closeness, [close[i] or np.nan for i in range(n)],
                       rtol=1e-9, atol=0.0, equal_nan=True)
    between = nx.betweenness_centrality(d, normalized=True)
    assert np.allclose(rep.betweenness, [between[i] for i in range(n)],
                       rtol=1e-9, atol=1e-15)


def test_eigen_matches_dense_eigensolver():
    for seed in range(4):
        g = random_digraph(12, p=0.3, seed=seed + 21)
        got = legnet.eigen_centrality(g)
        assert np.allclose(got, oracle_eigen(matrix_of(g)), atol=1e-6)


def test_eigen_star_closed_form():
    g = Graph([("hub", "s1", 0.5), ("hub", "s2", 0.5), ("hub", "s3", 0.5)])
    got = legnet.eigen_centrality(g)
    assert got[g.index_of("hub")] == pytest.approx(1.0)
    for leaf in ("s1", "s2", "s3"):
        assert got[g.index_of(leaf)] == pytest.approx(1 / math.sqrt(3))


def test_eigen_handles_bipartite_projection():
    # even cycle: unshifted power iteration would oscillate
    g = Graph([("a", "b", 0.5), ("b", "c", 0.5), ("c", "d", 0.5),
               ("d", "a", 0.5)])
    got = legnet.eigen_centrality(g)
    assert np.allclose(got, 1.0)


def test_hits_matches_dense_eigensolver():
    for seed in range(4):
        g = random_digraph(12, p=0.3, seed=seed + 31)
        hub, authority = legnet.hits(g)
        ohub, oauth = oracle_hits(matrix_of(g))
        assert np.allclose(hub, ohub, atol=1e-6)
        assert np.allclose(authority, oauth, atol=1e-6)


@pytest.mark.parametrize("score", ["eigen centrality", "HITS"])
def test_power_iteration_out_of_steps_names_the_method(monkeypatch, score):
    monkeypatch.setattr(legnet.topology, "_POWER_MAX_ITER", 2)
    g = random_digraph(12, p=0.3, seed=31)
    call = legnet.eigen_centrality if score == "eigen centrality" else legnet.hits
    with pytest.raises(EstimationError, match=f"^{score} did not converge in 2 iterations"):
        call(g)


def test_hits_scores_isolated_nodes_sinks_and_sources():
    # s1, s2 only send, t1, t2 only receive, m does both, loner does neither
    g = Graph([("s1", "m", 0.5), ("s1", "t1", 1.0), ("s2", "t1", 0.25),
               ("m", "t2", 0.5), ("s2", "m", 1.0)], nodes=["s1", "s2", "m", "t1", "t2", "loner"])
    for weighted in (False, True):
        hub, authority = legnet.hits(g, weighted=weighted)
        assert np.isfinite(hub).all() and np.isfinite(authority).all()
        ohub, oauth = oracle_hits(g.adjacency(weighted=weighted))
        assert np.allclose(hub, ohub, atol=1e-6) and np.allclose(authority, oauth, atol=1e-6)
        no_out = g.out_degrees() == 0
        no_in = g.in_degrees() == 0
        assert (hub[no_out] == 0).all() and (hub[~no_out] > 0).all()
        assert (authority[no_in] == 0).all() and (authority[~no_in] > 0).all()
        assert hub.max() == 1.0 and authority.max() == 1.0


def test_density_and_reciprocity():
    g = Graph([("a", "b", 0.5), ("b", "a", 0.5), ("b", "c", 0.5),
               ("c", "d", 0.5)])
    assert legnet.density(g) == pytest.approx(4 / 12)
    assert legnet.reciprocity(g) == pytest.approx(0.5)


def test_triad_closure_matches_enumeration():
    for seed in range(5):
        g = random_digraph(9, p=0.3, seed=seed + 40)
        y = matrix_of(g)
        report = legnet.triad_closure(g)
        assert np.allclose(report.local_clustering, oracle_local_clustering(y),
                           equal_nan=True)
        assert report.transitivity == pytest.approx(oracle_triangle_ratio(y))
        assert report.mean_local_clustering == pytest.approx(
            np.nanmean(oracle_local_clustering(y)))


def test_triad_two_formulas_disagree_on_a_kite():
    # triangle plus pendant: neighborhood average weights the pendant path
    g = Graph([("a", "b", 0.5), ("b", "c", 0.5), ("c", "a", 0.5),
               ("c", "d", 0.5)])
    report = legnet.triad_closure(g)
    assert report.transitivity != pytest.approx(report.mean_local_clustering)


def test_maximal_cliques_match_enumeration():
    for seed in range(5):
        g = random_digraph(10, p=0.45, seed=seed + 60)
        got = legnet.maximal_cliques(g)
        assert [tuple(c) for c in got] == oracle_maximal_cliques(matrix_of(g))


def test_maximal_cliques_min_size_filter():
    g = random_digraph(10, p=0.45, seed=64)
    everything = legnet.maximal_cliques(g)
    big = legnet.maximal_cliques(g, min_size=3)
    assert big == [c for c in everything if len(c) >= 3]


def test_maximal_cliques_output_is_lexicographic():
    g = random_digraph(11, p=0.4, seed=66)
    cliques = legnet.maximal_cliques(g)
    assert cliques == sorted(cliques)
    assert all(list(c) == sorted(c) for c in cliques)


def test_categorical_assortativity_formula():
    g = Graph([("a", "b", 0.5), ("b", "a", 0.5), ("c", "d", 0.5),
               ("d", "c", 0.5), ("a", "c", 0.5)])
    labels = ["x", "x", "y", "y"]
    # by hand: trace 4/5; out margins (3/5, 2/5), in margins (2/5, 3/5)
    trace = 4 / 5
    chance = (3 / 5) * (2 / 5) + (2 / 5) * (3 / 5)
    expected = (trace - chance) / (1 - chance)
    assert expected == pytest.approx(8 / 13)
    assert legnet.assortativity_categorical(g, labels) == pytest.approx(expected)


def test_categorical_assortativity_perfect_and_degenerate():
    g = Graph([("a", "b", 0.5), ("b", "a", 0.5), ("c", "d", 0.5),
               ("d", "c", 0.5)])
    assert legnet.assortativity_categorical(g, ["x", "x", "y", "y"]) == 1.0
    # single level: margins degenerate, trace 1 -> +1 by convention
    assert legnet.assortativity_categorical(g, ["x", "x", "x", "x"]) == 1.0


def test_categorical_assortativity_label_permutation_invariant():
    g = random_digraph(12, p=0.3, seed=70)
    labels = [["p", "q", "r"][i % 3] for i in range(12)]
    renamed = [{"p": "z9", "q": "z1", "r": "z5"}[v] for v in labels]
    assert legnet.assortativity_categorical(g, labels) == pytest.approx(
        legnet.assortativity_categorical(g, renamed))


def test_scalar_assortativity_is_edge_endpoint_correlation():
    g = random_digraph(12, p=0.3, seed=75)
    rng = np.random.default_rng(0)
    vals = rng.uniform(0, 10, 12)
    src, dst, _ = g.edge_arrays()
    expected = np.corrcoef(vals[src], vals[dst])[0, 1]
    assert legnet.assortativity_scalar(g, vals) == pytest.approx(expected)


def test_scalar_assortativity_split_roles():
    g = random_digraph(12, p=0.3, seed=76)
    outd = g.out_degrees().astype(float)
    ind = g.in_degrees().astype(float)
    src, dst, _ = g.edge_arrays()
    expected = np.corrcoef(outd[src], ind[dst])[0, 1]
    got = legnet.assortativity_scalar(g, source_values=outd, target_values=ind)
    assert got == pytest.approx(expected)


def test_scalar_assortativity_undefined_cases():
    g = Graph([("a", "b", 0.5), ("b", "c", 0.5)])
    assert legnet.assortativity_scalar(g, [2.0, 2.0, 2.0]) is None
    # NaN-masking leaves a single edge -> undefined
    assert legnet.assortativity_scalar(g, [1.0, 2.0, float("nan")]) is None


def test_centrality_report_bundles_individual_scores():
    g = random_digraph(10, p=0.3, seed=80)
    rep = legnet.centrality_report(g)
    assert np.array_equal(rep.in_degree, g.in_degrees())
    assert np.allclose(rep.closeness, legnet.closeness(g), equal_nan=True)
    assert np.allclose(rep.betweenness, legnet.betweenness(g))
    assert np.allclose(rep.eigen, legnet.eigen_centrality(g))
    hub, authority = legnet.hits(g)
    assert np.allclose(rep.hub, hub)
    assert np.allclose(rep.authority, authority)
    with pytest.raises(DataError):
        rep.metric("pagerank")


def test_connectivity_report_keeps_only_max_cliques_by_default():
    g = random_digraph(10, p=0.45, seed=81)
    rep = legnet.connectivity_report(g)
    assert all(len(c) == rep.max_clique_size for c in rep.maximal_cliques)
    wide = legnet.connectivity_report(g, min_clique_size=2)
    assert len(wide.maximal_cliques) >= len(rep.maximal_cliques)


def test_assortativity_report_rows():
    g = random_digraph(8, p=0.4, seed=82)
    attrs = legnet.AttributeTable(
        g.node_ids, {"party": [["Blue", "Gold"][i % 2] for i in range(8)]},
        {"age": np.linspace(30, 70, 8)})
    rep = legnet.centrality_report(g)
    rows = legnet.assortativity_report(g, attrs, rep)
    kinds = {(name, kind) for name, kind, _ in rows}
    assert ("party", "categorical") in kinds
    assert ("age", "scalar") in kinds
    assert ("eigen", "structural") in kinds
    assert len(rows) == 2 + len(legnet.topology.STRUCTURAL_METRICS)
