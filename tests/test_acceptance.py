"""Acceptance gate.

One test per published criterion; `pytest -v` prints one pass/fail/skip
line for each. Criteria that need the interaction dataset (and, where
marked, the hand-compiled attribute table) skip with a notice telling
the operator what to supply. Tolerances are pinned here and nowhere
else. The census and clique timing gates also run, next to the dataset
tests, on the benchmark generator's graph of the published size, so
they run without the dataset.

Named-node checks compare against normalized node ids, accepting both
official Twitter handles and plain-name ids.
"""

import math
import re
import time

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph
from scipy.special import expit

import legnet
from legnet import (adjusted_rand, assortativity_report, centrality_report,
                    classification_icl, compare_models, components, density,
                    fit_exact_dyad, fit_mcmle, fit_mple, fit_q,
                    maximal_cliques, nmi, rand_index, reciprocity,
                    select_q, triad_closure)
from legnet.attributes import subgraph_by_level
from legnet.config import build_model
from legnet.ergm import Edges, ErgmSpec, McmleControl, Mutual
from legnet.ergm.fit import expected_statistics

from conftest import (graph_from_matrix, matrix_of, oracle_ari, oracle_nmi, oracle_rand,
                      oracle_statistics, random_digraph, set_partitions,
                      write_toy)

# -- named-node resolution -------------------------------------------------

_ALIASES = {
    "don beyer": {"repdonbeyer", "dondbeyer", "donbeyer", "donaldbeyer"},
    "kevin mccarthy": {"gopleader", "kevinmccarthy", "speakermccarthy",
                       "repkevinmccarthy"},
    "bob good": {"repbobgood", "bobgood", "robertgood"},
    "ben cline": {"repbencline", "bencline", "benjamincline"},
}


def _norm(node_id) -> str:
    return re.sub(r"[^a-z0-9]", "", str(node_id).lower())


def _index_of_person(graph, person: str) -> int:
    wanted = _ALIASES[person]
    for idx, node in enumerate(graph.node_ids):
        if _norm(node) in wanted:
            return idx
    pytest.fail(f"no node id matches {person!r}; ids look like "
                f"{list(graph.node_ids[:3])!r}")


# -- 1: census --------------------------------------------------------------


def test_criterion_01_dataset_census(congress_graph):
    start = time.perf_counter()
    report = components(congress_graph)
    elapsed = time.perf_counter() - start
    assert congress_graph.n == 475
    assert congress_graph.edge_count == 13289
    assert len(report.weak_sizes) == 1
    assert report.articulation_points == ()
    assert not report.is_strongly_connected
    assert elapsed < 1.0


def test_criterion_01_census_gate_at_published_scale(published_graph):
    # the timing gate above, on the generator's graph of the published size
    graph, census = published_graph
    start = time.perf_counter()
    report = components(graph)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert (graph.n, graph.edge_count) == (census.n, census.edges) == (475, 13_300)
    assert reciprocity(graph) == pytest.approx(census.reciprocity, rel=1e-12)
    out_deg = graph.out_degrees()
    assert (int(out_deg.max()), int(graph.in_degrees().max()), int(out_deg.min())) == (
        census.max_out, census.max_in, census.min_out)
    y = sparse.csr_array(matrix_of(graph))
    for connection, sizes in (("weak", report.weak_sizes), ("strong", report.strong_sizes)):
        _, labels = csgraph.connected_components(y, connection=connection)
        assert sorted(sizes) == sorted(np.bincount(labels).tolist()), connection
    assert report.is_strongly_connected == (len(report.strong_sizes) == 1)


# -- 2: degrees and strength -------------------------------------------------


def test_criterion_02_degrees_and_strength(congress_graph):
    g = congress_graph
    assert int(g.in_degrees().max()) == 127
    assert int(g.out_degrees().max()) == 210
    assert int(g.out_degrees().min()) == 1
    assert int(g.in_degrees().min()) == 0
    strength = g.out_strengths()
    assert strength.mean() == pytest.approx(0.163, abs=1e-3)
    assert strength.std() == pytest.approx(0.126, abs=1e-3)
    assert strength.min() == pytest.approx(0.002, abs=1e-3)
    assert strength.max() == pytest.approx(0.944, abs=1e-3)


# -- 3: density family --------------------------------------------------------


def test_criterion_03_density_and_reciprocity(congress_graph):
    assert density(congress_graph) == pytest.approx(0.059, abs=5e-4)
    assert reciprocity(congress_graph) == pytest.approx(0.4615, abs=2e-3)


def test_criterion_03_subgroup_densities(congress_graph, congress_attrs):
    expected = {("party", "Republican"): 0.105, ("party", "Democrat"): 0.093,
                ("chamber", "Senate"): 0.187, ("chamber", "House"): 0.069}
    for (column, level), target in expected.items():
        sub = subgraph_by_level(congress_graph, congress_attrs, column, level)
        assert density(sub) == pytest.approx(target, abs=1e-3), (column, level)


# -- 4: triads ----------------------------------------------------------------


def test_criterion_04_triad_closure(congress_graph):
    report = triad_closure(congress_graph)
    both = sorted([report.transitivity, report.mean_local_clustering])
    assert both[0] == pytest.approx(0.2695, abs=3e-3)
    assert both[1] == pytest.approx(0.2797, abs=3e-3)
    local = report.local_clustering
    assert np.nanmax(local) == pytest.approx(0.600, abs=5e-3)
    cline = _index_of_person(congress_graph, "ben cline")
    assert local[cline] == pytest.approx(0.591, abs=5e-3)


# -- 5: cliques ---------------------------------------------------------------


def test_criterion_05_maximal_cliques(congress_graph):
    start = time.perf_counter()
    cliques = maximal_cliques(congress_graph, min_size=13)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    sizes = [len(c) for c in cliques]
    assert max(sizes) == 13
    assert sizes.count(13) == 6
    assert len(sizes) == 6


def _undirected(graph):
    y = matrix_of(graph)
    return y | y.T


def test_criterion_05_clique_gate_at_published_scale(published_graph):
    # the timing gate above, on the generator's graph of the published size
    graph, _ = published_graph
    start = time.perf_counter()
    cliques = maximal_cliques(graph)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert len(set(cliques)) == len(cliques) > 0
    # each is a clique, and no other node is adjacent to all of its members
    b = _undirected(graph)
    np.fill_diagonal(b, True)
    for clique in cliques:
        members = list(clique)
        assert b[np.ix_(members, members)].all()
        assert np.count_nonzero(b[:, members].all(axis=1)) == len(members)


def test_criterion_05_cliques_match_networkx_at_published_scale(published_graph):
    nx = pytest.importorskip("networkx")
    graph, _ = published_graph
    want = {tuple(sorted(c)) for c in nx.find_cliques(nx.from_numpy_array(_undirected(graph)))}
    assert set(maximal_cliques(graph)) == want


# -- 6: centrality spot values --------------------------------------------------


def test_criterion_06_centrality_spots(congress_graph, congress_centrality):
    cent = congress_centrality
    btw = np.asarray(cent.betweenness)
    beyer = _index_of_person(congress_graph, "don beyer")
    assert int(btw.argmax()) == beyer
    assert btw.max() == pytest.approx(0.085, abs=2e-3)
    close = np.asarray(cent.closeness)
    finite = close[np.isfinite(close)]
    assert finite.min() == pytest.approx(0.162, abs=5e-3)
    assert finite.max() == pytest.approx(1.000, abs=5e-3)
    eig = np.asarray(cent.eigen)
    mccarthy = _index_of_person(congress_graph, "kevin mccarthy")
    assert int(eig.argmax()) == mccarthy
    assert eig.max() == pytest.approx(1.000, abs=1e-9)
    assert int(np.asarray(cent.authority).argmax()) == mccarthy
    good = _index_of_person(congress_graph, "bob good")
    assert int(np.asarray(cent.hub).argmax()) == good


# -- 7: assortativity -----------------------------------------------------------


def test_criterion_07_assortativity(congress_graph, congress_attrs,
                                    congress_centrality):
    rows = {name: coeff for name, _, coeff in
            assortativity_report(congress_graph, congress_attrs,
                                 congress_centrality)}
    for name, target in (("party", 0.647), ("chamber", 0.597),
                         ("religion", 0.080), ("age", 0.101),
                         ("tenure", 0.157)):
        assert rows[name] == pytest.approx(target, abs=0.01), name
    for name, target in (("eigen", 0.371), ("hub", 0.414),
                         ("out_degree", -0.025)):
        assert rows[name] == pytest.approx(target, abs=0.02), name


# -- 8: exact and pseudolikelihood fits ------------------------------------------


def test_criterion_08_exact_dyad_fits(congress_graph):
    g = congress_graph
    m1 = fit_exact_dyad(g, ErgmSpec([Edges()]))
    logit_density = math.log(density(g) / (1.0 - density(g)))
    assert m1.theta[0] == pytest.approx(logit_density, abs=1e-9)
    assert m1.theta[0] == pytest.approx(-2.769, abs=2e-3)
    m2 = fit_exact_dyad(g, ErgmSpec([Edges(), Mutual()]))
    assert m2.theta[0] == pytest.approx(-3.354, abs=0.01)
    assert m2.theta[1] == pytest.approx(3.198, abs=0.01)


def test_criterion_08_mple_equals_exact_mle():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n = int(rng.integers(5, 9))
        y = rng.random((n, n)) < rng.uniform(0.15, 0.5)
        np.fill_diagonal(y, False)
        g = graph_from_matrix(y, rng=rng)
        cov = tuple(rng.normal(size=n))
        spec = ErgmSpec([Edges(),
                         legnet.NodeCovariate("x", cov, "sender")])
        exact = fit_exact_dyad(g, spec)
        mple = fit_mple(g, spec)
        if exact.separation.any():
            continue
        np.testing.assert_allclose(mple.theta, exact.theta, atol=1e-6)


# -- 9: stochastic fit of the full model ------------------------------------------

_MODEL6_TARGETS = {
    "edges": -7.290,
    "mutual": 2.251,
    "receiver(in_degree)": 0.013,
    "sender(out_degree)": 0.009,
    "sum(closeness)": 1.039,
    "sum(betweenness)": -9.709,
    "sender(hub)": 0.275,
    "match(party=Democrat)": 1.499,
    "match(party=Republican)": 1.555,
    "match(chamber=Senate)": 1.991,
    "match(chamber=House)": 0.908,
}


def _independent_reassignment(attrs) -> dict:
    mapping = {}
    for idx, node in enumerate(attrs.node_ids):
        party = attrs.categorical("party")[idx]
        if party in ("Democrat", "Republican"):
            continue
        normed = _norm(node)
        target = "Republican" if ("jenniffer" in normed or "gonzalez" in normed
                                  ) else "Democrat"
        mapping[node] = target
    return mapping


def test_criterion_09_mcmle_model6(congress_graph, congress_attrs,
                                   congress_centrality):
    g = congress_graph
    reassign = _independent_reassignment(congress_attrs)
    spec6 = build_model("model6", g, congress_attrs, congress_centrality,
                        party_reassignment=reassign)
    fit6 = fit_mcmle(g, spec6, McmleControl(seed=0))
    by_label = dict(zip(fit6.labels, range(len(fit6.labels))))
    for label, target in _MODEL6_TARGETS.items():
        k = by_label[label]
        tol = max(0.1, 3.0 * fit6.std_err[k])
        assert fit6.theta[k] == pytest.approx(target, abs=tol), label
        assert math.copysign(1, fit6.theta[k]) == math.copysign(1, target), label
        assert fit6.p_values[k] < 0.05, label
    spec3 = build_model("model3", g, None, congress_centrality)
    fit3 = fit_exact_dyad(g, spec3)
    fit1 = fit_exact_dyad(g, ErgmSpec([Edges()]))
    rows = compare_models([("model1", fit1), ("model3", fit3),
                           ("model6", fit6)])
    aic = {r["model"]: r["aic"] for r in rows}
    assert aic["model6"] < aic["model3"] < aic["model1"]
    cuts = {r["model"]: r["aic_reduction_pct"] for r in rows}
    assert cuts["model6"] == pytest.approx(25.0, abs=2.0)
    assert cuts["model3"] == pytest.approx(16.0, abs=2.0)


# -- 10/11: blockmodel and agreement ----------------------------------------------


@pytest.fixture(scope="session")
def congress_sbm(congress_graph):
    best, curve = select_q(congress_graph, range(1, 21), restarts=10, seed=0)
    return best, curve


def test_criterion_10_sbm_selection(congress_sbm):
    best, curve = congress_sbm
    assert 11 <= best.q <= 13
    diag = np.sort(np.diag(best.pi))[::-1]
    assert diag[0] >= 0.55
    assert diag[1] >= 0.55
    sizes = np.sort(np.bincount(best.labels, minlength=best.q))[::-1]
    assert sizes[:3].sum() > 0.5 * best.labels.shape[0]


def test_criterion_11_partition_agreement(congress_sbm, congress_attrs):
    best, _ = congress_sbm
    found = list(best.labels)
    targets = {
        "party": (0.615, 0.220, 0.359),
        "chamber": (0.438, 0.122, 0.345),
    }
    for column, (rand_t, ari_t, nmi_t) in targets.items():
        truth = list(congress_attrs.categorical(column))
        assert rand_index(found, truth) == pytest.approx(rand_t, abs=0.05), column
        assert adjusted_rand(found, truth) == pytest.approx(ari_t, abs=0.05), column
        assert nmi(found, truth) == pytest.approx(
            nmi_t, abs=0.06), column


# -- 12: always-on property battery ------------------------------------------------


def test_criterion_12_property_suite(tmp_path):
    rng = np.random.default_rng(7)

    # change statistics match brute-force toggling
    g = random_digraph(6, 0.4, seed=3, mutual_boost=0.4)
    cov = tuple(rng.normal(size=6))
    labels = tuple(rng.choice(["A", "B"], size=6))
    spec = ErgmSpec([Edges(), Mutual(),
                     legnet.NodeCovariate("x", cov, "sum"),
                     legnet.NodeMatch("grp", labels),
                     legnet.AbsDiff("x", cov)])
    terms = [("edges",), ("mutual",), ("cov", np.asarray(cov), "sum"),
             ("match", labels, None), ("absdiff", np.asarray(cov))]
    y = g.adjacency(weighted=False).astype(bool)
    design = legnet.ergm.DyadDesign.from_graph(g, spec)
    base = oracle_statistics(y, terms)
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            flipped = y.copy()
            flipped[i, j] = not flipped[i, j]
            sign = 1.0 if flipped[i, j] else -1.0
            delta = sign * (oracle_statistics(flipped, terms) - base)
            np.testing.assert_allclose(
                design.change_statistic(i, j), delta, atol=1e-12)

    # exact MLE satisfies the moment condition
    fit = fit_exact_dyad(g, ErgmSpec([Edges(), Mutual()]))
    observed = legnet.ergm.DyadDesign.from_graph(
        g, ErgmSpec([Edges(), Mutual()])).statistics()
    mean = expected_statistics(g, ErgmSpec([Edges(), Mutual()]),
                               np.asarray(fit.theta))
    np.testing.assert_allclose(mean, observed, atol=1e-6)

    # variational bound is monotone and the one-class fit is closed form
    y30 = (np.random.default_rng(11).random((30, 30)) < 0.12)
    np.fill_diagonal(y30, False)
    sbm = fit_q(y30.astype(np.int8), 3, seed=2)
    assert np.all(np.diff(sbm.elbo_trace) >= -1e-7)
    m, d = float(y30.sum()), 30 * 29
    one = fit_q(y30.astype(np.int8), 1, seed=0)
    assert one.pi[0, 0] == pytest.approx(m / d)
    assert one.icl == pytest.approx(classification_icl(y30.astype(np.int8),
                                                       np.zeros(30, int)))

    # planted caucuses are recovered exactly
    truth = np.repeat(np.arange(3), 15)
    prob = np.where(truth[:, None] == truth[None, :], 0.45, 0.04)
    yp = np.random.default_rng(5).random((45, 45)) < prob
    np.fill_diagonal(yp, False)
    planted_fit = fit_q(yp.astype(np.int8), 3, seed=1, restarts=8)
    assert adjusted_rand(planted_fit.labels.tolist(), truth.tolist()) == 1.0

    # agreement scores equal pair-counting oracles on n=6
    parts = list(set_partitions(6))
    picks = rng.choice(len(parts), size=24, replace=False)
    for a_i, b_i in zip(picks[:12], picks[12:]):
        a, b = list(parts[a_i]), list(parts[b_i])
        assert rand_index(a, b) == pytest.approx(oracle_rand(a, b))
        assert adjusted_rand(a, b) == pytest.approx(oracle_ari(a, b))
        assert nmi(a, b) == pytest.approx(
            oracle_nmi(a, b))

    # permutation invariance of whole-graph scores
    perm = rng.permutation(8)
    y8 = (np.random.default_rng(9).random((8, 8)) < 0.35)
    np.fill_diagonal(y8, False)
    g1 = graph_from_matrix(y8)
    g2 = graph_from_matrix(y8[np.ix_(perm, perm)])
    assert density(g1) == pytest.approx(density(g2))
    assert reciprocity(g1) == pytest.approx(reciprocity(g2))
    assert triad_closure(g1).transitivity == pytest.approx(
        triad_closure(g2).transitivity)
    lab = ["A", "A", "B", "B", "A", "B", "A", "B"]
    assert legnet.assortativity_categorical(g1, lab) == pytest.approx(
        legnet.assortativity_categorical(g2, [lab[i] for i in perm]))

    # a seeded end-to-end run is byte-reproducible
    src = tmp_path / "src"
    src.mkdir()
    epath, apath = write_toy(src)
    outs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        config = legnet.config_from_dict({
            "edges": str(epath), "attrs": str(apath), "out": str(out),
            "seed": 13, "models": ["model1", "model2"],
            "sbm": {"q_range": [1, 3], "restarts": 2},
        })
        manifest = legnet.Pipeline(config).run()
        outs.append((out, manifest))
    (out_a, man_a), (out_b, man_b) = outs
    assert man_a["outputs"] == man_b["outputs"]
    for name in man_a["outputs"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
