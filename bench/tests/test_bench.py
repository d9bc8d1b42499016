"""Tests of the benchmark's own oracles, input generator and metric names.

    python3 -m pytest bench/tests

The closed-form dyad-census fits are checked against brute-force
enumeration of every digraph on four nodes; ICL and the partition
scores against legnet's implementations on toy partitions.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

import gen
import oracles

N = 4
PAIRS = [(i, j) for i in range(N) for j in range(N) if i != j]


def _stats(edges: set) -> tuple[int, int]:
    mutual = sum(1 for i, j in edges if i < j and (j, i) in edges)
    return len(edges), mutual


ALL_STATS = np.asarray([_stats({p for p, bit in zip(PAIRS, bits) if bit})
                        for bits in itertools.product((0, 1), repeat=len(PAIRS))],
                       dtype=float)


def _enumerated_loglik(theta, observed) -> float:
    return float(np.dot(theta, observed) - logsumexp(ALL_STATS[:, :len(theta)] @ theta))


def _enumerated_mean(theta) -> np.ndarray:
    logits = ALL_STATS[:, :len(theta)] @ theta
    w = np.exp(logits - logsumexp(logits))
    return w @ ALL_STATS[:, :len(theta)]


OBSERVED = [
    {(0, 1), (1, 0), (0, 2), (3, 1)},                  # 1 mutual, 2 asym, 3 null
    {(0, 1), (1, 0), (2, 3), (3, 2), (0, 3)},          # 2 mutual, 1 asym, 3 null
    {(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 0)},  # 1 mutual, 4 asym, 1 null
]


def _census(edges):
    src = np.asarray([i for i, _ in edges])
    dst = np.asarray([j for _, j in edges])
    return src, dst, oracles.dyad_census(N, src, dst)


@pytest.mark.parametrize("edges", OBSERVED)
def test_mutual_fit_is_the_enumerated_mle(edges):
    _, _, census = _census(edges)
    theta, ll = oracles.mutual_fit(*census)
    observed = np.asarray(_stats(edges), dtype=float)
    np.testing.assert_allclose(_enumerated_mean(theta), observed, atol=1e-9)
    assert ll == pytest.approx(_enumerated_loglik(theta, observed), abs=1e-9)
    for shift in ([0.3, 0.0], [0.0, -0.4], [-0.2, 0.5]):
        assert _enumerated_loglik(theta + shift, observed) < ll


@pytest.mark.parametrize("edges", OBSERVED)
def test_mutual_loglik_matches_enumeration_anywhere(edges):
    _, _, census = _census(edges)
    observed = np.asarray(_stats(edges), dtype=float)
    for theta in ([0.0, 0.0], [-1.3, 2.1], [0.7, -0.4]):
        assert oracles.mutual_loglik(theta, *census) == pytest.approx(
            _enumerated_loglik(np.asarray(theta), observed), abs=1e-9)


@pytest.mark.parametrize("edges", OBSERVED)
def test_edges_fit_is_the_enumerated_mle(edges):
    theta, ll = oracles.edges_fit(N, len(edges))
    observed = np.asarray([len(edges)], dtype=float)
    np.testing.assert_allclose(_enumerated_mean(theta), observed, atol=1e-9)
    assert ll == pytest.approx(_enumerated_loglik(theta, observed), abs=1e-9)


@pytest.mark.parametrize("edges", OBSERVED)
def test_pseudo_fit_matches_logistic_regression(edges):
    """Maximize the pseudo-log-likelihood directly over ordered pairs."""
    from scipy.optimize import minimize

    _, _, census = _census(edges)
    rows = [(1.0 if (i, j) in edges else 0.0, 1.0 if (j, i) in edges else 0.0)
            for i, j in PAIRS]
    y = np.asarray([r[0] for r in rows])
    x = np.asarray([[1.0, r[1]] for r in rows])

    def negll(theta):
        eta = x @ theta
        return -(y @ eta - np.logaddexp(0.0, eta).sum())

    best = minimize(negll, np.zeros(2), method="BFGS", options={"gtol": 1e-10})
    theta, ll = oracles.mutual_pseudo_fit(*census)
    np.testing.assert_allclose(theta, best.x, atol=1e-5)
    assert ll == pytest.approx(-best.fun, abs=1e-8)


def test_icl_matches_legnet_on_toy_partitions():
    import legnet

    rng = np.random.default_rng(3)
    y = (rng.random((12, 12)) < 0.35).astype(float)
    np.fill_diagonal(y, 0.0)
    for labels in ([0] * 12, [0, 1] * 6, list(rng.integers(3, size=12)),
                   ["a", "b", "b", "c"] * 3, list(range(12))):
        assert oracles.icl(y, labels) == pytest.approx(
            legnet.classification_icl(y, labels), rel=1e-12)


def test_pair_scores_match_legnet():
    import legnet

    rng = np.random.default_rng(5)
    cases = [(list(rng.integers(3, size=20)), list(rng.integers(2, size=20))),
             ([0] * 10, [1] * 10), ([0] * 10, [0, 1] * 5),
             (list("aabbccdd"), list("xxyyzzww"))]
    for a, b in cases:
        rand, ari, nmi = oracles.pair_scores(a, b)
        assert rand == pytest.approx(legnet.rand_index(a, b), abs=1e-12)
        assert ari == pytest.approx(legnet.adjusted_rand(a, b), abs=1e-12)
        assert nmi == pytest.approx(legnet.nmi(a, b), abs=1e-12)


def test_networkx_centrality_follows_legnet_conventions():
    import legnet

    rng = np.random.default_rng(7)
    y = rng.random((15, 15)) < 0.2
    np.fill_diagonal(y, False)
    y[4, :] = False  # a node with nothing reachable
    src, dst = np.nonzero(y)
    close, between = oracles.networkx_centrality(15, src, dst)
    graph = legnet.Graph([(int(i), int(j), 1.0) for i, j in zip(src, dst)],
                         nodes=list(range(15)))
    np.testing.assert_allclose(close, legnet.closeness(graph), atol=1e-12)
    np.testing.assert_allclose(between, legnet.betweenness(graph), atol=1e-12)
    assert math.isnan(close[4])


def test_generator_is_seeded_and_on_target(tmp_path):
    first = gen.generate(5, tmp_path / "a", ("congress", "sparse"))
    gen.generate(5, tmp_path / "b", ("congress", "sparse"))
    other = gen.generate(6, tmp_path / "c", ("congress",))
    for name in ("congress_edges.csv", "congress_attrs.csv", "sparse_edges.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert ((tmp_path / "a" / "congress_edges.csv").read_bytes()
            != (tmp_path / "c" / "congress_edges.csv").read_bytes())
    for shape, census in first.items():
        assert census.misses(gen.SHAPES[shape]) == []
    assert other["congress"].edges == first["congress"].edges


def test_generator_redraws_a_graph_that_misses_its_target(tmp_path):
    target = gen.SHAPES["congress"]
    src, dst, *_ = gen.congress_graph(10, target, draw=0)
    assert gen.census(target.n, src, dst).misses(target)  # seed 10's first draw misses
    censuses = gen.generate(10, tmp_path, ("congress",))
    assert censuses["congress"].misses(target) == []


def test_generator_fails_when_every_draw_misses(tmp_path, monkeypatch):
    monkeypatch.setitem(gen.SHAPES, "chamber",
                        gen.Target(n=160, edges=1503, reciprocity=0.46, max_out=5))
    with pytest.raises(ValueError, match="off target in all"):
        gen.generate(1, tmp_path, ("chamber",))


def test_census_reports_misses():
    census = gen.Census(n=10, edges=50, reciprocity=0.1, max_out=9, max_in=9,
                        min_out=0, mean_geodesic=2.0)
    misses = census.misses(gen.Target(n=10, edges=20, reciprocity=0.5))
    assert any("edges" in m for m in misses)
    assert any("reciprocity" in m for m in misses)
    assert any("out-tie" in m for m in misses)


def test_benchmark_json_names_match_the_code():
    import json
    from pathlib import Path

    import run
    import tracing

    bench = json.loads((Path(gen.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    measured = set(tracing.Tracer().metrics(run=0)) | {
        "pipeline.files_written", "pipeline.bytes_written",
        "ergm.mcmle.ll_error_nats", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == measured


def _toy_graph():
    import legnet

    rng = np.random.default_rng(11)
    y = rng.random((20, 20)) < 0.25
    np.fill_diagonal(y, False)
    src, dst = np.nonzero(y)
    return legnet.Graph([(int(i), int(j), 0.5) for i, j in zip(src, dst)],
                        nodes=list(range(20)))


def test_tracer_records_nested_spans_and_restores_names():
    import legnet.pipeline
    import legnet.sbm
    import tracing

    original = legnet.sbm.fit_q
    tracer = tracing.Tracer()
    tracer.run = 1
    tracer.install()
    try:
        legnet.pipeline.select_q(_toy_graph(), range(1, 4), restarts=1, seed=0)
    finally:
        tracer.uninstall()
    assert legnet.sbm.fit_q is original
    assert tracer.missing == {}
    m = tracer.metrics(run=1)
    assert m["sbm.fit_q_calls"] == 3
    assert m["graph.adjacency_calls"] == 3
    select = [s for s in tracer.spans if s.name == "sbm.select_q"]
    assert len(select) == 1
    assert {s.parent for s in tracer.spans if s.name == "sbm.fit_q"} == {select[0].id}
    assert 0.0 <= m["sbm.fit_q_max_s"] <= m["sbm.select_q_s"]


def _missing_after_install(monkeypatch, module, attr) -> tuple[dict, set]:
    """(tracer.missing, metrics left out) once `module.attr` is gone."""
    import tracing

    monkeypatch.delattr(module, attr)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    every = set(tracing.Tracer().metrics(run=0))
    return tracer.missing, every - set(tracer.metrics(run=0))


def test_tracer_reports_a_vanished_name_as_missing(monkeypatch):
    import legnet.sbm

    missing, gone = _missing_after_install(monkeypatch, legnet.sbm, "classification_icl")
    assert missing == {"legnet.sbm.classification_icl": "sbm.icl"}
    assert gone == {"sbm.icl_s"}


def test_a_vanished_pipeline_import_leaves_its_metrics_missing(monkeypatch):
    import legnet.pipeline

    missing, gone = _missing_after_install(monkeypatch, legnet.pipeline, "graphml_dump")
    assert missing == {"legnet.pipeline.graphml_dump": "io.export"}
    assert gone == {"io.export_s"}

    monkeypatch.undo()
    _, gone = _missing_after_install(monkeypatch, legnet.pipeline, "fit_exact_dyad")
    assert gone == {"ergm.fit.exact_s", "ergm.fit.newton_iters", "ergm.fit.fits",
                    "ergm.fit.failed"}
