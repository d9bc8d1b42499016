"""Model fitting against closed forms and a full-enumeration oracle."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import chi2, norm

import legnet
import legnet.ergm.fit as fit_module
from legnet import DataError, EstimationError, Graph
from legnet.ergm import (AbsDiff, DyadDesign, Edges, ErgmSpec, Mutual, NodeCovariate,
                         NodeMatch, SimControl, expected_statistics, fit_exact_dyad,
                         fit_mple, likelihood_ratio_test, report_effects,
                         sample_states)

from conftest import (enumerate_graphs, gen, graph_from_matrix, graph_with_a_sink,
                      matrix_of, oracle_mle, oracle_statistics, ordered_design_matrix,
                      random_digraph)


def logit(p):
    return math.log(p / (1 - p))


def test_edges_only_is_logit_density():
    for seed in range(5):
        g = random_digraph(12, p=0.35, seed=seed)
        fit = fit_exact_dyad(g, ErgmSpec([Edges()]))
        p = g.edge_count / (g.n * (g.n - 1))
        assert fit.theta[0] == pytest.approx(logit(p), abs=1e-8)


def test_single_edge_three_nodes():
    g = Graph([("a", "b", 0.9)], nodes=["a", "b", "c"])
    fit = fit_exact_dyad(g, ErgmSpec([Edges()]))
    assert fit.theta[0] == pytest.approx(logit(1 / 6), abs=1e-8)
    assert fit.n_obs == 6


def test_exact_fit_matches_enumeration_oracle():
    # each case pairs a spec with a graph whose statistics stay interior
    # (a statistic at an achievable extreme has no finite MLE)
    cases = [
        (np.array([[0, 1, 0], [1, 0, 0], [1, 0, 0]], bool),
         [Edges(), Mutual()],
         [("edges",), ("mutual",)]),
        (np.array([[0, 1, 1], [0, 0, 1], [0, 1, 0]], bool),
         [Edges(), NodeCovariate("x", (0.0, 1.0, 2.0), "sender")],
         [("edges",), ("cov", (0.0, 1.0, 2.0), "sender")]),
        (np.array([[0, 0, 0], [1, 0, 1], [1, 0, 0]], bool),
         [Edges(), NodeMatch("g", ("u", "u", "v"))],
         [("edges",), ("match", ("u", "u", "v"), None)]),
        (np.array([[0, 1, 1], [0, 0, 0], [1, 1, 0]], bool),
         [Edges(), AbsDiff("x", (0.0, 1.0, 3.0))],
         [("edges",), ("absdiff", (0.0, 1.0, 3.0))]),
    ]
    for y, spec_terms, oracle_terms in cases:
        g = graph_from_matrix(y)
        fit = fit_exact_dyad(g, ErgmSpec(spec_terms))
        theta_star, ll_star = oracle_mle(y, oracle_terms)
        assert not any(fit.separation), spec_terms
        assert np.allclose(fit.theta, theta_star, atol=1e-5), spec_terms
        assert fit.log_likelihood == pytest.approx(ll_star, abs=1e-6)


def test_exact_fit_matches_oracle_on_four_nodes():
    y = np.array([[0, 1, 1, 0],
                  [1, 0, 0, 0],
                  [0, 1, 0, 1],
                  [0, 0, 1, 0]], bool)
    g = graph_from_matrix(y)
    x = (0.5, 1.5, 0.25, 2.0)
    spec = ErgmSpec([Edges(), Mutual(), NodeCovariate("x", x, "sum")])
    fit = fit_exact_dyad(g, spec)
    theta_star, ll_star = oracle_mle(y, [("edges",), ("mutual",),
                                         ("cov", x, "sum")])
    assert np.allclose(fit.theta, theta_star, atol=1e-5)
    assert fit.log_likelihood == pytest.approx(ll_star, abs=1e-6)


def test_mle_moment_condition():
    for seed in range(4):
        g = random_digraph(10, p=0.3, seed=seed + 5, mutual_boost=0.4)
        rng = np.random.default_rng(seed)
        x = tuple(rng.uniform(0, 3, 10))
        lab = tuple(["u", "v"][i % 2] for i in range(10))
        spec = ErgmSpec([Edges(), Mutual(), NodeCovariate("x", x, "receiver"),
                         NodeMatch("g", lab)])
        fit = fit_exact_dyad(g, spec)
        mean = expected_statistics(g, spec, np.asarray(fit.theta))
        obs = DyadDesign.from_graph(g, spec).statistics()
        assert np.allclose(mean, obs, atol=1e-6)


def test_dyad_moments_match_enumeration():
    # every one of the 4^6 dyad states of a 4-node graph, one term of
    # each kind; the log normalizing constant, mean and covariance of g
    from legnet.ergm import DyadDesign
    from legnet.ergm.fit import _dyad_moments

    n = 4
    rng = np.random.default_rng(3)
    x, z = tuple(rng.uniform(0, 2, n)), tuple(rng.uniform(0, 2, n))
    lab = ("u", "v", "u", "v")
    spec = ErgmSpec([Edges(), Mutual(), NodeCovariate("x", x, "sender"),
                     NodeCovariate("x", x, "receiver"), NodeCovariate("z", z, "sum"),
                     NodeMatch("g", lab), NodeMatch("g", lab, level="v"),
                     AbsDiff("z", z)])
    terms = [("edges",), ("mutual",), ("cov", x, "sender"), ("cov", x, "receiver"),
             ("cov", z, "sum"), ("match", lab, None), ("match", lab, "v"),
             ("absdiff", z)]
    stats = np.array([oracle_statistics(y, terms) for y in enumerate_graphs(n)])
    assert stats.shape == (4 ** 6, spec.k)
    design = DyadDesign(n, spec)
    thetas = [rng.uniform(-1, 1, spec.k),
              # near the separation bound the per-dyad max-shift carries
              # the weights, and most states are near certainty
              np.array([24.6, -24.9, 0.3, -0.2, 0.1, -24.7, 0.4, -0.3]),
              np.array([-24.8, 24.9, -0.1, 0.2, -0.4, 24.5, -24.6, 0.2])]
    for theta in thetas:
        a = stats @ theta
        top = int(a.argmax())
        w = np.exp(a - a[top])
        # moments about the most likely state's statistic: no cancellation
        d = stats - stats[top]
        total = 1.0 + np.delete(w, top).sum()
        shift = (w @ d) / total
        want_cov = d.T @ (w[:, None] * d) / total - np.outer(shift, shift)
        want_log_kappa = a[top] + math.log1p(np.delete(w, top).sum())
        log_kappa, mean, cov = _dyad_moments(design, theta)
        assert log_kappa == pytest.approx(want_log_kappa, rel=1e-12, abs=0)
        assert np.allclose(mean, stats[top] + shift, rtol=1e-12, atol=0)
        # covariances against the scale of their two variances
        scale = np.sqrt(np.outer(np.diag(want_cov), np.diag(want_cov)))
        assert np.all(np.abs(cov - want_cov) <= 1e-12 * scale)


def test_mple_equals_exact_for_dyad_independent_models():
    rng = np.random.default_rng(123)
    for trial in range(50):
        n = int(rng.integers(6, 12))
        g = random_digraph(n, p=float(rng.uniform(0.15, 0.5)),
                           seed=int(rng.integers(1 << 30)))
        x = tuple(rng.uniform(0, 2, n))
        lab = tuple(["u", "v", "w"][i % 3] for i in range(n))
        spec = ErgmSpec([Edges(), NodeCovariate("x", x, "sender"),
                         NodeMatch("g", lab)])
        exact = fit_exact_dyad(g, spec)
        pseudo = fit_mple(g, spec)
        if any(exact.separation):
            continue
        assert np.allclose(exact.theta, pseudo.theta, atol=1e-6), trial
        assert exact.log_likelihood == pytest.approx(pseudo.log_likelihood,
                                                     abs=1e-6)


def dense_pair_rows(oracle_terms, n):
    """(D, K) t1 and t2 and (K,) m of the oracle terms, from their definitions."""
    iu, ju = np.triu_indices(n, 1)
    t1, t2, m = [], [], []
    for kind, *args in oracle_terms:
        if kind in ("edges", "mutual"):
            a = b = np.full(iu.size, float(kind == "edges"))
        elif kind == "cov":
            x, role = np.asarray(args[0]), args[1]
            a, b = {"sender": (x[iu], x[ju]), "receiver": (x[ju], x[iu]),
                    "sum": (x[iu] + x[ju], x[iu] + x[ju])}[role]
        elif kind == "match":
            lab, level = np.asarray(args[0]), args[1]
            same = lab[iu] == lab[ju]
            if level is not None:
                same &= lab[iu] == level
            a = b = same.astype(float)
        else:
            z = np.asarray(args[0])
            a = b = np.abs(z[iu] - z[ju])
        t1.append(a)
        t2.append(b)
        m.append(float(kind == "mutual"))
    return np.array(t1).T, np.array(t2).T, np.array(m)


def dense_moments(t1, t2, m, theta):
    """log kappa, E[g] and Cov[g] from the (D, K) t1/t2 formulas in one pass."""
    w = np.stack([np.zeros(len(t1)), t1 @ theta, t2 @ theta,
                  t1 @ theta + t2 @ theta + m @ theta])
    top = w.max(axis=0)
    p = np.exp(w - top)
    total = p.sum(axis=0)
    p00, p10, p01, p11 = p / total
    q1, q2, r1, r2 = p10 + p11, p01 + p11, p00 + p01, p00 + p10
    mean = q1 @ t1 + q2 @ t2 + p11.sum() * m
    cross = t1.T @ ((p00 * p11 - p10 * p01)[:, None] * t2)
    side = t1.T @ (p11 * r1) + t2.T @ (p11 * r2)
    cov = (t1.T @ ((q1 * r1)[:, None] * t1) + t2.T @ ((q2 * r2)[:, None] * t2)
           + cross + cross.T + np.outer(m, side) + np.outer(side, m)
           + float(p11 @ (r1 + p10)) * np.outer(m, m))
    return float((top + np.log(total)).sum()), mean, cov


def assert_gram_close(got, want, rel):
    """Entrywise, against the scale of the two diagonal entries."""
    scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    assert np.all(np.abs(got - want) <= rel * scale)


@pytest.mark.parametrize("kinds", ["every", "no-asymmetric", "no-symmetric"])
def test_blocked_objectives_match_dense_formulas(kinds):
    # D spans several dyad blocks and ends in a partial one
    block = fit_module._BLOCK
    n = next(n for n in range(2, 1000)
             if n * (n - 1) // 2 > 2 * block and (n * (n - 1) // 2) % block)
    rng = np.random.default_rng(17)
    x, z = tuple(rng.uniform(0, 2, n)), tuple(rng.uniform(0, 2, n))
    lab = tuple("uvw"[i % 3] for i in range(n))
    every = [
        (Edges(), ("edges",), -1.5), (Mutual(), ("mutual",), 1.0),
        (NodeCovariate("x", x, "sender"), ("cov", x, "sender"), 0.3),
        (NodeCovariate("x", x, "receiver"), ("cov", x, "receiver"), -0.2),
        (NodeCovariate("z", z, "sum"), ("cov", z, "sum"), 0.1),
        (NodeMatch("g", lab), ("match", lab, None), 0.4),
        (NodeMatch("g", lab, level="v"), ("match", lab, "v"), -0.3),
        (AbsDiff("z", z), ("absdiff", z), -0.25),
    ]
    keep = {"every": range(8), "no-asymmetric": (0, 1, 4, 5, 6, 7),
            "no-symmetric": (1, 2)}[kinds]
    terms, oracle_terms, theta = zip(*(every[i] for i in keep))
    theta = np.array(theta)
    spec = ErgmSpec(terms)
    g = random_digraph(n, p=0.15, seed=5, mutual_boost=0.5)
    design = legnet.DyadDesign.from_graph(g, spec)
    assert design.n_dyads > 2 * block and design.n_dyads % block
    assert (design.s.shape[0] == 0) == (kinds == "no-symmetric")
    assert (design.a1.shape[0] == 0) == (kinds == "no-asymmetric")

    t1, t2, m = dense_pair_rows(oracle_terms, n)
    want_kappa, want_mean, want_cov = dense_moments(t1, t2, m, theta)
    log_kappa, mean, cov = fit_module._dyad_moments(design, theta)
    assert log_kappa == pytest.approx(want_kappa, rel=1e-12, abs=0)
    assert np.allclose(mean, want_mean, rtol=1e-12, atol=0)
    assert_gram_close(cov, want_cov, 1e-12)

    # the pseudolikelihood against a dense logistic regression
    xmat, y = ordered_design_matrix(design)
    y1, y2 = design.y1.astype(float), design.y2.astype(float)
    assert np.array_equal(xmat, np.vstack([t1 + np.outer(y2, m), t2 + np.outer(y1, m)]))
    eta = xmat @ theta
    p = expit(eta)
    want_ll = float(y @ eta - np.logaddexp(0.0, eta).sum())
    want_grad = xmat.T @ (y - p)
    want_fisher = xmat.T @ ((p * (1.0 - p))[:, None] * xmat)
    ll, grad, fisher = fit_module._pseudo_loglik(design, theta)
    assert ll == pytest.approx(want_ll, rel=1e-12, abs=0)
    # the gradient sums terms of both signs: compare against their magnitude
    assert np.all(np.abs(grad - want_grad) <= 1e-12 * (np.abs(xmat).T @ np.abs(y - p)))
    assert_gram_close(fisher, want_fisher, 1e-12)


def test_planted_theta_is_recovered():
    # graphs drawn exactly from a known theta of model2 plus a sender and a
    # match term; each estimate lands within 3 standard errors of the truth
    n = 120
    rng = np.random.default_rng(8)
    x = tuple(rng.uniform(-1, 1, n))
    party = tuple("DR"[i % 2] for i in range(n))
    terms = [Edges(), Mutual(), NodeCovariate("x", x, "sender"), NodeMatch("party", party)]
    spec = ErgmSpec(terms)
    # the same spec without mutual is dyad-independent: MPLE is the exact MLE
    independent = ErgmSpec([t for t in terms if not isinstance(t, Mutual)])
    truth = np.array([-2.5, 1.5, 0.6, 0.8])
    design = DyadDesign(n, spec)
    draws = sample_states(design, truth, SimControl(sample_size=4, seed=21),
                          keep_states=True)
    for index in range(4):
        g = draws.graph(design, index)
        fit = fit_exact_dyad(g, spec)
        assert not fit.separation.any()
        assert np.all(np.abs(fit.theta - truth) < 3.0 * fit.std_err), (index, fit.theta)
        exact, pseudo = fit_exact_dyad(g, independent), fit_mple(g, independent)
        assert np.allclose(pseudo.theta, exact.theta, rtol=1e-8, atol=0)
        assert pseudo.log_likelihood == pytest.approx(exact.log_likelihood, rel=1e-8)


def test_standard_errors_match_numerical_fisher():
    g = random_digraph(12, p=0.3, seed=77, mutual_boost=0.5)
    spec = ErgmSpec([Edges(), Mutual()])
    fit = fit_exact_dyad(g, spec)
    theta = np.asarray(fit.theta)
    eps = 1e-5
    k = len(theta)
    fisher = np.zeros((k, k))
    for a in range(k):
        up, dn = theta.copy(), theta.copy()
        up[a] += eps
        dn[a] -= eps
        # the gradient of the log-likelihood is g_obs - E[g]
        fisher[a] = (expected_statistics(g, spec, up)
                     - expected_statistics(g, spec, dn)) / (2 * eps)
    se = np.sqrt(np.diag(np.linalg.inv(fisher)))
    assert np.allclose(fit.std_err, se, rtol=1e-4)
    z = np.asarray(fit.theta) / np.asarray(fit.std_err)
    assert np.array_equal(fit.p_values, 2 * norm.sf(np.abs(z)))


def test_information_criteria_arithmetic():
    g = random_digraph(9, p=0.3, seed=2)
    fit = fit_exact_dyad(g, ErgmSpec([Edges(), Mutual()]))
    assert fit.aic == pytest.approx(-2 * fit.log_likelihood + 2 * 2)
    assert fit.bic == pytest.approx(-2 * fit.log_likelihood
                                    + 2 * math.log(9 * 8))
    assert fit.n_obs == 72


def test_complete_separation_is_pinned_and_flagged():
    # complete within-group dyads, nothing across: the match term has
    # no finite maximizer
    n = 6
    lab = tuple("uuuvvv")
    y = np.zeros((n, n), bool)
    for i in range(n):
        for j in range(n):
            if i != j and lab[i] == lab[j]:
                y[i, j] = True
    g = graph_from_matrix(y)
    spec = ErgmSpec([Edges(), NodeMatch("g", lab)])
    fit = fit_exact_dyad(g, spec)
    assert fit.separation[1]
    assert fit.theta[1] == math.inf
    assert fit.std_err[1] == 0.0 and fit.p_values[1] == 0.0
    assert not fit.separation[0] and math.isfinite(fit.theta[0])
    # effect report mirrors the limit
    rows = report_effects(fit)
    assert rows[1]["exp"] == math.inf and rows[1]["expit"] == 1.0


def test_negative_separation_reports_minus_infinity():
    # a level that never sends or receives any tie
    n = 6
    lab = tuple("uuuuvv")
    y = np.zeros((n, n), bool)
    for i in range(4):
        for j in range(4):
            if i != j:
                y[i, j] = True
    g = graph_from_matrix(y)
    spec = ErgmSpec([Edges(), NodeMatch("g", lab, level="v")])
    fit = fit_exact_dyad(g, spec)
    assert fit.separation[1]
    assert fit.theta[1] == -math.inf
    rows = report_effects(fit)
    assert rows[1]["exp"] == 0.0 and rows[1]["expit"] == 0.0


@pytest.fixture(scope="module")
def generated_congress(tmp_path_factory):
    """The benchmark generator's seed-1 congress graph (n=300), with its
    attributes and centralities."""
    out = tmp_path_factory.mktemp("generated")
    gen.generate(1, out, shapes=("congress",))
    graph = legnet.load_edge_list(out / "congress_edges.csv")
    attrs = legnet.load_attributes(out / "congress_attrs.csv", graph)
    return graph, attrs, legnet.centrality_report(graph)


@pytest.mark.parametrize("fit", [fit_exact_dyad, fit_mple])
def test_rescaling_a_covariate_rescales_its_coefficient(generated_congress, fit):
    # betweenness lies in [0, 0.17] and its coefficient near -30: a pin
    # bound in coefficient units would cut it off, one in the units of
    # its rows does not, so the fit is the same model at every scale
    graph, attrs, cent = generated_congress
    spec = legnet.build_model("model3", graph, attrs, cent)
    k = spec.labels.index("sum(betweenness)")
    base = fit(graph, spec)
    assert np.isfinite(base.theta).all() and not base.separation.any()
    for scale in (1e3, 1e-3):
        term = spec.terms[k]
        scaled = dataclasses.replace(term, values=tuple(np.multiply(term.values, scale)))
        got = fit(graph, ErgmSpec(spec.terms[:k] + (scaled,) + spec.terms[k + 1:]))
        assert got.log_likelihood == pytest.approx(base.log_likelihood, rel=1e-9)
        assert got.theta[k] == pytest.approx(base.theta[k] / scale, rel=1e-6)
        assert not got.separation.any()


@pytest.mark.parametrize("fit", [fit_exact_dyad, fit_mple])
@pytest.mark.parametrize("model", ["model3", "model5", "model6"])
def test_centrality_models_reach_the_standardized_fit(generated_congress, model, fit):
    # every model has edges, so standardizing the covariates only
    # reparametrizes it: the maximum is the same
    graph, attrs, cent = generated_congress
    raw = fit(graph, legnet.build_model(model, graph, attrs, cent))
    std = fit(graph, legnet.build_model(model, graph, attrs, cent, standardize=True))
    assert np.isfinite(raw.theta[raw.labels.index("sum(betweenness)")])
    assert raw.log_likelihood == pytest.approx(std.log_likelihood, rel=1e-9)
    assert np.array_equal(raw.separation, std.separation)


def _model4(graph, attrs, ethnicity=True):
    spec = legnet.build_model("model4", graph, attrs, None)
    return ErgmSpec([term for term in spec.terms if ethnicity
                     or not (isinstance(term, NodeMatch) and term.name == "ethnicity")])


def test_estimability_fixture_is_as_described(estimability_case):
    graph, attrs_with, hispanic, white = estimability_case
    assert (len(hispanic), len(white)) == (32, 24)
    for e in (0, 3):
        attrs = attrs_with(e)
        marked = {graph.id_of(i) for i, v in enumerate(attrs.categorical("ethnicity"))
                  if v == "Hispanic"}
        assert marked == hispanic | set(white[:e])
        assert {graph.id_of(i) for i, v in enumerate(attrs.categorical("race"))
                if v == "Hispanic"} == hispanic


@pytest.mark.parametrize("fit", [fit_exact_dyad, fit_mple])
def test_aliased_terms_cost_no_likelihood(estimability_case, fit):
    # the two Hispanic matches are one column: pinned at +Inf and -Inf they
    # reached -19452.14, below the -19451.43 of the model without the
    # ethnicity terms; the later one is held as aliased instead
    graph, attrs_with, *_ = estimability_case
    attrs = attrs_with(0)
    nested = fit(graph, _model4(graph, attrs, ethnicity=False)).log_likelihood
    full = fit(graph, _model4(graph, attrs))
    assert full.log_likelihood >= nested - 1e-6
    k = full.labels.index("match(ethnicity=Hispanic)")
    assert np.isnan(full.theta[k])
    assert full.inestimable[k] == "aliased with match(race=Hispanic)"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2b")
@pytest.mark.parametrize("e", [1, 2])
def test_estimators_agree_along_a_combined_separation(estimability_case, e):
    # model4 has no mutual term, so the two fits maximize one likelihood;
    # along the direction (+1, -1) of the two Hispanic matches both drift
    # to about (+24.8, -25.0) and stop at different points. At e = 3 the
    # two already agree (at -19434.73), so that case is not listed.
    graph, attrs_with, *_ = estimability_case
    spec = _model4(graph, attrs_with(e))
    exact, mple = fit_exact_dyad(graph, spec), fit_mple(graph, spec)
    np.testing.assert_allclose(mple.theta, exact.theta, rtol=1e-8, atol=1e-8)
    assert mple.log_likelihood == pytest.approx(exact.log_likelihood, rel=1e-8)


def test_report_effects_values():
    g = random_digraph(8, p=0.35, seed=30, mutual_boost=0.5)
    fit = fit_exact_dyad(g, ErgmSpec([Edges(), Mutual()]))
    rows = report_effects(fit)
    assert [r["term"] for r in rows] == ["edges", "mutual"]
    for r, theta in zip(rows, fit.theta):
        assert r["exp"] == pytest.approx(math.exp(theta))
        assert r["expit"] == pytest.approx(1 / (1 + math.exp(-theta)))


def test_report_effects_of_an_inestimable_coefficient_are_nan():
    # a match on all-distinct labels is 0 on every dyad: its estimate is NaN
    g = random_digraph(6, p=0.4, seed=17)
    fit = fit_exact_dyad(g, ErgmSpec([Edges(), NodeMatch("tag", tuple("abcdef"))]))
    rows = report_effects(fit)
    assert math.isnan(rows[1]["theta"])
    assert math.isnan(rows[1]["exp"]) and math.isnan(rows[1]["expit"])
    assert rows[0]["exp"] == pytest.approx(math.exp(fit.theta[0]))


def test_inestimable_term_is_nan_and_leaves_the_rest_alone():
    # a level with a single member matches no pair: its term is 0 on
    # every dyad, so the data say nothing about its coefficient
    n = 12
    g = random_digraph(n, p=0.3, seed=8, mutual_boost=0.4)
    x = tuple(np.random.default_rng(8).uniform(0, 2, n))
    lab = tuple(["u", "v"][i % 2] for i in range(n - 1)) + ("solo",)
    without = [Edges(), Mutual(), NodeCovariate("x", x, "sender"), NodeMatch("g", lab)]
    with_term = without[:2] + [NodeMatch("g", lab, level="solo")] + without[2:]
    for fit_fn in (fit_exact_dyad, fit_mple):
        fit = fit_fn(g, ErgmSpec(with_term))
        ref = fit_fn(g, ErgmSpec(without))
        assert np.isnan(fit.theta[2]) and np.isnan(fit.std_err[2])
        assert np.isnan(fit.p_values[2])
        assert not fit.separation.any() and fit.theta_pinned[2] == 0.0
        keep = [0, 1, 3, 4]
        for got, want in ((fit.theta, ref.theta), (fit.std_err, ref.std_err),
                          (fit.p_values, ref.p_values)):
            assert np.allclose(got[keep], want, rtol=1e-10, atol=0), fit_fn
        assert fit.log_likelihood == pytest.approx(ref.log_likelihood, rel=1e-12)
        assert fit.converged and fit.iterations == ref.iterations
        rows = report_effects(fit)
        assert math.isnan(rows[2]["exp"]) and math.isnan(rows[2]["expit"])


def _alias_case():
    """A small digraph, the terms edges and mutual, a sender covariate x and
    a uniform match on `party`, with `caucus` a one-to-one relabelling."""
    n = 14
    g = random_digraph(n, p=0.3, seed=21, mutual_boost=0.4)
    rng = np.random.default_rng(21)
    x = rng.uniform(0, 2, n)
    party = [("D", "R", "I")[v] for v in rng.integers(0, 3, n)]
    caucus = [{"D": "left", "R": "right", "I": "centre"}[v] for v in party]
    return g, x, party, caucus


@pytest.mark.parametrize("alias", ["twice-x", "relabelled-match"])
def test_an_exactly_aliased_term_is_held_and_the_rest_fit_as_without_it(alias):
    g, x, party, caucus = _alias_case()
    first, later = {
        "twice-x": (NodeCovariate("x", tuple(x), "sender"),
                    NodeCovariate("x2", tuple(2.0 * x), "sender")),
        "relabelled-match": (NodeMatch("party", party), NodeMatch("caucus", caucus)),
    }[alias]
    without = ErgmSpec([Edges(), Mutual(), first])
    spec = ErgmSpec([Edges(), Mutual(), first, later])
    reason = {3: f"aliased with {without.labels[2]}"}
    for fit_fn in (fit_exact_dyad, fit_mple):
        fit, ref = fit_fn(g, spec), fit_fn(g, without)
        np.testing.assert_allclose(fit.theta[:3], ref.theta, rtol=1e-10, atol=1e-10)
        assert fit.log_likelihood == pytest.approx(ref.log_likelihood, rel=1e-10)
        assert np.isnan(fit.theta[3]) and fit.inestimable == reason, fit_fn
        assert fit.iterations == ref.iterations
    fit = legnet.fit_mcmle(g, spec, legnet.McmleControl(seed=1))
    assert np.isnan(fit.theta[3]) and fit.inestimable == reason
    assert np.isfinite(fit.theta[:3]).all()


def test_a_near_alias_is_estimated():
    # 2x with one member's value moved: the two columns differ on that
    # member's ordered pairs only, and both coefficients are estimated
    g, x, *_ = _alias_case()
    near = 2.0 * x
    near[0] += 0.5
    spec = ErgmSpec([Edges(), Mutual(), NodeCovariate("x", tuple(x), "sender"),
                     NodeCovariate("x2", tuple(near), "sender")])
    for fit_fn in (fit_exact_dyad, fit_mple):
        fit = fit_fn(g, spec)
        assert np.isfinite(fit.theta).all() and fit.inestimable == {}, fit_fn


def test_ranges_and_held_terms_match_enumeration():
    # n = 4 has 4^6 = 4096 joint dyad states: the range of g over them,
    # and the held set at every one of them taken as the observed graph
    n = 4
    # the largest |x| and |z| are on the last node, which only the second
    # row of the sender term and the first of the receiver term reach
    x, z = (0.5, -1.2, 0.8, -2.5), (0.4, 0.9, -1.7, -2.2)
    lab = ("u", "u", "v", "w")
    spec = ErgmSpec([Edges(), Mutual(), NodeCovariate("x", x, "sender"),
                     NodeCovariate("z", z, "receiver"), NodeMatch("g", lab, level="u"),
                     NodeMatch("g", lab, level="w")])   # "w" has one member
    terms = [("edges",), ("mutual",), ("cov", x, "sender"), ("cov", z, "receiver"),
             ("match", lab, "u"), ("match", lab, "w")]
    stats = np.array([oracle_statistics(y, terms) for y in enumerate_graphs(n)])
    assert stats.shape == (4096, 6)
    design = DyadDesign(n, spec)
    low, high = design.statistic_range(design.n_dyads)
    assert np.allclose(low, stats.min(axis=0), rtol=0, atol=1e-12)
    assert np.allclose(high, stats.max(axis=0), rtol=0, atol=1e-12)
    zero = (stats == 0.0).all(axis=0)
    assert zero.tolist() == [False] * 5 + [True]
    top = (np.abs(stats - stats.max(axis=0)) < 1e-9) & ~zero
    bottom = (np.abs(stats - stats.min(axis=0)) < 1e-9) & ~zero
    # every live term sits at each end somewhere, and some states at neither
    assert top[:, ~zero].any(axis=0).all() and bottom[:, ~zero].any(axis=0).all()
    assert (~top & ~bottom).all(axis=1).any()
    scale = [1.0, 1.0, np.abs(x).max(), np.abs(z).max(), 1.0]
    for g, at_top, at_bottom in zip(stats, top, bottom):
        held, bound = fit_module._held_terms(design, g, design.n_dyads)
        assert np.array_equal(bound, [*(fit_module.SEPARATION_BOUND / np.array(scale)),
                                      np.inf])
        # the zero term stays free here: the Newton screen holds it
        want = np.where(at_top, bound, np.where(at_bottom, -bound, np.nan))
        assert np.array_equal(held, want, equal_nan=True), g
    interior = next(y for y, at_top, at_bottom in zip(enumerate_graphs(n), top, bottom)
                    if not (at_top | at_bottom).any())
    fit = fit_exact_dyad(graph_from_matrix(interior), spec)
    assert not np.isnan(fit.theta[:5]).any() and np.isnan(fit.theta[5])
    assert fit.inestimable == {5: "0 on every dyad"}


def test_mple_mutual_without_ties_is_inestimable():
    # no tie has a reverse tie, so the mutual change statistic is 0 on every
    # ordered pair: the pseudolikelihood says nothing about it
    g = Graph([], ["a", "b", "c", "d"])
    fit = fit_mple(g, ErgmSpec([Edges(), Mutual()]))
    assert fit.theta[0] == -math.inf and fit.separation.tolist() == [True, False]
    assert np.isnan(fit.theta[1]) and np.isnan(fit.std_err[1]) and np.isnan(fit.p_values[1])


def test_likelihood_ratio_test_against_chi2():
    g = random_digraph(12, p=0.3, seed=44, mutual_boost=0.6)
    null = fit_exact_dyad(g, ErgmSpec([Edges()]))
    full = fit_exact_dyad(g, ErgmSpec([Edges(), Mutual()]))
    stat, df, p = likelihood_ratio_test(full, null)
    assert stat == pytest.approx(2 * (full.log_likelihood - null.log_likelihood))
    assert df == 1
    assert p == chi2.sf(stat, 1)
    # a null that scores higher (a fit stopped short) gives a negative statistic
    worse = dataclasses.replace(full, log_likelihood=null.log_likelihood - 1.0)
    stat, _, p = likelihood_ratio_test(worse, null)
    assert stat < 0 and p == chi2.sf(stat, 1) == 1.0


def test_likelihood_ratio_test_rejects_mismatches():
    g1 = random_digraph(10, p=0.3, seed=45)
    g2 = random_digraph(10, p=0.3, seed=46)
    null = fit_exact_dyad(g1, ErgmSpec([Edges()]))
    other = fit_exact_dyad(g2, ErgmSpec([Edges(), Mutual()]))
    with pytest.raises(DataError):
        likelihood_ratio_test(other, null)
    same_k = fit_exact_dyad(g1, ErgmSpec([Edges()]))
    with pytest.raises(DataError):
        likelihood_ratio_test(same_k, null)


def test_published_census_converges_to_p1_closed_form(monkeypatch):
    # the published chamber's dyad census: 475 members, 13,300 ties,
    # 3,059 mutual dyads. On 112,575 dyads the gradient's rounding floor
    # sits above 1e-8, so convergence rests on the Newton decrement.
    n, mutual, asym = 475, 3059, 7182
    rng = np.random.default_rng(0)
    i, j = np.triu_indices(n, k=1)
    pick = rng.permutation(i.shape[0])[:mutual + asym]
    i, j = i[pick], j[pick]
    flip = rng.random(asym) < 0.5
    src = np.concatenate([i[:mutual], j[:mutual], np.where(flip, j[mutual:], i[mutual:])])
    dst = np.concatenate([j[:mutual], i[:mutual], np.where(flip, i[mutual:], j[mutual:])])
    g = Graph(zip(src.tolist(), dst.tolist(), [1.0] * src.shape[0]), nodes=range(n))
    calls = []
    real = fit_module._dyad_loglik

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fit_module, "_dyad_loglik", counted)
    fit = fit_exact_dyad(g, ErgmSpec([Edges(), Mutual()]))

    dyads = n * (n - 1) // 2
    null = dyads - mutual - asym
    theta = [math.log(asym / (2 * null)), math.log(4 * mutual * null / asym**2)]
    ll = (mutual * math.log(mutual / dyads) + asym * math.log(asym / (2 * dyads))
          + null * math.log(null / dyads))
    assert fit.converged
    assert np.allclose(fit.theta, theta, rtol=1e-11, atol=0.0)
    assert fit.log_likelihood == pytest.approx(ll, rel=1e-14)
    # one evaluation per step: the last step, whose predicted gain is
    # below the rounding of ll, is taken once and not halved
    assert len(calls) <= fit.iterations + 1


def test_stalled_line_search_is_not_convergence(monkeypatch):
    # the reported gradient points uphill but the objective falls along
    # it, so halving ends in forced tiny steps that lower ll each time
    from legnet.ergm.fit import _newton
    monkeypatch.setattr(fit_module, "_NEWTON_MAX_ITER", 20)

    def objective(theta):
        return -5e4 - 1e3 * theta[0], np.array([1e-2]), np.eye(1)

    with pytest.raises(EstimationError, match="no convergence"):
        _newton(objective, 1)


@pytest.mark.parametrize("fit", [fit_exact_dyad, fit_mple])
def test_newton_budget_out_is_no_convergence(monkeypatch, fit):
    monkeypatch.setattr(fit_module, "_NEWTON_MAX_ITER", 1)
    g = random_digraph(12, p=0.35, seed=3, mutual_boost=0.3)
    with pytest.raises(EstimationError, match="^no convergence after 1 iterations"):
        fit(g, ErgmSpec([Edges(), Mutual()]))


def test_step_within_rounding_is_taken_once(monkeypatch):
    # near the optimum ll moves only in its last digits: each evaluation
    # reads 1e-11 lower, below the rounding 16 eps |ll| = 1.8e-10 of ll.
    # The step's predicted gain (5e-17) is within that rounding, so it is
    # evaluated once, accepted and ends the iteration, where halving
    # would chase the noise.
    from legnet.ergm.fit import _newton
    monkeypatch.setattr(fit_module, "_NEWTON_MAX_ITER", 20)

    calls = []

    def objective(theta):
        calls.append(theta.copy())
        return -5e4 - 1e-11 * len(calls), np.array([1e-6]), np.array([[1e4]])

    theta, frozen, _, _, it, _ = _newton(objective, 1)
    assert it == 1 and len(calls) == 2
    assert theta[0] == pytest.approx(1e-10, rel=1e-12) and not frozen.any()


@pytest.mark.parametrize("fit", [fit_exact_dyad, fit_mple])
@pytest.mark.parametrize("term", [
    lambda x: AbsDiff("closeness", x),
    lambda x: NodeCovariate("closeness", x, "sum"),
], ids=["absdiff", "covariate"])
def test_non_finite_covariate_is_a_data_error(fit, term):
    g = graph_with_a_sink()
    x = legnet.closeness(g)
    assert np.isnan(x[0]) and np.isfinite(x[1:]).all()
    with pytest.raises(DataError, match="covariate 'closeness' contains non-finite values"):
        fit(g, ErgmSpec([Edges(), term(tuple(x))]))
